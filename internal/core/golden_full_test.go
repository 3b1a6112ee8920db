package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// goldenFullResult pins a SHA-256 over EVERY Result field — utilizations,
// filter probes, fault counters, mutation attribution, visit counts and
// the time series included — for NewEngine runs over workloads that each
// light up a different part of it. goldenDigest covers only the 24 core
// counters; these catch a refactor that keeps those but moves anything
// else. The same update discipline applies: never re-capture to make a
// refactor pass.
var goldenFullResult = map[string]string{
	"golden":          "ef73c5159aee2884e22e1aba55cf708b8f77770fe724d55054755e7f7be5985b",
	"second-order":    "4a3c98e04ca5612925c9c09f839edafd2c9b992cbced1e0cfda75a37c0334e6b",
	"alias-faults":    "7bf2ee5cadf9d9f0477c93d974180ecc8bf57804a86433af94cc7e9d4d3f0739",
	"mutations":       "e9b379bf582a8b73eb224b4bf640d4969b2ecf1072343bd4ca769e1a6b5df4c9",
	"visits-progress": "fc46d3cab51dd82b17904bf9ac4d7327133bb85a276fc28f7840127a87f7df7f",
}

// fullResultHash hashes every Result field: the exported fields as JSON
// (floats render in their shortest exact form) followed by each time
// series' bin width and bin values.
func fullResultHash(t *testing.T, res *Result) string {
	t.Helper()
	r := *res
	series := []*metrics.TimeSeries{r.ReadTS, r.WriteTS, r.ChannelTS, r.ProgressTS}
	r.ReadTS, r.WriteTS, r.ChannelTS, r.ProgressTS = nil, nil, nil, nil
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	h := sha256.New()
	h.Write(data)
	for i, ts := range series {
		if ts == nil {
			fmt.Fprintf(h, "|ts%d=nil", i)
			continue
		}
		fmt.Fprintf(h, "|ts%d bin=%d", i, ts.BinWidth())
		for b := 0; b < ts.NumBins(); b++ {
			fmt.Fprintf(h, " %v", ts.Value(b))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFullResult checks every pinned workload's full Result, after
// checking that the workload exercises the part of the Result it is there
// to pin.
func TestGoldenFullResult(t *testing.T) {
	type fullCase struct {
		build func(t *testing.T) (*graph.Graph, RunConfig)
		fires func(*Result) bool
	}
	cases := map[string]fullCase{
		"golden": {
			build: func(t *testing.T) (*graph.Graph, RunConfig) { return testGraph(t), goldenConfig() },
			fires: func(r *Result) bool { return r.ChipUpdaterUtil > 0 && r.DRAMPortUtil > 0 },
		},
		"second-order": {
			build: func(t *testing.T) (*graph.Graph, RunConfig) {
				rc := goldenConfig()
				rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2}
				rc.NumWalks = 300
				return secondOrderGraph(t), rc
			},
			fires: func(r *Result) bool { return r.FilterProbes > 0 },
		},
		"alias-faults": {
			build: func(t *testing.T) (*graph.Graph, RunConfig) {
				rc := goldenConfig()
				rc.Spec = walk.Spec{Kind: walk.Biased, Length: 6}
				rc.UseAliasSampling = true
				rc.Cfg.Faults = aggressiveFaults()
				return weightedGraph(t), rc
			},
			fires: func(r *Result) bool { return r.Faults.ReadErrors > 0 && r.Faults.DegradedChips > 0 },
		},
		"mutations": {
			build: func(t *testing.T) (*graph.Graph, RunConfig) {
				g, edges := mutTestGraph(t, false)
				rc := mutConfig(false)
				rc.Mutations = timedStream(mutStream(edges, false),
					[]int64{0, 0, 20000, 40000, 60000, 80000, 100000, 120000})
				return g, rc
			},
			fires: func(r *Result) bool { return r.MutationsApplied == 8 && r.Visits != nil },
		},
		"visits-progress": {
			build: func(t *testing.T) (*graph.Graph, RunConfig) {
				rc := goldenConfig()
				rc.TrackVisits = true
				rc.ProgressBin = 50 * sim.Microsecond
				return testGraph(t), rc
			},
			fires: func(r *Result) bool { return r.Visits != nil && r.ProgressTS != nil && r.ReadTS.NumBins() > 1 },
		},
	}
	for name, want := range goldenFullResult {
		t.Run(name, func(t *testing.T) {
			c := cases[name]
			g, rc := c.build(t)
			res := runEngine(t, g, rc)
			if !c.fires(res) {
				t.Fatalf("workload does not exercise what it pins: %+v", res)
			}
			if got := fullResultHash(t, res); got != want {
				t.Fatalf("full result changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}
