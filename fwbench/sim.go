package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"flashwalker/internal/core"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/snapshot"
	"flashwalker/internal/walk"
)

// simWorkload is one simulator workload: a fixed paper-style cell run in
// process through the core package, the way cmd/experiments runs it.
type simWorkload struct {
	dataset string
	walks   int // 0: the dataset's DefaultWalks
	spec    walk.Spec
	boards  int
}

var simWorkloads = map[string]simWorkload{
	// One FlashWalker cell of Fig. 5 on the single-board Engine path.
	"tt-fig5": {dataset: "TT-S", spec: walk.Spec{Kind: walk.Unbiased, Length: harness.WalkLength}, boards: 1},
	// node2vec on a 4-board Array over the only multi-partition dataset.
	"mb-array-n2v": {dataset: "MB-S", walks: 40_000, boards: 4,
		spec: walk.Spec{Kind: walk.SecondOrder, Length: harness.WalkLength, P: 0.5, Q: 2}},
}

const (
	// setupReps and recoverReps are the fewest set-up and recovery
	// samples a run takes, so setup_s and recover_s are medians.
	setupReps   = 3
	recoverReps = 3
	// In the measured loop of a simulator workload every setupEvery-th
	// iteration sets up again and every recoverEvery-th resumes from the
	// snapshot, so those samples spread over the same window as the jobs
	// and a passing slowdown of the machine moves every metric alike.
	setupEvery   = 7
	recoverEvery = 4
	// snapshotEvery is the event interval the service snapshots durable
	// jobs at (16 checkpoints of core.DefaultCheckpointEvery events).
	snapshotEvery = 16 * core.DefaultCheckpointEvery
)

// Container kind tags of the service's durable snapshots.
const (
	snapKindCore  = "flashwalker-core-engine"
	snapKindDelta = "flashwalker-core-delta"
	snapKindArray = "flashwalker-core-array"
)

// simRun is a built engine or array, ready to run once.
type simRun interface {
	RunContext(context.Context) (*core.Result, error)
}

func (w simWorkload) config(d harness.Dataset, seed uint64) core.RunConfig {
	n := w.walks
	if n == 0 {
		n = d.DefaultWalks
	}
	rc := harness.FlashWalkerConfig(d, core.AllOptions(), n, seed)
	rc.Spec = w.spec
	rc.Cfg.Boards = w.boards
	return rc
}

// build constructs the engine (one board) or the array (several). snap,
// when non-nil, receives the run's first snapshot as an encoded container.
func (w simWorkload) build(g *graph.Graph, rc core.RunConfig, snap func([]byte)) (simRun, error) {
	if w.boards > 1 {
		a, err := core.NewArray(g, rc)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			a.SetSnapshotHook(captureOnce[core.ArraySnapshot](snapKindArray, snap), snapshotEvery)
		}
		return a, nil
	}
	if snap != nil {
		rc.OnSnapshot = captureOnce[core.Snapshot](snapKindCore, snap)
		rc.SnapshotEvery = snapshotEvery
	}
	return core.NewEngine(g, rc)
}

// captureOnce encodes the first snapshot it is handed and ignores the rest.
func captureOnce[T any](kind string, out func([]byte)) func(*T) {
	done := false
	return func(s *T) {
		if done {
			return
		}
		done = true
		data, err := snapshot.Encode(kind, s)
		if err != nil {
			data = nil
		}
		out(data)
	}
}

// resume decodes a captured container and rebuilds the run from it.
func (w simWorkload) resume(tr *tracer, job int, g *graph.Graph, data []byte) (simRun, error) {
	t0 := time.Now()
	if w.boards > 1 {
		var s core.ArraySnapshot
		if err := snapshot.Decode(data, snapKindArray, &s); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add("snapshot.decode", job, "recover", t0, t1)
		a, err := core.ResumeArray(g, &s, core.ArrayResumeOptions{})
		tr.add("core.resume", job, "recover", t1, time.Now())
		return a, err
	}
	var s core.Snapshot
	if err := snapshot.Decode(data, snapKindCore, &s); err != nil {
		return nil, err
	}
	t1 := time.Now()
	tr.add("snapshot.decode", job, "recover", t0, t1)
	e, err := core.ResumeEngine(g, &s, core.ResumeOptions{})
	tr.add("core.resume", job, "recover", t1, time.Now())
	return e, err
}

// simLoop is the state of one simulator run.
type simLoop struct {
	w      simWorkload
	d      harness.Dataset
	seed   uint64
	g      *graph.Graph
	tr     *tracer
	want   string // digest of the reference run
	snap   []byte // the reference run's first snapshot
	traced bool

	hops, events, allocBytes, allocObjs uint64
	rates                               []float64 // per job, Mhops per second of RunContext
	profile                             []profSample
}

// setup generates the graph and builds the engine once.
func (l *simLoop) setup(n int) error {
	t0 := time.Now()
	g, err := l.d.Gen()
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err = l.w.build(g, l.w.config(l.d, l.seed), nil); err != nil {
		return err
	}
	t2 := time.Now()
	l.tr.add("graph.gen", n, "setup", t0, t1)
	l.tr.add("core.build", n, "setup", t1, t2)
	l.tr.add("setup", n, "", t0, t2)
	if l.g == nil {
		l.g = g
	}
	return nil
}

// job builds a fresh engine and runs it; its simulated outputs must
// equal the reference run's.
func (l *simLoop) job(ctx context.Context, n int) error {
	rc := l.w.config(l.d, l.seed)
	t0 := time.Now()
	var first time.Time
	var last core.Progress
	rc.OnProgress = func(p core.Progress) {
		last = p
		if first.IsZero() && p.WalksFinished() > 0 {
			first = time.Now()
		}
	}
	r, err := l.w.build(l.g, rc, nil)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	var prof bytes.Buffer
	if l.traced {
		runtime.ReadMemStats(&m0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	t1 := time.Now()
	res, err := r.RunContext(ctx)
	t2 := time.Now()
	if l.traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		l.allocObjs += m1.Mallocs - m0.Mallocs
		samples, err := readProfile(prof.Bytes())
		if err != nil {
			return err
		}
		l.profile = append(l.profile, samples...)
	}
	if err != nil {
		return err
	}
	if got := digest(res); got != l.want {
		return fmt.Errorf("job %d: simulated outputs differ from the reference run:\n got %s\nwant %s", n, got, l.want)
	}
	l.hops += res.Hops
	l.events += last.Events
	l.rates = append(l.rates, float64(res.Hops)/t2.Sub(t1).Seconds()/1e6)
	l.tr.add("core.build", n, "job", t0, t1)
	l.tr.add("core.run", n, "job", t1, t2)
	l.tr.add("first_frame", n, "job", t0, first)
	l.tr.add("job", n, "", t0, t2)
	return nil
}

// recover resumes from the reference run's first snapshot; the resumed
// run must finish with the reference's outputs.
func (l *simLoop) recover(ctx context.Context, n int) error {
	if l.snap == nil {
		return errors.New("reference run produced no snapshot")
	}
	t0 := time.Now()
	r, err := l.w.resume(l.tr, n, l.g, l.snap)
	if err != nil {
		return err
	}
	res, err := r.RunContext(ctx)
	if err != nil {
		return err
	}
	if got := digest(res); got != l.want {
		return fmt.Errorf("resume %d: simulated outputs differ from the uninterrupted run:\n got %s\nwant %s", n, got, l.want)
	}
	l.tr.add("recover", n, "", t0, time.Now())
	return nil
}

// runSim measures a simulator workload:
//
//  1. set up once (generate the graph, build the engine);
//  2. one untimed reference run that captures the first snapshot and
//     whose simulated outputs must equal the pin for this seed;
//  3. a loop for the measured seconds of jobs (a fresh build and run
//     whose outputs must equal the reference's), set-ups, and resumes
//     from the captured snapshot (which must finish with the reference's
//     outputs), until there are at least setupReps set-ups and
//     recoverReps resumes.
//
// Every iteration starts from a collected heap, as a fresh process would,
// so none pays for its predecessor's garbage.
func runSim(ctx context.Context, w simWorkload, o options, tr *tracer, rep *report) error {
	d, err := harness.DatasetByName(w.dataset)
	if err != nil {
		return err
	}
	l := &simLoop{w: w, d: d, seed: shippedSeed(o.seed), tr: tr, traced: o.traced}
	if err := l.setup(setupJob); err != nil {
		return err
	}

	r, err := w.build(l.g, w.config(d, l.seed), func(b []byte) { l.snap = b })
	if err != nil {
		return err
	}
	ref, err := r.RunContext(ctx)
	rep.op(err)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	l.want = digest(ref)
	rep.op(checkPin(o.workload, l.seed, l.want))
	rep.op(selfCheckPin(o.workload, l.seed, ref))

	setups, recovers, jobsRun := 1, 0, 0
	start := time.Now()
	for n := 1; ; n++ {
		timeUp := time.Since(start) >= time.Duration(o.seconds)*time.Second
		if timeUp && setups >= setupReps && recovers >= recoverReps && jobsRun > 0 {
			break
		}
		runtime.GC()
		switch {
		case timeUp && setups < setupReps, !timeUp && n%setupEvery == 0:
			err = l.setup(n)
			setups++
		case timeUp, n%recoverEvery == 0:
			err = l.recover(ctx, n)
			recovers++
		default:
			err = l.job(ctx, n)
			jobsRun++
		}
		rep.op(err)
	}

	runs := tr.loop("core.run")
	jobs := tr.loop("job")
	v := rep.values
	v["setup_s"] = median(tr.durations("setup"))
	v["peak_rss_mib"], err = peakRSSMiB(0)
	if err != nil {
		return err
	}
	v["wall_mhops_per_s"] = median(l.rates)
	v["jobs_per_s"] = ratio(float64(len(jobs)), sum(jobs))
	v["job_p50_s"] = median(jobs)
	v["job_p75_s"] = quantile(jobs, jobTailPercentile/100.0)
	v["first_frame_p50_s"] = median(tr.loop("first_frame"))
	v["recover_s"] = median(tr.loop("recover"))
	if !o.traced {
		return nil
	}

	v["trace.wall_mhops_per_s"] = v["wall_mhops_per_s"]
	v["trace.jobs_per_s"] = v["jobs_per_s"]
	v["graph.gen_s"] = median(tr.durations("graph.gen"))
	v["core.build_s"] = median(tr.loop("core.build"))
	v["core.run_s"] = median(runs)
	v["core.events"] = ratio(float64(l.events), float64(len(runs)))
	v["core.ns_per_event"] = ratio(sum(runs)*1e9, float64(l.events))
	v["alloc.bytes_per_hop"] = ratio(float64(l.allocBytes), float64(l.hops))
	v["alloc.objs_per_hop"] = ratio(float64(l.allocObjs), float64(l.hops))
	modelMetrics(v, ref)
	v["snapshot.full_bytes"] = float64(len(l.snap))
	v["snapshot.decode_s"] = median(tr.durations("snapshot.decode"))
	v["core.resume_s"] = median(tr.durations("core.resume"))
	for bucket, share := range selfShares(l.profile) {
		v["cpu."+bucket+"_frac"] = share
	}
	return nil
}

// modelMetrics sets the simulated (model.*) metrics from a result.
func modelMetrics(v map[string]float64, r *core.Result) {
	v["model.sim_us"] = float64(r.Time) / 1e3
	v["model.hops"] = float64(r.Hops)
	v["model.qcache_hit_ratio"] = ratio(float64(r.QueryCacheHits), float64(r.QueryCacheHits+r.QueryCacheMisses))
	v["model.filter_probes"] = float64(r.FilterProbes)
	v["model.flash_read_pages"] = float64(r.Flash.ReadPages)
	v["model.fabric_walks"] = float64(r.FabricWalks)
	v["model.partition_switches"] = float64(r.PartitionSwitches)
}
