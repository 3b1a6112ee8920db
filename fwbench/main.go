// Command fwbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it produces, and prints
// one JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separately traced run. See README.md for the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
//
// Build and run it through run.sh, which compiles this package and the
// flashwalkerd daemon from the checkout first:
//
//	bash fwbench/run.sh --workload tt-fig5 --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"wall_mhops_per_s", "Mhops/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p75_s", "s"},
	{"first_frame_p50_s", "s"},
	{"recover_s", "s"},
}

// jobTailPercentile is the percentile job_p75_s reports; see tailPercentile.
const jobTailPercentile = 75

var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"core.build_s", "s"},
	{"core.run_s", "s"},
	{"core.events", "count"},
	{"core.ns_per_event", "ns"},
	{"alloc.bytes_per_hop", "B"},
	{"alloc.objs_per_hop", "count"},
	{"cpu.sim_frac", "ratio"},
	{"cpu.flash_frac", "ratio"},
	{"cpu.bloom_frac", "ratio"},
	{"cpu.walk_frac", "ratio"},
	{"cpu.core_frac", "ratio"},
	{"cpu.dram_frac", "ratio"},
	{"cpu.partition_frac", "ratio"},
	{"cpu.graph_frac", "ratio"},
	{"cpu.gc_frac", "ratio"},
	{"cpu.copy_frac", "ratio"},
	{"model.sim_us", "us"},
	{"model.hops", "count"},
	{"model.qcache_hit_ratio", "ratio"},
	{"model.filter_probes", "count"},
	{"model.flash_read_pages", "count"},
	{"model.fabric_walks", "count"},
	{"model.partition_switches", "count"},
	{"http.submit_p50_s", "s"},
	{"http.get_p50_s", "s"},
	{"stream.live_recs_per_s", "1/s"},
	{"stream.replay_recs_per_s", "1/s"},
	{"daemon.cpu_s_per_job", "s"},
	{"blob.put.n", "count"},
	{"blob.put.bytes", "B"},
	{"blob.put_s", "s"},
	{"blob.append.n", "count"},
	{"blob.append.bytes", "B"},
	{"blob.append_s", "s"},
	{"blob.get.n", "count"},
	{"blob.get.bytes", "B"},
	{"blob.get_s", "s"},
	{"blob.delete.n", "count"},
	{"blob.list.n", "count"},
	{"blob.snap_puts_per_job", "count"},
	{"blob.snap_bytes_per_job", "B"},
	{"blob.spool_bytes_per_job", "B"},
	{"blob.journal_puts_per_job", "count"},
	{"snapshot.full_bytes", "B"},
	{"snapshot.delta_bytes", "B"},
	{"snapshot.decode_s", "s"},
	{"core.apply_delta_s", "s"},
	{"core.resume_s", "s"},
	{"recover.ready_s", "s"},
	{"trace.wall_mhops_per_s", "Mhops/s"},
	{"trace.jobs_per_s", "1/s"},
}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	daemon   string // flashwalkerd binary, for svc-durable
	outDir   string // where traced runs leave spans and profiles
}

// report collects one run's outcome. Every operation the workload tries
// counts in attempted; a failed operation or a failed output check counts
// in failed, with its reason kept for standard error.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: tt-fig5, mb-array-n2v or svc-durable")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "flashwalkerd binary (svc-durable)")
	flag.StringVar(&o.outDir, "out", ".bench_build/fwbench", "directory for traced runs' spans and profiles")
	flag.Parse()
	o.traced = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fwbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	ctx := context.Background()
	tr := newTracer()
	rep := newReport()
	var err error
	switch o.workload {
	case "svc-durable":
		err = runService(ctx, o, tr, rep)
	default:
		w, ok := simWorkloads[o.workload]
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		err = runSim(ctx, w, o, tr, rep)
	}
	if err != nil {
		return err
	}
	if err := tr.write(outBase(o) + ".spans.json"); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return printResult(os.Stdout, o, rep)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line: every end-to-end metric, or with
// tracing every per-layer metric. An end-to-end metric that came out 0
// means a phase measured nothing, which fails the run.
func printResult(f *os.File, o options, rep *report) error {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		v := rep.values[d.name]
		if !o.traced && v == 0 {
			rep.op(fmt.Errorf("end-to-end metric %s measured nothing", d.name))
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	problems := append([]string(nil), rep.problems...)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "fwbench: FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// outBase is the path prefix of the files a run leaves in o.outDir.
func outBase(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.traced))
}

// since is the seconds from t to now.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
