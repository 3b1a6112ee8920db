package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"flashwalker/internal/core"
	"flashwalker/internal/fault"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
)

// FaultRow compares one dataset's clean run against the identical workload
// under the default fault profile — an extension experiment measuring how
// much wall-clock the retry/degradation machinery costs while the walk
// outcomes stay bit-identical.
type FaultRow struct {
	Dataset    string
	Walks      int
	CleanTime  sim.Time
	FaultyTime sim.Time
	Slowdown   float64 // faulty / clean
	Faults     fault.Counters
	Reroutes   uint64 // walks rerouted off degraded chips
	Failover   uint64 // blocks failed over into channel hot sets
}

// ExtFaults runs every dataset clean and under fault.Default(), one dataset
// per grid point on workers goroutines. It also enforces the metamorphic
// guarantee in production form: if faults change any walk outcome, the
// sweep fails rather than reporting a corrupted comparison.
func ExtFaults(ctx context.Context, scale float64, seed uint64, workers int) ([]FaultRow, error) {
	fc := fault.Default()
	ds := Datasets()
	rows := make([]FaultRow, len(ds))
	err := sweep(ctx, workers, len(ds), func(i int) error {
		d := ds[i]
		walks := scaleWalks(d.DefaultWalks, scale)
		clean, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, 0)
		if err != nil {
			return err
		}
		faulty, err := RunFlashWalkerFaults(ctx, d, core.AllOptions(), walks, seed, fc)
		if err != nil {
			return err
		}
		if clean.Completed != faulty.Completed || clean.Hops != faulty.Hops {
			return fmt.Errorf("faults %s: outcomes diverged (clean completed=%d hops=%d, faulty completed=%d hops=%d)",
				d.Name, clean.Completed, clean.Hops, faulty.Completed, faulty.Hops)
		}
		rows[i] = FaultRow{
			Dataset: d.Name, Walks: walks,
			CleanTime: clean.Time, FaultyTime: faulty.Time,
			Slowdown: float64(faulty.Time) / float64(clean.Time),
			Faults:   faulty.Faults,
			Reroutes: faulty.FaultReroutes,
			Failover: faulty.FailoverBlocks,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatExtFaults renders the fault-injection comparison.
func FormatExtFaults(rows []FaultRow) string {
	t := &metrics.Table{
		Title:   "Extension: fault injection (default profile) vs clean run, identical walk outcomes",
		Headers: []string{"dataset", "walks", "clean", "faulty", "slowdown", "errors", "retries", "stalls", "degraded", "reroutes"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks),
			r.CleanTime.String(), r.FaultyTime.String(),
			fmt.Sprintf("%.3fx", r.Slowdown),
			fmt.Sprint(r.Faults.ReadErrors), fmt.Sprint(r.Faults.Retries),
			fmt.Sprint(r.Faults.PlaneBusyStalls), fmt.Sprint(r.Faults.DegradedChips),
			fmt.Sprint(r.Reroutes))
	}
	return t.Render()
}

// FaultsCSV writes the fault-extension rows as CSV.
func FaultsCSV(w io.Writer, rows []FaultRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Dataset, strconv.Itoa(r.Walks),
			ns(r.CleanTime), ns(r.FaultyTime), f(r.Slowdown),
			strconv.FormatUint(r.Faults.ReadErrors, 10),
			strconv.FormatUint(r.Faults.Retries, 10),
			strconv.FormatUint(r.Faults.RetriesExhausted, 10),
			strconv.FormatUint(r.Faults.PlaneBusyStalls, 10),
			ns(r.Faults.StallTime), ns(r.Faults.BackoffTime),
			strconv.FormatUint(r.Faults.DegradedChips, 10),
			strconv.FormatUint(r.Reroutes, 10),
			strconv.FormatUint(r.Failover, 10),
		}
	}
	return writeCSV(w, []string{
		"dataset", "walks", "clean_ns", "faulty_ns", "slowdown",
		"read_errors", "retries", "retries_exhausted",
		"plane_busy_stalls", "stall_ns", "backoff_ns",
		"degraded_chips", "reroutes", "failover_blocks",
	}, out)
}
