package harness

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"flashwalker/internal/core"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
)

// BoardRow is one board count's outcome on the multi-board dataset — an
// extension experiment measuring how end-to-end time and hop rate scale
// with the array size while walk outcomes stay bit-identical.
type BoardRow struct {
	Boards        int
	Walks         int
	Time          sim.Time
	HopRate       float64 // hops per simulated second
	Speedup       float64 // single-board time / this time
	FabricWalks   uint64
	FabricBatches uint64
	FabricBytes   int64
}

// ExtBoardCounts is the board-count sweep of the array extension
// experiment.
var ExtBoardCounts = []int{1, 2, 4, 8}

// ExtBoards runs the multi-board dataset (MB-S) at each board count, one
// count per grid point on workers goroutines, and enforces the array's
// metamorphic guarantee in production form: if the board count changes any
// walk outcome, the sweep fails rather than reporting a corrupted scaling
// curve.
func ExtBoards(ctx context.Context, scale float64, seed uint64, workers int) ([]BoardRow, error) {
	d, err := DatasetByName("MB-S")
	if err != nil {
		return nil, err
	}
	walks := scaleWalks(d.DefaultWalks, scale)
	rows := make([]BoardRow, len(ExtBoardCounts))
	results := make([]*core.Result, len(ExtBoardCounts))
	err = sweep(ctx, workers, len(ExtBoardCounts), func(i int) error {
		nb := ExtBoardCounts[i]
		res, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, nb, seed, 0)
		if err != nil {
			return fmt.Errorf("boards=%d: %w", nb, err)
		}
		results[i] = res
		rows[i] = BoardRow{
			Boards: nb, Walks: walks,
			Time: res.Time, HopRate: res.HopRate(),
			FabricWalks:   res.FabricWalks,
			FabricBatches: res.FabricBatches,
			FabricBytes:   res.FabricBytes,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, res := range results {
		if res.Completed != base.Completed || res.Hops != base.Hops {
			return nil, fmt.Errorf("boards %d: outcomes diverged from single-board (completed %d vs %d, hops %d vs %d)",
				rows[i].Boards, res.Completed, base.Completed, res.Hops, base.Hops)
		}
		rows[i].Speedup = float64(base.Time) / float64(res.Time)
	}
	return rows, nil
}

// FormatExtBoards renders the board-scaling comparison.
func FormatExtBoards(rows []BoardRow) string {
	t := &metrics.Table{
		Title:   "Extension: multi-board SSD array scaling (MB-S), identical walk outcomes",
		Headers: []string{"boards", "walks", "time", "hops/s", "speedup", "fabric walks", "fabric bytes"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Boards), fmt.Sprint(r.Walks),
			r.Time.String(), fmt.Sprintf("%.2fM", r.HopRate/1e6),
			fmt.Sprintf("%.3fx", r.Speedup),
			fmt.Sprint(r.FabricWalks), metrics.FormatBytes(r.FabricBytes))
	}
	return t.Render()
}

// BoardsCSV writes the board-scaling rows as CSV.
func BoardsCSV(w io.Writer, rows []BoardRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			strconv.Itoa(r.Boards), strconv.Itoa(r.Walks),
			ns(r.Time), f(r.HopRate), f(r.Speedup),
			strconv.FormatUint(r.FabricWalks, 10),
			strconv.FormatUint(r.FabricBatches, 10),
			strconv.FormatInt(r.FabricBytes, 10),
		}
	}
	return writeCSV(w, []string{
		"boards", "walks", "time_ns", "hop_rate", "speedup",
		"fabric_walks", "fabric_batches", "fabric_bytes",
	}, out)
}
