package harness

import (
	"context"
	"fmt"
	"strings"

	"flashwalker/internal/core"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
)

// scaleWalks applies the run-scale multiplier with a floor of 100 walks.
func scaleWalks(n int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	v := int(float64(n) * scale)
	if v < 100 {
		v = 100
	}
	return v
}

// walkSweep returns the scaled analogue of Figure 5's walk-count sweep for
// a dataset (the paper sweeps up to 4x10^8, 10^9 for ClueWeb).
func walkSweep(d Dataset, scale float64) []int {
	base := []int{d.DefaultWalks / 100, d.DefaultWalks / 10, d.DefaultWalks / 2, d.DefaultWalks}
	out := make([]int, len(base))
	for i, n := range base {
		out[i] = scaleWalks(n, scale)
	}
	return out
}

// ---------------------------------------------------------------- Figure 1

// Fig1Row is one bar of Figure 1: GraphWalker's time-cost breakdown on the
// ClueWeb analogue at one walk count.
type Fig1Row struct {
	Walks     int
	Total     sim.Time
	LoadGraph float64 // fraction of component time
	Update    float64
	WalkIO    float64
}

// Fig1 reproduces Figure 1: GraphWalker's execution time on CW is
// dominated by loading graph structure from the SSD. Grid points run on
// workers goroutines (Workers semantics).
func Fig1(ctx context.Context, scale float64, seed uint64, workers int) ([]Fig1Row, error) {
	d, err := DatasetByName("CW-S")
	if err != nil {
		return nil, err
	}
	grid := walkSweep(d, scale)
	rows := make([]Fig1Row, len(grid))
	err = sweep(ctx, workers, len(grid), func(i int) error {
		walks := grid[i]
		res, err := RunGraphWalker(ctx, d, GWMem8GB, walks, seed)
		if err != nil {
			return err
		}
		b := res.Breakdown
		rows[i] = Fig1Row{
			Walks:     walks,
			Total:     res.Time,
			LoadGraph: b.Fraction("load graph"),
			Update:    b.Fraction("update walks"),
			WalkIO:    b.Fraction("walk I/O"),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig1 renders Figure 1 rows as a text table.
func FormatFig1(rows []Fig1Row) string {
	t := &metrics.Table{
		Title:   "Fig 1: GraphWalker time cost breakdown on ClueWeb (scaled analogue)",
		Headers: []string{"walks", "total", "load graph", "update walks", "walk I/O"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Walks), r.Total.String(),
			fmt.Sprintf("%.1f%%", 100*r.LoadGraph),
			fmt.Sprintf("%.1f%%", 100*r.Update),
			fmt.Sprintf("%.1f%%", 100*r.WalkIO))
	}
	return t.Render()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Row is one bar of Figure 5: FlashWalker's speedup over GraphWalker
// at one (dataset, walk count) point.
type Fig5Row struct {
	Dataset string
	Walks   int
	FWTime  sim.Time
	GWTime  sim.Time
	Speedup float64
}

// Fig5 reproduces Figure 5: FlashWalker speedup over GraphWalker across
// datasets and walk counts. The (dataset, walks) grid is flattened in the
// paper's order and swept on workers goroutines.
func Fig5(ctx context.Context, scale float64, seed uint64, workers int) ([]Fig5Row, error) {
	type point struct {
		d     Dataset
		walks int
	}
	var grid []point
	for _, d := range Datasets() {
		for _, walks := range walkSweep(d, scale) {
			grid = append(grid, point{d, walks})
		}
	}
	rows := make([]Fig5Row, len(grid))
	err := sweep(ctx, workers, len(grid), func(i int) error {
		d, walks := grid[i].d, grid[i].walks
		fw, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, 0)
		if err != nil {
			return fmt.Errorf("fig5 %s/%d flashwalker: %w", d.Name, walks, err)
		}
		gw, err := RunGraphWalker(ctx, d, GWMem8GB, walks, seed)
		if err != nil {
			return fmt.Errorf("fig5 %s/%d graphwalker: %w", d.Name, walks, err)
		}
		rows[i] = Fig5Row{
			Dataset: d.Name, Walks: walks,
			FWTime: fw.Time, GWTime: gw.Time,
			Speedup: float64(gw.Time) / float64(fw.Time),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig5Summary reports the min, geometric-mean-free average and max speedup
// (the paper quotes 4.79x to 660.50x, 51.56x average).
func Fig5Summary(rows []Fig5Row) (min, avg, max float64) {
	if len(rows) == 0 {
		return 0, 0, 0
	}
	min, max = rows[0].Speedup, rows[0].Speedup
	var sum float64
	for _, r := range rows {
		if r.Speedup < min {
			min = r.Speedup
		}
		if r.Speedup > max {
			max = r.Speedup
		}
		sum += r.Speedup
	}
	return min, sum / float64(len(rows)), max
}

// FormatFig5 renders Figure 5 rows.
func FormatFig5(rows []Fig5Row) string {
	t := &metrics.Table{
		Title:   "Fig 5: FlashWalker speedup over GraphWalker vs number of walks",
		Headers: []string{"dataset", "walks", "FlashWalker", "GraphWalker", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks), r.FWTime.String(), r.GWTime.String(),
			fmt.Sprintf("%.2fx", r.Speedup))
	}
	min, avg, max := Fig5Summary(rows)
	return t.Render() + fmt.Sprintf("speedup min %.2fx / avg %.2fx / max %.2fx (paper: 4.79x / 51.56x / 660.50x)\n", min, avg, max)
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one dataset of Figure 6: flash read-traffic reduction and
// achieved flash bandwidth improvement over GraphWalker.
type Fig6Row struct {
	Dataset          string
	Walks            int
	FWReadBytes      int64
	GWReadBytes      int64
	TrafficReduction float64 // GW bytes / FW bytes; < 1 means FW reads more
	FWBandwidth      float64 // bytes/s
	GWBandwidth      float64
	BandwidthGain    float64
}

// Fig6 reproduces Figure 6 at the paper's fixed walk counts, one dataset
// per grid point.
func Fig6(ctx context.Context, scale float64, seed uint64, workers int) ([]Fig6Row, error) {
	ds := Datasets()
	rows := make([]Fig6Row, len(ds))
	err := sweep(ctx, workers, len(ds), func(i int) error {
		d := ds[i]
		walks := scaleWalks(d.DefaultWalks, scale)
		fw, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, 0)
		if err != nil {
			return err
		}
		gw, err := RunGraphWalker(ctx, d, GWMem8GB, walks, seed)
		if err != nil {
			return err
		}
		fwBW := float64(fw.Flash.ReadBytes) / fw.Time.Seconds()
		gwBW := float64(gw.Flash.ReadBytes) / gw.Time.Seconds()
		rows[i] = Fig6Row{
			Dataset: d.Name, Walks: walks,
			FWReadBytes:      fw.Flash.ReadBytes,
			GWReadBytes:      gw.Flash.ReadBytes,
			TrafficReduction: float64(gw.Flash.ReadBytes) / float64(fw.Flash.ReadBytes),
			FWBandwidth:      fwBW,
			GWBandwidth:      gwBW,
			BandwidthGain:    fwBW / gwBW,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig6 renders Figure 6 rows.
func FormatFig6(rows []Fig6Row) string {
	t := &metrics.Table{
		Title:   "Fig 6: flash read traffic reduction and bandwidth improvement",
		Headers: []string{"dataset", "walks", "FW read", "GW read", "traffic red.", "FW BW", "GW BW", "BW gain"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks),
			metrics.FormatBytes(r.FWReadBytes), metrics.FormatBytes(r.GWReadBytes),
			fmt.Sprintf("%.2fx", r.TrafficReduction),
			metrics.FormatRate(r.FWBandwidth), metrics.FormatRate(r.GWBandwidth),
			fmt.Sprintf("%.2fx", r.BandwidthGain))
	}
	return t.Render()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is one bar of Figure 7: speedup at one GraphWalker memory size.
type Fig7Row struct {
	Dataset  string
	MemLabel string
	MemBytes int64
	Speedup  float64
}

// Fig7 reproduces Figure 7: FlashWalker speedup versus GraphWalker with
// 4/8/16 GB (scaled) host memory; the FlashWalker configuration is fixed.
// Each grid point is one dataset (the fixed FlashWalker run is shared by
// its three memory points), so rows land at i*3+j.
func Fig7(ctx context.Context, scale float64, seed uint64, workers int) ([]Fig7Row, error) {
	mems := []struct {
		label string
		bytes int64
	}{
		{"4GB", GWMem4GB}, {"8GB", GWMem8GB}, {"16GB", GWMem16GB},
	}
	ds := Datasets()
	rows := make([]Fig7Row, len(ds)*len(mems))
	err := sweep(ctx, workers, len(ds), func(i int) error {
		d := ds[i]
		walks := scaleWalks(d.DefaultWalks, scale)
		fw, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, 0)
		if err != nil {
			return err
		}
		for j, m := range mems {
			gw, err := RunGraphWalker(ctx, d, m.bytes, walks, seed)
			if err != nil {
				return err
			}
			rows[i*len(mems)+j] = Fig7Row{
				Dataset: d.Name, MemLabel: m.label, MemBytes: m.bytes,
				Speedup: float64(gw.Time) / float64(fw.Time),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig7 renders Figure 7 rows.
func FormatFig7(rows []Fig7Row) string {
	t := &metrics.Table{
		Title:   "Fig 7: speedup over GraphWalker with varied DRAM capacities (scaled 4/8/16GB)",
		Headers: []string{"dataset", "GW memory", "speedup"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, r.MemLabel, fmt.Sprintf("%.2fx", r.Speedup))
	}
	return t.Render()
}

// ---------------------------------------------------------------- Figure 8

// Fig8Series is the resource-consumption time series of one dataset.
type Fig8Series struct {
	Dataset  string
	Walks    int
	Bin      sim.Time
	Total    sim.Time
	ReadBW   []float64 // bytes/s per bin
	WriteBW  []float64
	ChanBW   []float64
	Progress []float64 // cumulative fraction of walks finished
}

// Fig8 reproduces Figure 8: per-interval flash read/write bandwidth,
// channel bandwidth, and walk-completion progression. It takes no worker
// count: its second run derives the bin width from the first run's
// measured time, so the two runs are inherently sequential.
func Fig8(ctx context.Context, datasetName string, scale float64, seed uint64) (*Fig8Series, error) {
	d, err := DatasetByName(datasetName)
	if err != nil {
		return nil, err
	}
	walks := scaleWalks(d.DefaultWalks, scale)
	res, err := RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, 0)
	if err != nil {
		return nil, err
	}
	// Re-run with a bin width that yields ~40 bins of the measured time.
	bin := res.Time / 40
	if bin < sim.Microsecond {
		bin = sim.Microsecond
	}
	res, err = RunFlashWalker(ctx, d, core.AllOptions(), walks, 1, seed, bin)
	if err != nil {
		return nil, err
	}
	n := res.ProgressTS.NumBins()
	s := &Fig8Series{Dataset: d.Name, Walks: walks, Bin: bin, Total: res.Time}
	var done float64
	total := float64(res.WalksFinished())
	for i := 0; i < n; i++ {
		s.ReadBW = append(s.ReadBW, res.ReadTS.Rate(i))
		s.WriteBW = append(s.WriteBW, res.WriteTS.Rate(i))
		s.ChanBW = append(s.ChanBW, res.ChannelTS.Rate(i))
		done += res.ProgressTS.Value(i)
		s.Progress = append(s.Progress, done/total)
	}
	return s, nil
}

// StragglerTail reports the fraction of total time spent finishing the
// last (1-threshold) of walks — Figure 8d's observation that ClueWeb
// spends most of its time on the final 10% of walks.
func (s *Fig8Series) StragglerTail(threshold float64) float64 {
	for i, p := range s.Progress {
		if p >= threshold {
			return 1 - float64(i+1)/float64(len(s.Progress))
		}
	}
	return 0
}

// FormatFig8 renders the series as a text table.
func FormatFig8(s *Fig8Series) string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Fig 8: resource consumption on %s (%d walks, %v bins, total %v)",
			s.Dataset, s.Walks, s.Bin, s.Total),
		Headers: []string{"t", "read BW", "write BW", "channel BW", "progress"},
	}
	for i := range s.ReadBW {
		t.AddRow(
			(sim.Time(i) * s.Bin).String(),
			metrics.FormatRate(s.ReadBW[i]),
			metrics.FormatRate(s.WriteBW[i]),
			metrics.FormatRate(s.ChanBW[i]),
			fmt.Sprintf("%.1f%%", 100*s.Progress[i]))
	}
	return t.Render()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Row is one dataset's ablation series: speedups of the incremental
// optimization sets over the no-optimization baseline.
type Fig9Row struct {
	Dataset  string
	Walks    int
	BaseTime sim.Time
	WQ       float64 // +WQ speedup over base
	WQHS     float64 // +WQ+HS
	WQHSSS   float64 // +WQ+HS+SS
}

// Fig9 reproduces Figure 9: optimizations enabled incrementally, each
// applied on top of the previous ones (§IV-E; SS runs with α=0.4). The
// (dataset, option-set) grid is fully flattened — all 4 ablation runs of a
// dataset are independent simulations, so they sweep as separate points
// and the rows are assembled afterwards.
func Fig9(ctx context.Context, scale float64, seed uint64, workers int) ([]Fig9Row, error) {
	sets := []core.Options{
		{},
		{WalkQuery: true},
		{WalkQuery: true, HotSubgraphs: true},
		{WalkQuery: true, HotSubgraphs: true, SmartSchedule: true},
	}
	ds := Datasets()
	times := make([]sim.Time, len(ds)*len(sets))
	err := sweep(ctx, workers, len(times), func(i int) error {
		d := ds[i/len(sets)]
		set := i % len(sets)
		walks := scaleWalks(d.DefaultWalks/2, scale)
		res, err := RunFlashWalker(ctx, d, sets[set], walks, 1, seed, 0)
		if err != nil {
			return fmt.Errorf("fig9 %s set %d: %w", d.Name, set, err)
		}
		times[i] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(ds))
	for i, d := range ds {
		t := times[i*len(sets) : (i+1)*len(sets)]
		rows[i] = Fig9Row{
			Dataset: d.Name, Walks: scaleWalks(d.DefaultWalks/2, scale), BaseTime: t[0],
			WQ:     float64(t[0]) / float64(t[1]),
			WQHS:   float64(t[0]) / float64(t[2]),
			WQHSSS: float64(t[0]) / float64(t[3]),
		}
	}
	return rows, nil
}

// FormatFig9 renders Figure 9 rows.
func FormatFig9(rows []Fig9Row) string {
	t := &metrics.Table{
		Title:   "Fig 9: FlashWalker speedup under incrementally enabled optimizations",
		Headers: []string{"dataset", "walks", "baseline", "+WQ", "+WQ+HS", "+WQ+HS+SS"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks), r.BaseTime.String(),
			fmt.Sprintf("%.3fx", r.WQ), fmt.Sprintf("%.3fx", r.WQHS), fmt.Sprintf("%.3fx", r.WQHSSS))
	}
	return t.Render()
}

// sparkline renders a tiny ASCII intensity strip for a series (handy for
// eyeballing Figure 8 output in a terminal).
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	glyphs := []rune(" .:-=+*#%@")
	max := vals[0]
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max <= 0 {
		return strings.Repeat(" ", len(vals))
	}
	var sb strings.Builder
	for _, v := range vals {
		i := int(v / max * float64(len(glyphs)-1))
		sb.WriteRune(glyphs[i])
	}
	return sb.String()
}

// Sparklines summarizes a Fig8Series as four labelled ASCII strips.
func (s *Fig8Series) Sparklines() string {
	return fmt.Sprintf("read    |%s|\nwrite   |%s|\nchannel |%s|\nprogress|%s|\n",
		sparkline(s.ReadBW), sparkline(s.WriteBW), sparkline(s.ChanBW), sparkline(s.Progress))
}
