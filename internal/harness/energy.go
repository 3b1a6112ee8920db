package harness

import (
	"context"
	"fmt"

	"flashwalker/internal/core"
	"flashwalker/internal/metrics"
)

// EnergyRow compares the estimated energy of one workload on both systems
// — an extension experiment quantifying the paper's §I claim that
// host-based random walks carry "high memory cost and energy consumption".
type EnergyRow struct {
	Dataset string
	Walks   int
	FWJ     float64
	GWJ     float64
	Ratio   float64 // GW / FW
	FWBreak core.Energy
	GWBreak core.Energy
}

// ExtEnergy runs both engines on every dataset at the default walk counts
// and converts their traffic counters into joule estimates. One dataset
// per grid point, swept on workers goroutines.
func ExtEnergy(ctx context.Context, scale float64, seed uint64, workers int) ([]EnergyRow, error) {
	ec := core.DefaultEnergy()
	ds := Datasets()
	rows := make([]EnergyRow, len(ds))
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
		fwE := core.FlashWalkerEnergy(ec, fw)
		gwE := core.GraphWalkerEnergy(ec, core.GraphWalkerEnergyInput{
			Time:          gw.Time,
			CPUBusy:       gw.Breakdown.Get("update walks"),
			ReadPages:     gw.Flash.ReadPages,
			ProgramPages:  gw.Flash.ProgramPages,
			ErasedBlocks:  gw.Flash.ErasedBlocks,
			ChannelBytes:  gw.Flash.ChannelBytes,
			HostBytes:     gw.Flash.HostBytes,
			HostDRAMBytes: gw.BlockBytes + gw.WalkSpillBytes + gw.WalkLoadBytes,
		})
		rows[i] = EnergyRow{
			Dataset: d.Name, Walks: walks,
			FWJ: fwE.Total(), GWJ: gwE.Total(),
			Ratio:   gwE.Total() / fwE.Total(),
			FWBreak: fwE, GWBreak: gwE,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatExtEnergy renders the energy comparison.
func FormatExtEnergy(rows []EnergyRow) string {
	t := &metrics.Table{
		Title:   "Extension: estimated energy per workload (literature per-op estimates)",
		Headers: []string{"dataset", "walks", "FlashWalker", "GraphWalker", "GW/FW"},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, fmt.Sprint(r.Walks),
			fmt.Sprintf("%.4g J", r.FWJ), fmt.Sprintf("%.4g J", r.GWJ),
			fmt.Sprintf("%.1fx", r.Ratio))
	}
	return t.Render()
}
