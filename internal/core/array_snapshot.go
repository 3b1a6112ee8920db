package core

import (
	"context"
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/sim"
)

// Array checkpoint/restore. The fleet shares ONE event kernel, so an
// ArraySnapshot holds one sim.EngineState plus a per-board body Snapshot
// (walk stores, device bookings, pooled records — everything except the
// kernel) and the fabric's own state: per-link queue bookings, the batched
// egress buffers, and the pooled in-flight transfer records the pending
// evFabricArrive events reference by index.
//
// Event-target IDs for the fleet-wide export: the array itself is 0 (its
// fabric arrivals and kill events are typed events targeting the Array),
// and board b's engine and SSD are 1+2b and 2+2b. The engine-kind mapping
// (engine=0, SSD=1) is separate (snapshot.go).

// arrayTargetArray is the Array's own event-target ID.
const arrayTargetArray int32 = 0

func arrayTargetEngine(b int) int32 { return int32(1 + 2*b) }
func arrayTargetSSD(b int) int32    { return int32(2 + 2*b) }

// FabricWalkState is one in-flight fabric walk in serializable form.
type FabricWalkState struct {
	St WalkState
	P  int32
}

// EgressState is one (source, destination) egress batch being accumulated.
type EgressState struct {
	Walks []FabricWalkState
	Bytes int64
}

// FabricBatchState is one pooled fabric transfer record (live or free).
type FabricBatchState struct {
	Walks []FabricWalkState
	Dst   int32
	Free  int32
}

// ArraySnapshot is the complete serializable state of a paused Array.
type ArraySnapshot struct {
	// Identity. Per-board identity (Cfg, device configs, spec, graph
	// counts) lives in each board Snapshot; every board carries the same
	// values, and ResumeArray rebuilds the fleet from Boards[0].
	NumBoards int

	// The shared event kernel, exported once with the fleet-wide mapping.
	Sim sim.EngineState

	// Per-board state; the Sim field of each entry is unused (zero).
	Boards []*Snapshot

	// Shard ownership and device liveness.
	Owners []int32
	Dead   []bool

	// Fabric state.
	FabricQ   []sim.QueueState
	Egress    [][]EgressState
	FBatches  []FabricBatchState
	FreeFB    int32
	InFabric  int
	Remaining int
	Started   int

	RootRNG [4]uint64

	FabricWalks   uint64
	FabricBatches uint64
	FabricBytes   int64
	Evacuated     uint64
	Kills         uint64
}

func (s *walkStore) fwOut(ws []fabricWalk) []FabricWalkState {
	if ws == nil {
		return nil
	}
	out := make([]FabricWalkState, len(ws))
	for i := range ws {
		out[i] = FabricWalkState{St: wsOut(&s.w[ws[i].id]), P: ws[i].p}
	}
	return out
}

func (s *walkStore) fwIn(ws []FabricWalkState) []fabricWalk {
	if len(ws) == 0 {
		return nil
	}
	out := make([]fabricWalk, len(ws))
	for i := range ws {
		out[i] = fabricWalk{id: s.load(ws[i].St), p: ws[i].P}
	}
	return out
}

// Snapshot captures the array's complete state; the same restrictions as
// Engine.Snapshot apply (strictly between events, no pending setup
// closures, no tracers or time series, not after a failure).
func (a *Array) Snapshot() (*ArraySnapshot, error) {
	return a.buildSnapshot()
}

func (a *Array) buildSnapshot() (*ArraySnapshot, error) {
	if a.failure != nil {
		return nil, fmt.Errorf("core: cannot snapshot a failed run: %w", a.failure)
	}
	targetID := func(h sim.Handler) (int32, error) {
		if h == sim.Handler(a) {
			return arrayTargetArray, nil
		}
		for b, e := range a.boards {
			switch h {
			case sim.Handler(e):
				return arrayTargetEngine(b), nil
			case sim.Handler(e.ssd):
				return arrayTargetSSD(b), nil
			}
		}
		return 0, fmt.Errorf("unknown event target %T", h)
	}
	s := &ArraySnapshot{
		NumBoards: len(a.boards),
		Owners:    a.shard.Owners(),
		Dead:      append([]bool(nil), a.dead...),
		FreeFB:    a.freeFB,
		InFabric:  a.inFabric,
		Remaining: a.remaining,
		Started:   a.numStarted,
		RootRNG:   a.rootRNG.State(),

		FabricWalks:   a.fabricWalks,
		FabricBatches: a.fabricBatchCnt,
		FabricBytes:   a.fabricBytes,
		Evacuated:     a.evacuated,
		Kills:         a.kills,
	}
	for b, e := range a.boards {
		body, err := e.buildSnapshotBody(targetID)
		if err != nil {
			return nil, fmt.Errorf("core: snapshot board %d: %w", b, err)
		}
		s.Boards = append(s.Boards, body)
		s.FabricQ = append(s.FabricQ, a.fabric[b].State())
		row := make([]EgressState, len(a.egress[b]))
		for dst := range a.egress[b] {
			row[dst] = EgressState{Walks: a.store.fwOut(a.egress[b][dst].walks), Bytes: a.egress[b][dst].bytes}
		}
		s.Egress = append(s.Egress, row)
	}
	s.FBatches = make([]FabricBatchState, len(a.fbatches))
	for i := range a.fbatches {
		s.FBatches[i] = FabricBatchState{
			Walks: a.store.fwOut(a.fbatches[i].walks), Dst: a.fbatches[i].dst, Free: a.fbatches[i].free,
		}
	}
	// The kernel export goes last: it fails while setup closures (the
	// per-board hot-subgraph preloads) are still pending, which is also the
	// signal the checkpoint hook uses to retry later.
	simState, err := a.eng.ExportState(targetID)
	if err != nil {
		return nil, err
	}
	s.Sim = simState
	return s, nil
}

// ResumeArray rebuilds an array from a snapshot over the same graph. Like
// ResumeEngine, the resumed fleet continues the interrupted run exactly —
// same clock, same pending events (fabric transfers included), same RNG
// positions — so its final Result is bit-identical to the uninterrupted
// run.
func ResumeArray(g *graph.Graph, snap *ArraySnapshot, opts ArrayResumeOptions) (*Array, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot: %w", errs.ErrInvalidConfig)
	}
	if snap.NumBoards < 1 || len(snap.Boards) != snap.NumBoards {
		return nil, fmt.Errorf("core: snapshot has %d board bodies for %d boards: %w",
			len(snap.Boards), snap.NumBoards, errs.ErrInvalidConfig)
	}
	a, err := resumeSkeleton(g, snap.Boards[0], RunConfig{
		OnProgress: opts.OnProgress, CheckpointEvery: opts.CheckpointEvery,
		OnWalks: opts.OnWalks, EmitEvery: opts.EmitEvery,
	})
	if err != nil {
		return nil, err
	}
	a.SetSnapshotHook(opts.OnSnapshot, opts.SnapshotEvery)
	if err := a.restore(snap); err != nil {
		return nil, err
	}
	return a, nil
}

// ArrayResumeOptions parameterizes a resumed array run.
type ArrayResumeOptions struct {
	OnProgress      func(Progress)
	OnSnapshot      func(*ArraySnapshot)
	SnapshotEvery   uint64
	CheckpointEvery uint64
	// OnWalks / EmitEvery re-attach the completed-walk export; the resumed
	// fleet continues the finish-order numbering from the snapshot's
	// restored per-board finished counts.
	OnWalks   func([]WalkDone)
	EmitEvery uint64
}

// ResumeArrayContext is ResumeArray followed by RunContext.
func ResumeArrayContext(ctx context.Context, g *graph.Graph, snap *ArraySnapshot, opts ArrayResumeOptions) (*Result, error) {
	a, err := ResumeArray(g, snap, opts)
	if err != nil {
		return nil, err
	}
	return a.RunContext(ctx)
}

// restore overlays the snapshot's state onto a freshly built skeleton.
func (a *Array) restore(snap *ArraySnapshot) error {
	nb := len(a.boards)
	switch {
	case snap.NumBoards != nb:
		return fmt.Errorf("core: resume: snapshot has %d boards, config has %d", snap.NumBoards, nb)
	case len(snap.FabricQ) != nb, len(snap.Egress) != nb, len(snap.Dead) != nb:
		return fmt.Errorf("core: resume: snapshot fabric state sized for %d boards, config has %d", len(snap.FabricQ), nb)
	}
	target := func(id int32) (sim.Handler, error) {
		if id == arrayTargetArray {
			return a, nil
		}
		b := int(id-1) / 2
		if b < 0 || b >= nb {
			return nil, fmt.Errorf("unknown target id %d", id)
		}
		if (id-1)%2 == 0 {
			return a.boards[b], nil
		}
		return a.boards[b].ssd, nil
	}
	if err := a.restoreKernel(snap.Sim, target, snap.Boards[0].MutApplied); err != nil {
		return err
	}
	for b, e := range a.boards {
		if err := e.restoreBody(snap.Boards[b], target); err != nil {
			return fmt.Errorf("core: resume board %d: %w", b, err)
		}
		a.fabric[b].Restore(snap.FabricQ[b])
		if len(snap.Egress[b]) != nb {
			return fmt.Errorf("core: resume: egress row %d has %d entries, want %d", b, len(snap.Egress[b]), nb)
		}
		for dst := range a.egress[b] {
			a.egress[b][dst] = egressBuf{walks: a.store.fwIn(snap.Egress[b][dst].Walks), bytes: snap.Egress[b][dst].Bytes}
		}
	}
	if err := a.shard.SetOwners(snap.Owners); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	copy(a.dead, snap.Dead)
	a.fbatches = make([]fabricBatch, len(snap.FBatches))
	for i, fb := range snap.FBatches {
		a.fbatches[i] = fabricBatch{walks: a.store.fwIn(fb.Walks), dst: fb.Dst, free: fb.Free}
	}
	a.freeFB = snap.FreeFB
	a.inFabric = snap.InFabric
	a.remaining = snap.Remaining
	a.numStarted = snap.Started
	a.rootRNG.SetState(snap.RootRNG)
	a.fabricWalks = snap.FabricWalks
	a.fabricBatchCnt = snap.FabricBatches
	a.fabricBytes = snap.FabricBytes
	a.evacuated = snap.Evacuated
	a.kills = snap.Kills
	a.resumed()
	return nil
}

// restoreKernel imports the shared event kernel — pending events reference
// node/batch/op records by index, so the board pools restored after it
// must land in the exact same layout — and replays the mutations the
// snapshotted run had applied beyond the construction-time prefix.
// Incremental apply is rebuild-equivalent, so the graph and every derived
// index land in the exact state the snapshot saw; the per-board
// attribution the replay produces is overwritten by the result overlays.
func (a *Array) restoreKernel(st sim.EngineState, target func(int32) (sim.Handler, error), applied int) error {
	if err := a.eng.ImportState(st, target); err != nil {
		return err
	}
	if applied < a.mutCursor || applied > len(a.muts) {
		return fmt.Errorf("core: resume: snapshot applied %d of %d mutations (prefix %d)",
			applied, len(a.muts), a.mutCursor)
	}
	for a.mutCursor < applied {
		if err := a.applyMutation(a.muts[a.mutCursor]); err != nil {
			return fmt.Errorf("core: resume: replay mutation %d: %w", a.mutCursor, err)
		}
		a.mutCursor++
	}
	return nil
}

// resumed finishes a restore. The launch work already happened in the
// original run; its events — a scheduled board kill included — are in the
// restored heap. The snapshot cadence restarts from the restored clock, and
// the fleet-wide finish sequence continues from the boards' finished
// counts: the export flushed every record below that total before the
// snapshot was delivered.
func (a *Array) resumed() {
	a.launched = true
	a.lastSnap = a.eng.Processed()
	a.finSeq = 0
	for _, e := range a.boards {
		a.finSeq += uint64(e.res.Completed + e.res.DeadEnded)
	}
}
