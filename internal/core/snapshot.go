package core

import (
	"context"
	"fmt"

	"flashwalker/internal/dram"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// This file is the engine's durable checkpoint/restore layer. A Snapshot is
// a pure-data image of a paused single-board run taken strictly between
// simulated events: every walk (with its private RNG stream), every buffer
// and queue booking, the pooled node/batch/op records the pending events
// reference, the fault injector's stream position, and the event heap
// itself. The same struct, minus the heap, is one board's body inside an
// ArraySnapshot. ResumeEngine rebuilds a 1-board array from the snapshot's
// identity section (the original RunConfig inputs) and overlays the
// captured state;
// because the walk trajectories are timing-independent (per-walk RNG
// streams) AND the heap restore preserves exact (time, seq) event order,
// a resumed run's Result is bit-identical to the uninterrupted run — the
// invariant TestResumeMetamorphic proves against the golden digest.
//
// What is NOT captured: closures. Pending sim closure events (At/After) and
// flash ops with func() completions make the export fail; they only exist
// while the time-0 hot-subgraph preload drains, so checkpoint-driven
// snapshots simply skip until the steady (all typed events) state is
// reached. Progress time series and tracers are also not captured — attach
// neither when snapshotting.

// Event-target IDs for the engine-kind sim/flash export mapping. A
// single-board run's steady-state events target exactly two handlers: the
// board's jump table and its SSD's.
const (
	targetEngine int32 = 0
	targetSSD    int32 = 1
)

// WalkState is a wstate in serializable form. Each holder persists its
// walks' full states inline, in holder order, and a resume loads them into
// a fresh walk store: handles never reach the persisted format.
type WalkState struct {
	W          walk.Walk
	DenseBlock int
	DenseEdge  uint64
	RangeTag   int
	Prev       graph.VertexID
	RNG        [4]uint64
}

// NodeState is one pooled wnode (live or free-listed).
type NodeState struct {
	St       WalkState
	PrevSize int64
	Hot      int32
	Foreign  int32
	RangeID  int32
	Block    int32
	Steps    int32
	Terminal bool
	DeadEnd  bool
	Free     int32
}

// BatchState is one pooled in-flight roving batch record.
type BatchState struct {
	Walks []WalkState
	Free  int32
}

// SlotState is one chip subgraph slot.
type SlotState struct {
	Block     int
	Loading   bool
	Idle      bool
	Defers    int
	Pending   int
	LoadLeft  int
	LoadWalks []WalkState
}

// UnitPoolState is an updater/guider pool's bookings and accounting.
type UnitPoolState struct {
	Units []sim.QueueState
	Jobs  uint64
	Busy  sim.Time
}

// TierState is the state every accelerator tier shares.
type TierState struct {
	Updater    UnitPoolState
	Guider     UnitPoolState
	QueueBytes int64
	HotIDs     []int
	HotNil     bool
	HotReady   bool
}

// ChipState is one chip-level accelerator.
type ChipState struct {
	Tier           TierState
	Slots          []SlotState
	Roving         []WalkState
	RovingBytes    int64
	CompletedBytes int64
	MyBlocks       []int
}

// ChanState is one channel-level accelerator.
type ChanState struct {
	Tier     TierState
	Failover bool
}

// CacheState is one walk query cache's LRU contents (front = most recent).
type CacheState struct {
	Lows   []graph.VertexID
	Highs  []graph.VertexID
	Blocks []int
	Hits   uint64
	Misses uint64
}

// BoardState is the board-level accelerator.
type BoardState struct {
	Tier           TierState
	Ports          []sim.QueueState
	PortRR         int
	Caches         []CacheState
	CacheRR        int
	CompletedBytes int64
}

// Snapshot is the complete serializable state of a paused Engine.
type Snapshot struct {
	// Identity: the construction inputs. ResumeEngine rebuilds the engine
	// skeleton from these and validates the graph against the counts.
	Cfg              Config
	FlashCfg         flash.Config
	DRAMCfg          dram.Config
	PartCfg          partition.Config
	Spec             walk.Spec
	NumWalks         int
	MaxSimTime       sim.Time
	TrackVisits      bool
	Audit            bool
	UseAliasSampling bool
	// GraphVertices/GraphEdges are the INITIAL graph's counts (before any
	// mutations): a resumed run is handed the initial graph and replays
	// the stream's applied prefix itself.
	GraphVertices uint64
	GraphEdges    uint64
	// Mutations is the run's full mutation stream; MutApplied is how many
	// of them had been applied when the snapshot was taken. ResumeEngine
	// re-applies mutations [0, MutApplied) to the initial graph before
	// overlaying state, and the applier hook resumes from the cursor.
	Mutations  graph.MutationStream
	MutApplied int

	// Kernel and device state.
	Sim      sim.EngineState
	Flash    flash.State
	DRAM     dram.State
	Injector *fault.State

	RootRNG [4]uint64

	// Per-block walk stores and scheduler state.
	PWB       [][]WalkState
	PWBBytes  []int64
	FLS       [][]WalkState
	FLSPages  []int
	Score     []float64
	ScorePend []int

	// Per-partition pending walks and the foreigner buffer.
	PendingMem        [][]WalkState
	PendingFlash      [][]WalkState
	PendingFlashBytes []int64
	FlushMark         []int
	ForeignerBufBytes int64

	// Pooled records referenced by pending events.
	Nodes     []NodeState
	FreeNode  int32
	Batches   []BatchState
	FreeBatch int32

	// Flushed-foreigner read-back in flight.
	SwitchLeft  int
	SwitchWalks []WalkState

	CurPart   int
	ActiveCur int
	Remaining int
	Finished  bool

	FlushChipRR int

	Chips []ChipState
	Chans []ChanState
	Board BoardState

	Res Result
}

// --- Conversions. ---

func wsOut(st *wstate) WalkState {
	return WalkState{W: st.w, DenseBlock: st.denseBlock, DenseEdge: st.denseEdge,
		RangeTag: st.rangeTag, Prev: st.prev, RNG: st.rng.State()}
}

// load appends a persisted walk to the store and returns its handle.
func (s *walkStore) load(ws WalkState) walkID {
	st := wstate{w: ws.W, denseBlock: ws.DenseBlock, denseEdge: ws.DenseEdge,
		rangeTag: ws.RangeTag, prev: ws.Prev}
	st.rng.SetState(ws.RNG)
	s.w = append(s.w, st)
	return walkID(len(s.w) - 1)
}

// out exports the walks behind ids, in holder order.
func (s *walkStore) out(ids []walkID) []WalkState {
	if ids == nil {
		return nil
	}
	out := make([]WalkState, len(ids))
	for i, id := range ids {
		out[i] = wsOut(&s.w[id])
	}
	return out
}

// in imports a holder's walks into the store, returning their handles.
func (s *walkStore) in(ws []WalkState) []walkID {
	if len(ws) == 0 {
		return nil
	}
	out := make([]walkID, len(ws))
	for i := range ws {
		out[i] = s.load(ws[i])
	}
	return out
}

func poolOut(p *unitPool) UnitPoolState {
	st := UnitPoolState{Units: make([]sim.QueueState, len(p.units)), Jobs: p.jobs, Busy: p.busy}
	for i, u := range p.units {
		st.Units[i] = u.State()
	}
	return st
}

func poolIn(p *unitPool, st UnitPoolState, what string) error {
	if len(st.Units) != len(p.units) {
		return fmt.Errorf("core: resume: %s has %d units, snapshot has %d", what, len(p.units), len(st.Units))
	}
	for i, u := range p.units {
		u.Restore(st.Units[i])
	}
	p.jobs = st.Jobs
	p.busy = st.Busy
	return nil
}

func tierOut(t *tierCommon) TierState {
	return TierState{
		Updater:    poolOut(t.updater),
		Guider:     poolOut(t.guider),
		QueueBytes: t.queueBytes,
		HotIDs:     t.hot.ids(),
		HotNil:     t.hot == nil,
		HotReady:   t.hotReady,
	}
}

func tierIn(t *tierCommon, st TierState, what string) error {
	if err := poolIn(t.updater, st.Updater, what+" updater"); err != nil {
		return err
	}
	if err := poolIn(t.guider, st.Guider, what+" guider"); err != nil {
		return err
	}
	t.queueBytes = st.QueueBytes
	if st.HotNil {
		t.hot = nil
	} else {
		t.SetHotBlocks(st.HotIDs)
	}
	t.hotReady = st.HotReady
	return nil
}

// --- Export. ---

// Snapshot captures the engine's complete state. It is safe to call
// strictly between simulated events: from the RunConfig.OnSnapshot hook,
// before RunContext, or after a halted (canceled) RunContext. It fails
// while setup closures are still draining (the time-0 hot-subgraph
// preload), when a tracer or progress time series is attached, or after a
// simulation failure.
func (e *Engine) Snapshot() (*Snapshot, error) { return e.arr.engineSnapshot() }

// engineSnapshot cuts the engine-kind Snapshot of a 1-board run: board 0's
// body plus the kernel, exported with the engine=0/SSD=1 target mapping.
func (a *Array) engineSnapshot() (*Snapshot, error) {
	e := a.boards[0]
	targetID := func(h sim.Handler) (int32, error) {
		switch h {
		case sim.Handler(e):
			return targetEngine, nil
		case sim.Handler(e.ssd):
			return targetSSD, nil
		}
		return 0, fmt.Errorf("unknown event target %T", h)
	}
	s, err := e.buildSnapshotBody(targetID)
	if err != nil {
		return nil, err
	}
	if s.Sim, err = a.eng.ExportState(targetID); err != nil {
		return nil, err
	}
	return s, nil
}

// buildSnapshotBody captures everything except the event kernel, whose
// export the caller owns: the engine-kind snapshot exports it with the
// two-target mapping above, while the array-kind one exports it once for
// all boards with a fleet-wide mapping. targetID is also used for the
// flash export (typed op completions reference engine/SSD targets). The
// run-wide identity fields come from the array and are the same in every
// board's body.
func (e *Engine) buildSnapshotBody(targetID func(sim.Handler) (int32, error)) (*Snapshot, error) {
	a := e.arr
	if a.failure != nil {
		return nil, fmt.Errorf("core: cannot snapshot a failed run: %w", a.failure)
	}
	if e.tracer != nil {
		return nil, fmt.Errorf("core: cannot snapshot with a tracer attached")
	}
	if e.res.ProgressTS != nil || e.ssd.ReadTS != nil {
		return nil, fmt.Errorf("core: cannot snapshot with progress time series attached")
	}
	flashState, err := e.ssd.ExportState(targetID)
	if err != nil {
		return nil, err
	}

	s := &Snapshot{
		Cfg:              e.cfg,
		FlashCfg:         e.ssd.Cfg,
		DRAMCfg:          e.dr.Cfg,
		PartCfg:          e.part.Cfg,
		Spec:             e.spec,
		NumWalks:         e.res.Started,
		MaxSimTime:       a.maxSimTime,
		TrackVisits:      e.res.Visits != nil,
		Audit:            a.audit,
		UseAliasSampling: e.ix.alias != nil,
		GraphVertices:    a.initVertices,
		GraphEdges:       a.initEdges,
		Mutations:        a.muts,
		MutApplied:       a.mutCursor,

		Flash: flashState,
		DRAM:  e.dr.State(),

		RootRNG: a.rootRNG.State(),

		PWBBytes:  append([]int64(nil), e.pwbBytes...),
		FLSPages:  append([]int(nil), e.flsPages...),
		Score:     append([]float64(nil), e.score...),
		ScorePend: append([]int(nil), e.scorePend...),

		PendingFlashBytes: append([]int64(nil), e.pendingFlashBytes...),
		FlushMark:         append([]int(nil), e.flushMark...),
		ForeignerBufBytes: e.foreignerBufBytes,

		FreeNode:  e.freeNode,
		FreeBatch: e.freeBatch,

		SwitchLeft:  e.switchLeft,
		SwitchWalks: e.store.out(e.switchWalks),

		CurPart:   e.curPart,
		ActiveCur: e.activeCur,
		Remaining: e.remaining,
		Finished:  e.finished,

		FlushChipRR: e.flushChipRR,

		Res: e.res,
	}
	if e.inj != nil {
		st := e.inj.State()
		s.Injector = &st
	}
	s.Res.Visits = append([]uint64(nil), e.res.Visits...)

	s.PWB = make([][]WalkState, len(e.pwb))
	s.FLS = make([][]WalkState, len(e.fls))
	for b := range e.pwb {
		s.PWB[b] = e.store.out(e.pwb[b])
		s.FLS[b] = e.store.out(e.fls[b])
	}
	s.PendingMem = make([][]WalkState, len(e.pendingMem))
	s.PendingFlash = make([][]WalkState, len(e.pendingFlash))
	for p := range e.pendingMem {
		s.PendingMem[p] = e.store.out(e.pendingMem[p])
		s.PendingFlash[p] = e.store.out(e.pendingFlash[p])
	}

	s.Nodes = make([]NodeState, len(e.nodes))
	for i := range e.nodes {
		n := &e.nodes[i]
		s.Nodes[i] = NodeState{
			PrevSize: n.prevSize,
			Hot:      n.hot, Foreign: n.foreign, RangeID: n.rangeID,
			Block: n.block, Steps: n.steps,
			Terminal: n.terminal, DeadEnd: n.deadEnd, Free: n.free,
		}
		if n.walk != noWalk {
			s.Nodes[i].St = wsOut(e.ws(n.walk))
		}
	}
	s.Batches = make([]BatchState, len(e.batches))
	for i := range e.batches {
		s.Batches[i] = BatchState{Walks: e.store.out(e.batches[i].walks), Free: e.batches[i].free}
	}

	s.Chips = make([]ChipState, len(e.chips))
	for i, c := range e.chips {
		cs := ChipState{
			Tier:           tierOut(&c.tierCommon),
			Slots:          make([]SlotState, len(c.slots)),
			Roving:         e.store.out(c.roving),
			RovingBytes:    c.rovingBytes,
			CompletedBytes: c.completedBytes,
			MyBlocks:       append([]int(nil), c.myBlocks...),
		}
		for j, sl := range c.slots {
			cs.Slots[j] = SlotState{
				Block: sl.block, Loading: sl.loading, Idle: sl.idle,
				Defers: sl.defers, Pending: sl.pending,
				LoadLeft: sl.loadLeft, LoadWalks: e.store.out(sl.loadWalks),
			}
		}
		s.Chips[i] = cs
	}
	s.Chans = make([]ChanState, len(e.chans))
	for i, ca := range e.chans {
		s.Chans[i] = ChanState{Tier: tierOut(&ca.tierCommon), Failover: ca.failover}
	}
	b := e.board
	bs := BoardState{
		Tier:           tierOut(&b.tierCommon),
		Ports:          make([]sim.QueueState, len(b.ports)),
		PortRR:         b.portRR,
		Caches:         make([]CacheState, len(b.caches)),
		CacheRR:        b.cacheRR,
		CompletedBytes: b.completedBytes,
	}
	for i, p := range b.ports {
		bs.Ports[i] = p.State()
	}
	for i, qc := range b.caches {
		c := CacheState{Hits: qc.hits, Misses: qc.misses}
		for j := 0; j < qc.n; j++ {
			p := qc.slot(j)
			c.Lows = append(c.Lows, qc.ranges[p].lo)
			c.Highs = append(c.Highs, qc.ranges[p].hi)
			c.Blocks = append(c.Blocks, int(qc.blockIDs[p]))
		}
		bs.Caches[i] = c
	}
	s.Board = bs
	return s, nil
}

// --- Restore. ---

// ResumeOptions parameterizes a resumed run; everything about the workload
// itself comes from the snapshot.
type ResumeOptions struct {
	// OnProgress is RunConfig.OnProgress for the resumed run.
	OnProgress func(Progress)
	// OnSnapshot / SnapshotEvery re-arm periodic snapshots on the resumed
	// run (a resumed job keeps checkpointing).
	OnSnapshot    func(*Snapshot)
	SnapshotEvery uint64
	// CheckpointEvery is RunConfig.CheckpointEvery; 0 uses the default.
	CheckpointEvery uint64
	// OnWalks / EmitEvery re-attach the completed-walk export (export.go).
	// The snapshot carries the finished-walk counters, so the resumed run
	// continues the finish-order sequence numbering without a gap.
	OnWalks   func([]WalkDone)
	EmitEvery uint64
}

// ResumeEngine rebuilds an engine from a snapshot over the same graph: a
// 1-board array, returned as its board. The resumed engine continues the
// interrupted run exactly: same clock, same pending events, same walk and
// fault RNG positions, so its final Result is bit-identical to the run the
// snapshot was taken from.
func ResumeEngine(g *graph.Graph, snap *Snapshot, opts ResumeOptions) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot: %w", errs.ErrInvalidConfig)
	}
	if snap.Cfg.Boards > 1 {
		return nil, fmt.Errorf("core: engine snapshot records Boards=%d: %w", snap.Cfg.Boards, errs.ErrInvalidConfig)
	}
	a, err := resumeSkeleton(g, snap, RunConfig{
		OnProgress: opts.OnProgress, CheckpointEvery: opts.CheckpointEvery,
		OnSnapshot: opts.OnSnapshot, SnapshotEvery: opts.SnapshotEvery,
		OnWalks: opts.OnWalks, EmitEvery: opts.EmitEvery,
	})
	if err != nil {
		return nil, err
	}
	if err := a.restoreEngine(snap); err != nil {
		return nil, err
	}
	a.engineRun = true
	return a.boards[0], nil
}

// ResumeContext is ResumeEngine followed by RunContext: it resumes the
// snapshotted run and drives it to completion (or cancellation).
func ResumeContext(ctx context.Context, g *graph.Graph, snap *Snapshot, opts ResumeOptions) (*Result, error) {
	e, err := ResumeEngine(g, snap, opts)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// resumeSkeleton builds the skeleton a snapshot's identity section describes
// — id is an engine-kind snapshot or an array's board-0 body — with the
// resumed run's hooks taken from hooks.
func resumeSkeleton(g *graph.Graph, id *Snapshot, hooks RunConfig) (*Array, error) {
	if g.NumVertices() != id.GraphVertices || g.NumEdges() != id.GraphEdges {
		return nil, fmt.Errorf("core: snapshot was taken over a graph with %d vertices / %d edges, got %d / %d: %w",
			id.GraphVertices, id.GraphEdges, g.NumVertices(), g.NumEdges(), errs.ErrInvalidConfig)
	}
	rc := hooks
	rc.Cfg, rc.FlashCfg, rc.DRAMCfg, rc.PartCfg = id.Cfg, id.FlashCfg, id.DRAMCfg, id.PartCfg
	rc.Spec, rc.NumWalks, rc.MaxSimTime = id.Spec, id.NumWalks, id.MaxSimTime
	rc.TrackVisits, rc.Audit, rc.UseAliasSampling = id.TrackVisits, id.Audit, id.UseAliasSampling
	rc.Mutations = id.Mutations
	return newArray(g, rc)
}

// restoreEngine overlays an engine-kind snapshot onto a fresh 1-board
// skeleton.
func (a *Array) restoreEngine(snap *Snapshot) error {
	e := a.boards[0]
	target := func(id int32) (sim.Handler, error) {
		switch id {
		case targetEngine:
			return e, nil
		case targetSSD:
			return e.ssd, nil
		}
		return nil, fmt.Errorf("unknown target id %d", id)
	}
	if err := a.restoreKernel(snap.Sim, target, snap.MutApplied); err != nil {
		return err
	}
	if err := e.restoreBody(snap, target); err != nil {
		return err
	}
	a.numStarted = snap.Res.Started
	a.remaining = snap.Remaining
	a.rootRNG.SetState(snap.RootRNG)
	a.resumed()
	return nil
}

// restoreBody overlays everything except the event kernel, whose import the
// caller owns (Array.restoreKernel imports it once, then each board's body
// is restored). target resolves flash op completion targets. Imported walks
// are appended to the fleet-shared walk store in import order.
func (e *Engine) restoreBody(snap *Snapshot, target func(int32) (sim.Handler, error)) error {
	nb := e.part.NumBlocks()
	np := e.part.NumPartitions
	switch {
	case len(snap.PWB) != nb, len(snap.FLS) != nb, len(snap.PWBBytes) != nb,
		len(snap.FLSPages) != nb, len(snap.Score) != nb, len(snap.ScorePend) != nb:
		return fmt.Errorf("core: resume: snapshot block stores sized for %d blocks, partitioning has %d", len(snap.PWB), nb)
	case len(snap.PendingMem) != np, len(snap.PendingFlash) != np,
		len(snap.PendingFlashBytes) != np, len(snap.FlushMark) != np:
		return fmt.Errorf("core: resume: snapshot pending stores sized for %d partitions, partitioning has %d", len(snap.PendingMem), np)
	case len(snap.Chips) != len(e.chips):
		return fmt.Errorf("core: resume: snapshot has %d chips, geometry has %d", len(snap.Chips), len(e.chips))
	case len(snap.Chans) != len(e.chans):
		return fmt.Errorf("core: resume: snapshot has %d channels, geometry has %d", len(snap.Chans), len(e.chans))
	case len(snap.Board.Ports) != len(e.board.ports):
		return fmt.Errorf("core: resume: snapshot has %d table ports, config has %d", len(snap.Board.Ports), len(e.board.ports))
	case len(snap.Board.Caches) != len(e.board.caches):
		return fmt.Errorf("core: resume: snapshot has %d query caches, config has %d", len(snap.Board.Caches), len(e.board.caches))
	case (snap.Injector != nil) != (e.inj != nil):
		return fmt.Errorf("core: resume: snapshot and config disagree on fault injection")
	}

	if err := e.ssd.ImportState(snap.Flash, target); err != nil {
		return err
	}
	if err := e.dr.Restore(snap.DRAM); err != nil {
		return err
	}
	if e.inj != nil {
		e.inj.Restore(*snap.Injector)
		copy(e.degraded, snap.Injector.Degraded)
	}

	for b := 0; b < nb; b++ {
		e.pwb[b] = e.store.in(snap.PWB[b])
		e.fls[b] = e.store.in(snap.FLS[b])
	}
	copy(e.pwbBytes, snap.PWBBytes)
	copy(e.flsPages, snap.FLSPages)
	copy(e.score, snap.Score)
	copy(e.scorePend, snap.ScorePend)

	for p := 0; p < np; p++ {
		e.pendingMem[p] = e.store.in(snap.PendingMem[p])
		e.pendingFlash[p] = e.store.in(snap.PendingFlash[p])
	}
	copy(e.pendingFlashBytes, snap.PendingFlashBytes)
	copy(e.flushMark, snap.FlushMark)
	e.foreignerBufBytes = snap.ForeignerBufBytes

	e.nodes = make([]wnode, len(snap.Nodes))
	for i, ns := range snap.Nodes {
		// A free-listed node persists the zero WalkState; a live walk never
		// has one (its RNG state is nonzero).
		w := noWalk
		if ns.St != (WalkState{}) {
			w = e.store.load(ns.St)
		}
		e.nodes[i] = wnode{
			walk: w, prevSize: ns.PrevSize,
			hot: ns.Hot, foreign: ns.Foreign, rangeID: ns.RangeID,
			block: ns.Block, steps: ns.Steps,
			terminal: ns.Terminal, deadEnd: ns.DeadEnd, free: ns.Free,
		}
	}
	e.freeNode = snap.FreeNode
	e.batches = make([]walkBatch, len(snap.Batches))
	for i, bs := range snap.Batches {
		e.batches[i] = walkBatch{walks: e.store.in(bs.Walks), free: bs.Free}
	}
	e.freeBatch = snap.FreeBatch

	e.switchLeft = snap.SwitchLeft
	e.switchWalks = e.store.in(snap.SwitchWalks)

	e.curPart = snap.CurPart
	e.activeCur = snap.ActiveCur
	e.remaining = snap.Remaining
	e.finished = snap.Finished
	e.flushChipRR = snap.FlushChipRR

	for i := range e.blockPos {
		e.blockPos[i] = -1
	}
	for i, c := range e.chips {
		cs := &snap.Chips[i]
		if len(cs.Slots) != len(c.slots) {
			return fmt.Errorf("core: resume: chip %d has %d slots in snapshot, config has %d", i, len(cs.Slots), len(c.slots))
		}
		if err := tierIn(&c.tierCommon, cs.Tier, fmt.Sprintf("chip %d", i)); err != nil {
			return err
		}
		for j, sl := range c.slots {
			ss := &cs.Slots[j]
			sl.block = ss.Block
			sl.loading = ss.Loading
			sl.idle = ss.Idle
			sl.defers = ss.Defers
			sl.pending = ss.Pending
			sl.loadLeft = ss.LoadLeft
			sl.loadWalks = e.store.in(ss.LoadWalks)
		}
		c.roving = e.store.in(cs.Roving)
		c.rovingBytes = cs.RovingBytes
		c.completedBytes = cs.CompletedBytes
		c.myBlocks = append(c.myBlocks[:0], cs.MyBlocks...)
		// blockPos and the scheduler work bitmap are derived indexes:
		// rebuild them from the restored block lists and store lengths
		// (refreshBlocks would also reset slot residency, so not that).
		for pos, b := range c.myBlocks {
			e.blockPos[b] = int32(pos)
		}
		words := (len(c.myBlocks) + 63) / 64
		if cap(c.workBits) < words {
			c.workBits = make([]uint64, words)
		}
		c.workBits = c.workBits[:words]
		for w := range c.workBits {
			c.workBits[w] = 0
		}
		for pos, b := range c.myBlocks {
			if len(e.pwb[b])+len(e.fls[b]) > 0 {
				c.workBits[pos>>6] |= 1 << (uint(pos) & 63)
			}
		}
	}
	for i, ca := range e.chans {
		cs := &snap.Chans[i]
		if err := tierIn(&ca.tierCommon, cs.Tier, fmt.Sprintf("channel %d", i)); err != nil {
			return err
		}
		ca.failover = cs.Failover
	}
	b := e.board
	if err := tierIn(&b.tierCommon, snap.Board.Tier, "board"); err != nil {
		return err
	}
	for i, p := range b.ports {
		p.Restore(snap.Board.Ports[i])
	}
	b.portRR = snap.Board.PortRR
	for i, qc := range b.caches {
		cs := &snap.Board.Caches[i]
		qc.invalidate()
		for j := range cs.Lows {
			qc.insertTail(cs.Lows[j], cs.Highs[j], cs.Blocks[j])
		}
		qc.hits = cs.Hits
		qc.misses = cs.Misses
	}
	b.cacheRR = snap.Board.CacheRR
	b.completedBytes = snap.Board.CompletedBytes

	e.res = snap.Res
	e.res.Visits = append([]uint64(nil), snap.Res.Visits...)
	return nil
}
