package core

import (
	"context"
	"fmt"

	"flashwalker/internal/bloom"
	"flashwalker/internal/dram"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/flash"
	"flashwalker/internal/graph"
	"flashwalker/internal/metrics"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// The engine implementation is split across focused files:
//
//	engine.go    — Engine (one board) struct and construction
//	array.go     — Array, the run driver every run goes through
//	tier.go      — the tierAccel interface and the shared tier machinery
//	wiring.go    — accelerator tier construction and hot-subgraph preload
//	lifecycle.go — walk seeding, retirement, partition advance
//	routing.go   — foreigner demotion/flush and the conservation audit
//	scheduler.go — Eq. 1 scores and the partition walk buffer (PWB)
//	route.go     — board-level routing decisions (classify/search)
//	chip.go, channel.go, board.go — the three tier implementations
//	hop.go       — walk-update (hop) decisions
//	tables.go    — query cache and unit pools

// wstate is a walk in flight through the accelerator hierarchy, carrying the
// routing annotations the hardware attaches: the pre-walked dense block and
// edge (paper §III-D) and the subgraph-range tag from the approximate walk
// search (§III-C).
//
// A run keeps exactly one wstate per walk, in its walkStore. Every other
// holder — walk buffers and pending lists, slot claims, roving buffers,
// pooled nodes and batches, the fabric — keeps the 4-byte walkID, so moving
// a walk copies a handle, never the record. Decisions update the stored
// state in place.
type wstate struct {
	w          walk.Walk
	denseBlock int    // destination dense block after pre-walking, -1 otherwise
	denseEdge  uint64 // chosen edge index within Cur's edge list (pre-walked)
	rangeTag   int    // subgraph range ID from the approximate search, -1 untagged
	// prev is the previous vertex (second-order walks); noPrev before the
	// first hop. Unlike the tags above it persists across routing.
	prev graph.VertexID
	// rng is the walk's private sampling stream (KnightKing-style), derived
	// from the run seed per walk at seeding time. Because every hop draws
	// from the walk's own stream — never a tier's — the trajectory depends
	// only on the walk and the graph, not on which accelerator performs the
	// update or when. That makes trajectories invariant under fault-induced
	// timing shifts: injected faults change when walks finish, never where
	// they go (the metamorphic property internal/fault relies on).
	rng rng.RNG
}

// walkID is a walk's handle: its index in the run's walkStore.
type walkID int32

// noWalk marks a pooled node that carries no walk (free-listed).
const noWalk walkID = -1

// walkStore is the run's only copy of walk state, sized once: by seeding
// (handle i is global walk i) or by a resume (handles in import order). It
// never grows mid-run, so *wstate pointers into it stay valid. The Array
// owns it and every board shares it.
type walkStore struct{ w []wstate }

// noPrev marks a walk that has not hopped yet.
const noPrev = ^graph.VertexID(0)

func (ws *wstate) clearTags() {
	ws.denseBlock = -1
	ws.rangeTag = -1
}

// sizeBytes is the buffer/flash footprint of the walk record; pre-walked
// dense walks omit cur (§III-D).
func (ws *wstate) sizeBytes() int64 {
	if ws.denseBlock >= 0 {
		return walk.DenseStateBytes
	}
	return walk.StateBytes
}

// RunConfig bundles everything one FlashWalker run needs.
type RunConfig struct {
	Cfg       Config
	FlashCfg  flash.Config
	DRAMCfg   dram.Config
	PartCfg   partition.Config
	Spec      walk.Spec
	NumWalks  int
	StartSeed uint64
	// Starts, when non-empty, supplies the walks' start vertices (cycled
	// when NumWalks exceeds its length) instead of uniform random draws —
	// e.g. PPR runs every walk from one source.
	Starts []graph.VertexID
	// ProgressBin, when non-zero, enables the Figure-8 time series.
	ProgressBin sim.Time
	// MaxSimTime aborts runs exceeding this simulated time (0 = unlimited).
	MaxSimTime sim.Time
	// TrackVisits records per-vertex visit counts in Result.Visits
	// (validation and analytics; costs one counter array).
	TrackVisits bool
	// Tracer, when non-nil, receives structured simulation events
	// (subgraph loads, roving batches, flushes, partition switches).
	Tracer trace.Tracer
	// Audit enables walk-conservation checks at every partition switch
	// and at completion: the walks in all stores plus the finished count
	// must equal the started count. Costs a scan per switch.
	Audit bool
	// UseAliasSampling makes biased walks sample with precomputed alias
	// tables (O(1) per hop, KnightKing-style) instead of the paper's ITS
	// binary search. The tables double the per-edge metadata stored with
	// each subgraph (see walk.GraphAlias.SizeBytes).
	UseAliasSampling bool
	// Mutations is a deterministic edge insert/delete stream applied during
	// the run: a mutation stamped T becomes visible to the first simulated
	// event at time >= T and to nothing before it (At == 0 mutations apply
	// at construction, before hot-subgraph selection). The engine clones
	// the graph, so the caller's Graph is never modified, and maintains
	// every derived index — block degree tables, the second-order edge
	// filter, alias tables — incrementally; the result is bit-identical to
	// rebuilding those structures over the mutated graph. The stream must
	// satisfy graph.MutationStream.Validate over the initial graph with the
	// partitioning's dense-vertex threshold as the degree cap (the frozen
	// block skeleton cannot re-partition mid-run). Empty means a static
	// graph: the classic, byte-identical path.
	Mutations graph.MutationStream
	// OnProgress, when non-nil, receives live counter snapshots from the
	// simulation goroutine at checkpoint boundaries (every CheckpointEvery
	// events) and once more when the run ends. The callback must be fast
	// and must not call back into the engine.
	OnProgress func(Progress)
	// CheckpointEvery is the event interval between cancellation checks and
	// progress snapshots; 0 uses DefaultCheckpointEvery. Checkpoints run
	// strictly between simulated events, so they never perturb the
	// timeline.
	CheckpointEvery uint64
	// OnSnapshot, when non-nil, receives durable engine snapshots taken at
	// checkpoint boundaries (see Engine.Snapshot). A snapshot captures the
	// full mid-run state — walk stores, accelerator queues, device
	// bookings, the pending event heap — and ResumeEngine replays the run
	// from it bit-identically. Snapshots that cannot be taken yet (setup
	// closures still draining) are skipped silently; the callback must not
	// call back into the engine. The engine-kind snapshot describes one
	// board, so Boards > 1 rejects it: arrays register
	// Array.SetSnapshotHook instead.
	OnSnapshot func(*Snapshot)
	// SnapshotEvery is the minimum number of processed events between
	// OnSnapshot deliveries; snapshots are only attempted at checkpoint
	// boundaries, so the effective cadence is the next checkpoint after
	// the interval elapses. 0 snapshots at every checkpoint.
	SnapshotEvery uint64
	// OnWalks, when non-nil, receives finished walks in retirement order
	// (see export.go). Deliveries happen strictly between simulated events
	// — at emitter boundaries, before every snapshot, and at run end — so
	// attaching a consumer never perturbs the timeline. The record slice is
	// reused between deliveries; the callback must copy what it keeps and
	// must not call back into the engine.
	OnWalks func([]WalkDone)
	// EmitEvery is the event interval between OnWalks deliveries; 0 uses
	// DefaultEmitEvery.
	EmitEvery uint64
}

// DefaultCheckpointEvery is the default event interval between cooperative
// cancellation checks and progress snapshots during RunContext.
const DefaultCheckpointEvery = 4096

// Progress is a consistent mid-run snapshot of an engine's headline
// counters, taken at an event boundary.
type Progress struct {
	// Now is the simulated clock at the snapshot.
	Now sim.Time
	// Events is the number of simulation events processed so far.
	Events uint64
	// Started / Completed / DeadEnded mirror the Result fields.
	Started   int
	Completed int
	DeadEnded int
	// Hops is the number of walk updates performed so far.
	Hops uint64
	// PartitionSwitches counts partition advances so far.
	PartitionSwitches uint64
}

// WalksFinished reports completed + dead-ended walks at the snapshot.
func (p Progress) WalksFinished() int { return p.Completed + p.DeadEnded }

// Engine is one FlashWalker board: its devices, accelerator tiers and walk
// buffers. It has no run loop of its own; its Array drives it (NewEngine
// builds a 1-board Array and returns its board).
type Engine struct {
	eng   *sim.Engine
	cfg   Config
	ssd   *flash.SSD
	dr    *dram.DRAM
	g     *graph.Graph
	part  *partition.Partitioned
	place *partition.Placement
	spec  walk.Spec

	chips []*chipAccel
	chans []*channelAccel
	board *boardAccel
	// tiers is every accelerator in the hierarchy behind the shared
	// interface, in construction order (chips, channels, board).
	tiers []tierAccel

	// store holds every walk's state; the holders below keep handles.
	store *walkStore

	// Per-block walk stores outside the accelerators.
	pwb       [][]walkID // partition walk buffer entries (DRAM)
	pwbBytes  []int64
	fls       [][]walkID // walks overflowed to flash, per block
	flsPages  []int
	score     []float64 // cached Eq. 1 score per block
	scorePend []int     // inserts since last score refresh
	// blockPos is each block's position in its chip's current myBlocks
	// list (-1 outside the active partition); it backs the per-chip
	// scheduler work bitmaps (chipAccel.workBits).
	blockPos []int32

	// Walks awaiting a future partition. pendingMem walks live in board
	// DRAM/host; pendingFlash walks were flushed and must be read back.
	pendingMem        [][]walkID
	pendingFlash      [][]walkID
	pendingFlashBytes []int64
	// flushMark[p] is the prefix of pendingMem[p] that is NOT sitting in
	// the board's foreigner buffer (initial seeds and previously settled
	// walks). pendingMem[p][flushMark[p]:] are the foreigner-buffer
	// residents that a buffer overflow flushes to flash.
	flushMark         []int
	foreignerBufBytes int64

	// ix is the run's graph-derived indexes, built once by prepareRun;
	// every board of an array reads the same instance.
	ix *indexes

	// Typed-event pools (events.go): walk nodes crossing event boundaries,
	// in-flight roving batches, and recycled walk batch buffers.
	nodes     []wnode
	freeNode  int32
	batches   []walkBatch
	freeBatch int32
	wbufs     [][]walkID

	// Batched update kernel scratch (batch.go): the locality sorter and the
	// per-batch outcome/classification buffers. All engine-owned so the
	// steady state stays allocation-free; empty between events, so
	// snapshots never need to capture them.
	bsort      batchSorter
	batchOuts  []hopOutcome
	chanGuides []chanGuide

	// Flushed-foreigner read-back in flight during a partition switch.
	switchLeft  int
	switchWalks []walkID

	curPart   int
	activeCur int // walks of the current partition inside the system
	remaining int // walks on this board not yet finished
	finished  bool

	res Result

	slotsPerChip int
	slotCapWalks int
	walksPerPage int

	flushChipRR int // round-robin chip cursor for board-side flushes

	tracer trace.Tracer

	// inj is the fault injector (nil unless Cfg.Faults.Enabled); degraded
	// mirrors the injector's sticky per-chip flags for the router's fast
	// path, and is nil when injection is off.
	inj      *fault.Injector
	degraded []bool

	// arr is the array that drives this board (every run is an Array;
	// NewEngine's has one board) and boardID the board's index in it. A
	// board shares the array's sim.Engine, owns only its shard's
	// partitions, and hands foreigners bound for other shards to the
	// array's fabric.
	arr     *Array
	boardID int
}

// edgeProber is the membership-probe interface shared by the static and
// counting edge Bloom filters; both answer bit-identically over the same
// edge multiset.
type edgeProber interface {
	Contains(key uint64) bool
}

// indexes is the state a run derives from its graph, built once per run
// (prepareRun) and owned by the run, not by a board: every board of an
// array reads it through one read-only pointer, and a mutation patches it
// once, fleet-wide (applyShared).
type indexes struct {
	// edgeFilter answers neighbor-membership queries for second-order
	// walks (nil otherwise); the model charges its probes to on-board
	// DRAM. Static runs use a plain bloom.Filter; dynamic runs use the
	// counting variant below so edge deletes can clear bits.
	edgeFilter edgeProber
	// edgeFilterC is the delete-capable filter behind edgeFilter on runs
	// with a mutation stream (nil otherwise).
	edgeFilterC *bloom.Counting
	// alias holds per-vertex alias tables when UseAliasSampling is set on
	// a biased run (nil otherwise).
	alias *walk.GraphAlias
	// inSums are the construction-time per-block in-degree sums that
	// hot-subgraph selection ranks by (nil with HotSubgraphs off). The
	// degraded-chip failover recomputes them from the current graph.
	inSums []uint64
}

// ws resolves a walk handle to its state in the run's store.
func (e *Engine) ws(id walkID) *wstate { return &e.store.w[id] }

// emit sends a trace event if tracing is enabled.
func (e *Engine) emit(kind trace.Kind, a, b int64) {
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{At: e.eng.Now(), Kind: kind, A: a, B: b})
	}
}

// NewEngine builds a single-board FlashWalker instance over the graph: a
// 1-board Array, returned as its board. The walks start at numWalks
// uniformly random vertices drawn from startSeed.
func NewEngine(g *graph.Graph, rc RunConfig) (*Engine, error) {
	if rc.Cfg.Boards > 1 {
		return nil, fmt.Errorf("core: Boards=%d needs the array engine (NewArray): %w", rc.Cfg.Boards, errs.ErrInvalidConfig)
	}
	a, err := NewArray(g, rc)
	if err != nil {
		return nil, err
	}
	a.engineRun = true
	return a.boards[0], nil
}

// prepareRun is the run-wide half of newArray's construction. It validates
// the run, clones the graph when a mutation stream will patch it
// (callers keep their Graph pristine), partitions it, and builds the
// derived indexes once. It then applies the stream's At == 0 prefix to all
// of them, so hot-subgraph selection and walk seeding see the patched
// graph. It returns the graph, its partitioning, the indexes, and the
// prefix length.
func prepareRun(g *graph.Graph, rc RunConfig) (*graph.Graph, *partition.Partitioned, *indexes, int, error) {
	if err := rc.Cfg.Validate(); err != nil {
		return nil, nil, nil, 0, err
	}
	if err := rc.Spec.Validate(g); err != nil {
		return nil, nil, nil, 0, err
	}
	if rc.NumWalks <= 0 {
		return nil, nil, nil, 0, fmt.Errorf("core: NumWalks %d <= 0: %w", rc.NumWalks, errs.ErrInvalidConfig)
	}
	if rc.UseAliasSampling && rc.Spec.Kind != walk.Biased {
		return nil, nil, nil, 0, fmt.Errorf("core: alias sampling only applies to biased walks: %w", errs.ErrInvalidConfig)
	}
	g, err := cloneForMutations(g, rc)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	part, err := partition.Partition(g, rc.PartCfg)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ix := &indexes{}
	if rc.Spec.Kind == walk.SecondOrder {
		if len(rc.Mutations) > 0 {
			// Size for the edge count after the whole stream: identical
			// geometry to the plain filter a run over the fully mutated
			// graph would build, so probe answers — and trajectories —
			// match the rebuild leg of the metamorphic tests.
			final := int(int64(g.NumEdges())+rc.Mutations.NetEdges(0)) + 1
			ix.edgeFilterC = partition.EdgeFilterCounting(g, 0.01, final)
			ix.edgeFilter = ix.edgeFilterC
		} else {
			ix.edgeFilter = partition.EdgeFilter(g, 0.01)
		}
	}
	if rc.UseAliasSampling {
		if ix.alias, err = walk.NewGraphAlias(g); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	prefix := 0
	for ; prefix < len(rc.Mutations) && rc.Mutations[prefix].At == 0; prefix++ {
		if err := applyShared(g, part, ix, rc.Mutations[prefix]); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	if rc.Cfg.Opts.HotSubgraphs {
		ix.inSums = part.InDegreeSums()
	}
	return g, part, ix, prefix, nil
}

// newBoard builds board b of array a: its own devices and accelerator
// tiers over the array's event kernel, graph, partitioning, indexes and
// walk store, so the whole fleet drains a single timeline.
func newBoard(a *Array, rc RunConfig, b int) (*Engine, error) {
	eng, part := a.eng, a.part
	ssd, err := flash.New(eng, rc.FlashCfg)
	if err != nil {
		return nil, err
	}
	dr, err := dram.New(eng, rc.DRAMCfg)
	if err != nil {
		return nil, err
	}
	place, err := partition.NewPlacement(part, rc.FlashCfg.Channels, rc.FlashCfg.ChipsPerChannel)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		eng:   eng,
		cfg:   rc.Cfg,
		ssd:   ssd,
		dr:    dr,
		g:     a.g,
		part:  part,
		place: place,
		spec:  rc.Spec,
		ix:    a.ix,
		store: a.store,
		arr:   a,

		boardID: b,

		pwb:       make([][]walkID, part.NumBlocks()),
		pwbBytes:  make([]int64, part.NumBlocks()),
		fls:       make([][]walkID, part.NumBlocks()),
		flsPages:  make([]int, part.NumBlocks()),
		score:     make([]float64, part.NumBlocks()),
		scorePend: make([]int, part.NumBlocks()),
		blockPos:  make([]int32, part.NumBlocks()),

		pendingMem:        make([][]walkID, part.NumPartitions),
		pendingFlash:      make([][]walkID, part.NumPartitions),
		pendingFlashBytes: make([]int64, part.NumPartitions),
		flushMark:         make([]int, part.NumPartitions),

		freeNode:  -1,
		freeBatch: -1,
		curPart:   -1,
		tracer:    rc.Tracer,
	}
	if rc.Cfg.Faults.Enabled {
		e.inj = fault.NewInjector(rc.Cfg.Faults, ssd.NumChips())
		e.inj.OnDegrade = e.chipDegraded
		e.degraded = make([]bool, ssd.NumChips())
		ssd.AttachFaults(e.inj)
	}

	for i := range e.blockPos {
		e.blockPos[i] = -1
	}
	e.slotsPerChip = int(rc.Cfg.ChipSubgraphBufBytes / rc.PartCfg.BlockBytes)
	if e.slotsPerChip < 1 {
		e.slotsPerChip = 1
	}
	e.slotCapWalks = int(rc.Cfg.ChipWalkQueueBytes / walk.StateBytes / int64(e.slotsPerChip))
	if e.slotCapWalks < 1 {
		e.slotCapWalks = 1
	}
	e.walksPerPage = int(rc.FlashCfg.PageBytes / walk.StateBytes)
	if e.walksPerPage < 1 {
		e.walksPerPage = 1
	}

	if rc.TrackVisits {
		e.res.Visits = make([]uint64, a.g.NumVertices())
	}
	if rc.ProgressBin > 0 {
		ssd.ReadTS = metrics.NewTimeSeries(rc.ProgressBin)
		ssd.WriteTS = metrics.NewTimeSeries(rc.ProgressBin)
		ssd.ChannelTS = metrics.NewTimeSeries(rc.ProgressBin)
		e.res.ReadTS = ssd.ReadTS
		e.res.WriteTS = ssd.WriteTS
		e.res.ChannelTS = ssd.ChannelTS
		e.res.ProgressTS = metrics.NewTimeSeries(rc.ProgressBin)
	}

	e.buildAccelerators()
	return e, nil
}

// RunContext executes the simulation until every walk finishes or ctx is
// canceled (see Array.RunContext, which drives every run).
func (e *Engine) RunContext(ctx context.Context) (*Result, error) { return e.arr.RunContext(ctx) }

// collectTierStats folds every tier's utilization snapshot into the result
// (averages and maxima per level) plus the channel-bus peak.
func (e *Engine) collectTierStats() {
	var chipU, chipMax, chanGU float64
	var nChip, nChan int
	for _, t := range e.tiers {
		st := t.Stats()
		switch st.Level {
		case tierChip:
			nChip++
			chipU += st.UpdaterUtil
			if st.UpdaterUtil > chipMax {
				chipMax = st.UpdaterUtil
			}
		case tierChannel:
			nChan++
			chanGU += st.GuiderUtil
		case tierBoard:
			e.res.BoardGuiderUtil = st.GuiderUtil
		}
	}
	if nChip > 0 {
		e.res.ChipUpdaterUtil = chipU / float64(nChip)
	}
	e.res.ChipUpdaterUtilMax = chipMax
	if nChan > 0 {
		e.res.ChannelGuiderUtil = chanGU / float64(nChan)
	}
	var busMax float64
	for _, ca := range e.chans {
		if u := ca.channel.Bus.Utilization(); u > busMax {
			busMax = u
		}
	}
	e.res.ChannelBusUtilMax = busMax
}

// launch performs the one-time start-of-run work: the hot-subgraph preload,
// the periodic channel roving ticks, and the first partition dispatch. A
// board may legitimately start with no local walks — it idles (unfinished,
// ticks running) until the fabric delivers some.
func (e *Engine) launch() {
	e.preloadHotSubgraphs()
	for _, ca := range e.chans {
		ca.scheduleTick()
	}
	e.advancePartition()
}

// fail aborts the simulation with an error. One inconsistent board
// invalidates the whole run, so it fails the array.
func (e *Engine) fail(err error) { e.arr.fail(err) }
