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
//	engine.go    — Engine struct, construction, Run loop, failure handling
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
// never grows mid-run, so *wstate pointers into it stay valid. The single
// engine owns its store; an Array owns one that every board shares.
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
	// call back into the engine.
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

// Engine is one FlashWalker simulation instance.
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
	remaining int // walks not yet finished anywhere
	finished  bool
	failure   error
	audit     bool

	res Result

	slotsPerChip int
	slotCapWalks int
	walksPerPage int

	flushChipRR int // round-robin chip cursor for board-side flushes

	maxSimTime sim.Time
	tracer     trace.Tracer

	onProgress func(Progress)
	checkEvery uint64

	onSnapshot func(*Snapshot)
	snapEvery  uint64
	lastSnap   uint64

	// Completed-walk export (export.go); unused in array boards, which
	// export through the shared Array instead.
	onWalks   func([]WalkDone)
	emitEvery uint64
	exportBuf []WalkDone

	// started flips when RunContext performs the one-time launch work
	// (hot-subgraph preload, channel ticks, first partition). A resumed
	// engine starts with it set: the launch events are already in the
	// restored heap.
	started bool

	rootRNG *rng.RNG

	// inj is the fault injector (nil unless Cfg.Faults.Enabled); degraded
	// mirrors the injector's sticky per-chip flags for the router's fast
	// path, and is nil when injection is off.
	inj      *fault.Injector
	degraded []bool

	// arr/boardID tie a board engine into a multi-board array (nil/0 in
	// single-board runs, the unchanged classic path). An array board shares
	// the array's sim.Engine, owns only its shard's partitions, and hands
	// foreigners bound for other shards to the array's fabric.
	arr     *Array
	boardID int

	// Mutation stream state (mutate.go). muts is the full stream;
	// mutCursor is the next unapplied index (At == 0 prefix already applied
	// at construction). In arrays the Array drives application fleet-wide
	// and mirrors its cursor onto every board. initVertices/initEdges are
	// the graph's pre-mutation counts — the identity a snapshot records,
	// since a resumed run rebuilds from the initial graph and replays.
	muts         graph.MutationStream
	mutCursor    int
	initVertices uint64
	initEdges    uint64
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

// progress snapshots the engine's headline counters. Only called from the
// simulation goroutine at event boundaries, so the reads are consistent.
func (e *Engine) progress() Progress {
	return Progress{
		Now:               e.eng.Now(),
		Events:            e.eng.Processed(),
		Started:           e.res.Started,
		Completed:         e.res.Completed,
		DeadEnded:         e.res.DeadEnded,
		Hops:              e.res.Hops,
		PartitionSwitches: e.res.PartitionSwitches,
	}
}

// emit sends a trace event if tracing is enabled.
func (e *Engine) emit(kind trace.Kind, a, b int64) {
	if e.tracer != nil {
		e.tracer.Emit(trace.Event{At: e.eng.Now(), Kind: kind, A: a, B: b})
	}
}

// NewEngine builds a FlashWalker instance over the graph. The walks start
// at numWalks uniformly random vertices drawn from startSeed.
func NewEngine(g *graph.Graph, rc RunConfig) (*Engine, error) {
	if rc.Cfg.Boards > 1 {
		return nil, fmt.Errorf("core: Boards=%d needs the array engine (NewArray): %w", rc.Cfg.Boards, errs.ErrInvalidConfig)
	}
	e, err := newEngine(g, rc)
	if err != nil {
		return nil, err
	}
	starts, err := runStarts(g, rc)
	if err != nil {
		return nil, err
	}
	seedWalks([]*Engine{e}, func(int) int { return 0 }, starts, rc.NumWalks, e.rootRNG)
	return e, nil
}

// newEngine builds the engine skeleton — devices, accelerators, pools —
// without seeding any walks. NewEngine seeds a fresh workload on top;
// ResumeEngine overlays a snapshot's state instead.
func newEngine(g *graph.Graph, rc RunConfig) (*Engine, error) {
	g, part, ix, prefix, err := prepareRun(g, rc)
	if err != nil {
		return nil, err
	}
	e, err := newEngineOn(sim.New(), g, rc, part, ix, &walkStore{}, prefix)
	if err != nil {
		return nil, err
	}
	e.res.MutationsApplied = uint64(prefix)
	return e, nil
}

// prepareRun is the construction newEngine and newArray share. It
// validates the run, clones the graph when a mutation stream will patch it
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

// newEngineOn builds one engine over a caller-supplied event kernel,
// partitioning and indexes: the array layer builds N board engines on one
// shared sim.Engine so the whole fleet drains a single timeline, and hands
// them all the same indexes and walk store. mutCursor is the already-applied
// prefix of rc.Mutations — prepareRun has patched g and part up to it.
func newEngineOn(eng *sim.Engine, g *graph.Graph, rc RunConfig, part *partition.Partitioned, ix *indexes, store *walkStore, mutCursor int) (*Engine, error) {
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
		g:     g,
		part:  part,
		place: place,
		spec:  rc.Spec,
		ix:    ix,
		store: store,

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

		freeNode:   -1,
		freeBatch:  -1,
		curPart:    -1,
		maxSimTime: rc.MaxSimTime,
		tracer:     rc.Tracer,
		audit:      rc.Audit,
		onProgress: rc.OnProgress,
		checkEvery: rc.CheckpointEvery,
		onSnapshot: rc.OnSnapshot,
		snapEvery:  rc.SnapshotEvery,
		onWalks:    rc.OnWalks,
		emitEvery:  rc.EmitEvery,
		rootRNG:    rng.New(rc.Cfg.Seed),

		muts:         rc.Mutations,
		mutCursor:    mutCursor,
		initVertices: g.NumVertices(),
		initEdges: uint64(int64(g.NumEdges()) -
			(rc.Mutations.NetEdges(0) - rc.Mutations.NetEdges(mutCursor))),
	}
	if e.checkEvery == 0 {
		e.checkEvery = DefaultCheckpointEvery
	}
	if e.emitEvery == 0 {
		e.emitEvery = DefaultEmitEvery
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
		e.res.Visits = make([]uint64, g.NumVertices())
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

// Run executes the simulation to completion and returns the result.
//
// Deprecated: use RunContext, which supports cancellation and live
// progress. Run is RunContext with a background context.
func (e *Engine) Run() (*Result, error) {
	return e.RunContext(context.Background())
}

// RunContext executes the simulation until every walk finishes or ctx is
// canceled. Cancellation is cooperative: the event kernel checks ctx at
// checkpoint boundaries (every CheckpointEvery events, never mid-event), so
// the simulated timeline of an uncanceled run is bit-identical to Run. On
// cancellation it returns the partial Result accumulated so far together
// with an error satisfying errors.Is(err, errs.ErrCanceled); the Result's
// counters are a consistent snapshot at the halting event boundary.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil || e.onProgress != nil || e.onSnapshot != nil {
		e.eng.SetCheckpoint(e.checkEvery, func() bool {
			if e.onProgress != nil {
				e.onProgress(e.progress())
			}
			if e.onSnapshot != nil && e.eng.Processed()-e.lastSnap >= e.snapEvery {
				// Flush exported walks first so a consumer persisting both
				// never sees a snapshot ahead of its walk records.
				e.flushWalks()
				// Snapshots are pure reads of engine state between events;
				// a build error means setup closures are still draining, so
				// just try again at a later checkpoint.
				if snap, err := e.buildSnapshot(); err == nil {
					e.lastSnap = e.eng.Processed()
					e.onSnapshot(snap)
				}
			}
			return ctx.Err() == nil
		})
		defer e.eng.ClearCheckpoint()
	}
	if e.onWalks != nil {
		e.eng.SetEmitter(e.emitEvery, e.flushWalks)
		defer e.eng.ClearEmitter()
	}
	if e.mutCursor < len(e.muts) {
		e.eng.SetApplier(e.applyMutations)
		defer e.eng.ClearApplier()
	}
	e.launch()
	if e.maxSimTime > 0 {
		e.eng.RunUntil(e.maxSimTime)
	} else {
		e.eng.Run()
	}
	e.flushWalks()
	if e.failure != nil {
		return nil, e.failure
	}
	e.res.Time = e.eng.Now()
	e.res.Flash = e.ssd.Counters
	e.res.DRAMReadBytes = e.dr.ReadBytes
	e.res.DRAMWriteBytes = e.dr.WriteBytes
	e.res.DRAMPortUtil = e.dr.Utilization()
	if e.inj != nil {
		e.res.Faults = e.inj.Counters
	}
	e.collectTierStats()
	if e.onProgress != nil {
		e.onProgress(e.progress())
	}
	if e.eng.Halted() {
		return &e.res, fmt.Errorf("core: run canceled at %v: %w", e.res.Time, &errs.Canceled{
			Op: "core", Finished: e.res.WalksFinished(), Total: e.res.Started, Cause: ctx.Err(),
		})
	}
	if e.remaining != 0 {
		if e.maxSimTime > 0 {
			return nil, fmt.Errorf("core: MaxSimTime %v exceeded with %d walks unfinished", e.maxSimTime, e.remaining)
		}
		return nil, fmt.Errorf("core: simulation drained with %d walks unfinished (activeCur=%d, partition=%d)",
			e.remaining, e.activeCur, e.curPart)
	}
	return &e.res, nil
}

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
// board engine inside an array may legitimately start with no local walks —
// it idles (unfinished, ticks running) until the fabric delivers some.
func (e *Engine) launch() {
	if e.started {
		return
	}
	e.started = true
	e.preloadHotSubgraphs()
	for _, ca := range e.chans {
		ca.scheduleTick()
	}
	if !e.advancePartition() && e.arr == nil {
		e.finished = true
	}
}

// fail aborts the simulation with an error. A board engine inside an array
// fails the whole array: one inconsistent device invalidates the fleet run.
func (e *Engine) fail(err error) {
	if e.arr != nil {
		e.arr.fail(err)
		return
	}
	if e.failure == nil {
		e.failure = err
	}
	e.finished = true
}
