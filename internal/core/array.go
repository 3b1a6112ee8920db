package core

import (
	"context"
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// This file is the multi-board SSD array: N board engines, each owning a
// round-robin shard of the graph partitions (partition.ShardMap), sharing
// one event kernel and connected by a modeled inter-board fabric.
//
// The fabric is one more sim resource alongside channels, chips and DRAM:
// each board has a FIFO egress link (sim.Queue) with FabricBytesPerSec
// bandwidth, and every message pays FabricLatency on top of its serialized
// transfer time (a PCIe-switch/NVMe-oF hop). A walk whose next vertex lives
// on another board's shard is serialized over the fabric instead of being
// parked in the local foreigner buffer: walks accumulate per (source,
// destination) pair until FabricBatchBytes, ship as one transfer, and land
// in the destination board's foreigner buffer (the same ForeignerBufBytes
// accounting and overflow-to-flash path a local demotion uses).
//
// Because every walk carries its own RNG stream, a walk's trajectory is
// identical whether it hops inside one board or crosses the fabric: board
// count, fabric timing, and even whole-device kills change when walks
// finish, never where they go. TestArrayOutcomeEquality and the kill tests
// lean on exactly this.

// Array event kinds (private to Array.HandleEvent).
const (
	evFabricArrive uint16 = iota // a fabric batch reached its destination; A = batch ref
	evBoardKill                  // whole-device fail-stop; B = board index
)

// fabricWalk is one walk in flight between boards, tagged with the
// destination partition its sender resolved (the walk's routing identity on
// the wire; recomputing it at arrival could disagree with the pre-walked
// dense-block choice).
type fabricWalk struct {
	id walkID
	p  int32
}

// egressBuf batches walks bound from one board to another.
type egressBuf struct {
	walks []fabricWalk
	bytes int64
}

// fabricBatch is a pooled in-flight fabric transfer record (referenced by
// evFabricArrive events, so it must survive snapshots by index).
type fabricBatch struct {
	walks []fabricWalk
	dst   int32
	free  int32
}

// Array is an N-board FlashWalker simulation instance and the one run
// driver: every run, NewEngine's single board included, is an Array. It
// owns the event kernel, the walk store, the run hooks (progress,
// snapshots, the walk export, the mutation applier) and the fleet-wide
// accounting; its boards own the devices and accelerator tiers.
type Array struct {
	eng    *sim.Engine
	cfg    Config
	g      *graph.Graph
	part   *partition.Partitioned
	ix     *indexes   // the run's derived indexes, shared by every board
	store  *walkStore // the fleet's walk state, shared by every board
	shard  *partition.ShardMap
	boards []*Engine
	dead   []bool

	fabric   []*sim.Queue // per-board egress link
	egress   [][]egressBuf
	fbatches []fabricBatch
	freeFB   int32
	fwbufs   [][]fabricWalk

	numStarted int // walks seeded fleet-wide
	remaining  int // walks not yet finished fleet-wide
	inFabric   int // walks in egress buffers or in-flight batches

	fabricWalks    uint64
	fabricBatchCnt uint64
	fabricBytes    int64
	evacuated      uint64
	kills          uint64

	launched   bool
	failure    error
	audit      bool
	maxSimTime sim.Time
	rootRNG    *rng.RNG
	// engineRun marks a run built by NewEngine or ResumeEngine: its Result
	// reports Boards = 0, as single-engine runs always have.
	engineRun bool

	// Mutation stream state (mutate.go). muts is the full stream;
	// mutCursor is the next unapplied index (the At == 0 prefix is applied
	// at construction). initVertices/initEdges are the graph's
	// pre-mutation counts — the identity a snapshot records, since a
	// resumed run rebuilds from the initial graph and replays.
	muts         graph.MutationStream
	mutCursor    int
	initVertices uint64
	initEdges    uint64

	onProgress func(Progress)
	checkEvery uint64
	// snap cuts and delivers one snapshot — engine-kind (RunConfig.
	// OnSnapshot, one board) or array-kind (SetSnapshotHook); an error
	// means the cut cannot be taken yet.
	snap      func() error
	snapEvery uint64
	lastSnap  uint64

	// Completed-walk export (export.go): one fleet-wide finish sequence so
	// consumers see a single total order regardless of board count.
	onWalks   func([]WalkDone)
	emitEvery uint64
	exportBuf []WalkDone
	finSeq    uint64
}

// NewArray builds an rc.Cfg.Boards-board array over the graph (0 means one
// board) and seeds the workload. Walk i draws its private RNG stream from
// the run seed by its global index, so trajectories — and therefore walk
// outcomes — are identical across board counts.
func NewArray(g *graph.Graph, rc RunConfig) (*Array, error) {
	a, err := newArray(g, rc)
	if err != nil {
		return nil, err
	}
	starts, err := runStarts(g, rc)
	if err != nil {
		return nil, err
	}
	a.seedWalks(starts, rc.NumWalks)
	return a, nil
}

// newArray builds the array skeleton — shared kernel, board engines, shard
// map, fabric — without seeding walks (a resume overlays a snapshot).
func newArray(g *graph.Graph, rc RunConfig) (*Array, error) {
	nb := rc.Cfg.Boards
	if nb < 1 {
		nb = 1
	}
	if nb > 1 {
		// Time series, traces and engine-kind snapshots describe one board.
		switch {
		case rc.ProgressBin > 0:
			return nil, fmt.Errorf("core: progress time series are per-board; not supported on arrays: %w", errs.ErrInvalidConfig)
		case rc.Tracer != nil:
			return nil, fmt.Errorf("core: tracing is not supported on arrays: %w", errs.ErrInvalidConfig)
		case rc.OnSnapshot != nil:
			return nil, fmt.Errorf("core: RunConfig.OnSnapshot takes single-board snapshots; use Array.SetSnapshotHook on arrays: %w", errs.ErrInvalidConfig)
		}
	}
	initVertices, initEdges := g.NumVertices(), g.NumEdges()
	g, part, ix, prefix, err := prepareRun(g, rc)
	if err != nil {
		return nil, err
	}
	shard, err := partition.NewShardMap(part.NumPartitions, nb)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	a := &Array{
		eng:          eng,
		cfg:          rc.Cfg,
		g:            g,
		part:         part,
		ix:           ix,
		store:        &walkStore{},
		shard:        shard,
		muts:         rc.Mutations,
		mutCursor:    prefix,
		initVertices: initVertices,
		initEdges:    initEdges,
		dead:         make([]bool, nb),
		fabric:       make([]*sim.Queue, nb),
		egress:       make([][]egressBuf, nb),
		freeFB:       -1,
		audit:        rc.Audit,
		maxSimTime:   rc.MaxSimTime,
		rootRNG:      rng.New(rc.Cfg.Seed),
		onProgress:   rc.OnProgress,
		checkEvery:   rc.CheckpointEvery,
		snapEvery:    rc.SnapshotEvery,
		onWalks:      rc.OnWalks,
		emitEvery:    rc.EmitEvery,
	}
	if a.checkEvery == 0 {
		a.checkEvery = DefaultCheckpointEvery
	}
	if a.emitEvery == 0 {
		a.emitEvery = DefaultEmitEvery
	}
	if rc.OnSnapshot != nil {
		a.snap = deliver(a.engineSnapshot, rc.OnSnapshot)
	}
	for b := 0; b < nb; b++ {
		e, err := newBoard(a, rc, b)
		if err != nil {
			return nil, err
		}
		a.boards = append(a.boards, e)
		a.fabric[b] = sim.NewQueue(eng)
		a.egress[b] = make([]egressBuf, nb)
	}
	// Attribute the construction-time prefix to the owning boards (the
	// per-board res is overlaid on resume, so this only matters for fresh
	// runs).
	for _, m := range a.muts[:prefix] {
		owner := a.shard.BoardOf(a.boards[0].homePartition(m.Src))
		a.boards[owner].res.MutationsApplied++
	}
	return a, nil
}

// NumBoards reports the array's board count.
func (a *Array) NumBoards() int { return len(a.boards) }

// SetSnapshotHook registers a fleet-wide snapshot hook before RunContext,
// replacing RunConfig.OnSnapshot's engine-kind hook: fn receives an
// ArraySnapshot at most every `every` events. A nil fn clears the hook.
func (a *Array) SetSnapshotHook(fn func(*ArraySnapshot), every uint64) {
	a.snap, a.snapEvery = nil, every
	if fn != nil {
		a.snap = deliver(a.buildSnapshot, fn)
	}
}

// deliver pairs a snapshot cut with its consumer as one checkpoint step;
// the consumer only sees cuts that succeeded.
func deliver[S any](cut func() (*S, error), fn func(*S)) func() error {
	return func() error {
		s, err := cut()
		if err == nil {
			fn(s)
		}
		return err
	}
}

// RunContext executes the run until every walk finishes or ctx is
// canceled. Cancellation is cooperative: the event kernel checks ctx at
// checkpoint boundaries (every CheckpointEvery events, never mid-event), so
// the simulated timeline of an uncanceled run is bit-identical with or
// without a context, progress hook or snapshot hook. On cancellation it
// returns the partial Result accumulated so far together with an error
// satisfying errors.Is(err, errs.ErrCanceled); the Result's counters are a
// consistent snapshot at the halting event boundary.
func (a *Array) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil || a.onProgress != nil || a.snap != nil {
		a.eng.SetCheckpoint(a.checkEvery, func() bool {
			if a.onProgress != nil {
				a.onProgress(a.progress())
			}
			if a.snap != nil && a.eng.Processed()-a.lastSnap >= a.snapEvery {
				// Flush exported walks first so a consumer persisting both
				// never sees a snapshot ahead of its walk records.
				a.flushWalks()
				// Snapshots are pure reads between events; a cut fails
				// while setup closures are still draining, so just try
				// again at a later checkpoint.
				if a.snap() == nil {
					a.lastSnap = a.eng.Processed()
				}
			}
			return ctx.Err() == nil
		})
		defer a.eng.ClearCheckpoint()
	}
	if a.onWalks != nil {
		a.eng.SetEmitter(a.emitEvery, a.flushWalks)
		defer a.eng.ClearEmitter()
	}
	if a.mutCursor < len(a.muts) {
		a.eng.SetApplier(a.applyMutations)
		defer a.eng.ClearApplier()
	}
	if !a.launched {
		a.launched = true
		for _, e := range a.boards {
			e.launch()
		}
		if a.cfg.Faults.KillBoardAt > 0 {
			a.eng.Schedule(a.cfg.Faults.KillBoardAt,
				sim.Event{Target: a, Kind: evBoardKill, B: int32(a.cfg.Faults.KillBoard)})
		}
		if a.remaining == 0 {
			a.finishAll()
		}
	}
	if a.maxSimTime > 0 {
		a.eng.RunUntil(a.maxSimTime)
	} else {
		a.eng.Run()
	}
	a.flushWalks()
	a.auditConservation("run-end")
	if a.failure != nil {
		return nil, a.failure
	}
	res := a.aggregate()
	if a.onProgress != nil {
		a.onProgress(a.progress())
	}
	if a.eng.Halted() {
		return res, fmt.Errorf("core: run canceled at %v: %w", res.Time, &errs.Canceled{
			Op: "core", Finished: res.WalksFinished(), Total: res.Started, Cause: ctx.Err(),
		})
	}
	if a.remaining != 0 {
		if a.maxSimTime > 0 {
			return nil, fmt.Errorf("core: MaxSimTime %v exceeded with %d walks unfinished", a.maxSimTime, a.remaining)
		}
		return nil, fmt.Errorf("core: simulation drained with %d walks unfinished (%d in fabric)",
			a.remaining, a.inFabric)
	}
	return res, nil
}

// progress snapshots the fleet-wide headline counters at an event boundary.
func (a *Array) progress() Progress {
	pr := Progress{Now: a.eng.Now(), Events: a.eng.Processed()}
	for _, e := range a.boards {
		pr.Started += e.res.Started
		pr.Completed += e.res.Completed
		pr.DeadEnded += e.res.DeadEnded
		pr.Hops += e.res.Hops
		pr.PartitionSwitches += e.res.PartitionSwitches
	}
	return pr
}

// HandleEvent dispatches the array's fabric and fault events. It is
// exported only to satisfy sim.Handler.
func (a *Array) HandleEvent(ev sim.Event) {
	switch ev.Kind {
	case evFabricArrive:
		a.arrive(ev.A)
	case evBoardKill:
		a.killBoard(int(ev.B))
	default:
		panic("core: unknown array event kind")
	}
}

// --- Fabric. ---

// sendForeigner hands a walk bound for partition p (owned by another board)
// to the fabric: it joins the source board's egress batch toward the owner
// and ships when the batch fills (or when the source drains).
func (a *Array) sendForeigner(src *Engine, p int, id walkID) {
	dst := a.shard.BoardOf(p)
	eb := &a.egress[src.boardID][dst]
	if eb.walks == nil {
		eb.walks = a.getFW()
	}
	eb.walks = append(eb.walks, fabricWalk{id: id, p: int32(p)})
	eb.bytes += walk.StateBytes
	src.remaining--
	a.inFabric++
	a.fabricWalks++
	if eb.bytes >= a.cfg.FabricBatchBytes {
		a.flushEgress(src.boardID, dst)
	}
}

// flushEgress ships one (source, destination) egress batch: the transfer
// serializes on the source's fabric link, then pays the switch latency, and
// the arrival event delivers the walks.
func (a *Array) flushEgress(src, dst int) {
	eb := &a.egress[src][dst]
	if len(eb.walks) == 0 {
		return
	}
	ref := a.newFBatch(eb.walks, dst)
	bytes := eb.bytes
	eb.walks = nil
	eb.bytes = 0
	a.fabricBatchCnt++
	a.fabricBytes += bytes
	end := a.fabric[src].AcquireEvent(sim.TransferTime(bytes, a.cfg.FabricBytesPerSec), sim.Event{})
	a.eng.Schedule(end+a.cfg.FabricLatency, sim.Event{Target: a, Kind: evFabricArrive, A: ref})
}

// flushEgressFrom ships every batched walk a board still holds; called when
// the board drains so no walk waits forever on the batch threshold.
func (a *Array) flushEgressFrom(src int) {
	for dst := range a.egress[src] {
		a.flushEgress(src, dst)
	}
}

// arrive lands a fabric batch: walks join the destination board's foreigner
// buffer (waking it if idle); walks whose owner changed in flight — the
// destination died while they were on the wire — bounce to the new owner.
func (a *Array) arrive(ref int32) {
	walks, dst := a.takeFBatch(ref)
	e := a.boards[dst]
	var bounce []fabricWalk
	delivered := 0
	for i := range walks {
		p := int(walks[i].p)
		if a.shard.BoardOf(p) != dst {
			bounce = append(bounce, walks[i])
			continue
		}
		if e.pendingMem[p] == nil {
			e.pendingMem[p] = e.getWalkBuf()
		}
		e.pendingMem[p] = append(e.pendingMem[p], walks[i].id)
		e.foreignerBufBytes += walk.StateBytes
		if e.foreignerBufBytes >= e.cfg.ForeignerBufBytes {
			e.flushForeigners()
		}
		e.remaining++
		a.inFabric--
		delivered++
	}
	a.putFW(walks)
	if delivered > 0 && e.activeCur == 0 && !e.finished {
		// The board was idle; hand it the partition the arrivals landed in.
		e.advancePartition()
	}
	if len(bounce) > 0 {
		a.reforward(bounce)
	}
}

// reforward bounces mid-flight walks to their post-failover owners: the
// switch re-routes each group as a fresh transfer (buffered at the switch —
// the original sender may be dead, so no egress link is charged).
func (a *Array) reforward(walks []fabricWalk) {
	for b := range a.boards {
		var grp []fabricWalk
		var bytes int64
		for _, fw := range walks {
			if a.shard.BoardOf(int(fw.p)) != b {
				continue
			}
			if grp == nil {
				grp = a.getFW()
			}
			grp = append(grp, fw)
			bytes += walk.StateBytes
		}
		if grp == nil {
			continue
		}
		ref := a.newFBatch(grp, b)
		a.fabricBatchCnt++
		a.fabricBytes += bytes
		a.eng.ScheduleAfter(a.cfg.FabricLatency+sim.TransferTime(bytes, a.cfg.FabricBytesPerSec),
			sim.Event{Target: a, Kind: evFabricArrive, A: ref})
	}
}

// --- Whole-device kill. ---

// killBoard fail-stops board b: its shard is re-placed round-robin onto the
// survivors, its parked walks (pending lists, both memory and flash) are
// evacuated over the fabric to the new owners, and the walks active in its
// current partition drain to completion (fail-stop after command
// completion). In-flight batches addressed to it bounce in arrive.
func (a *Array) killBoard(b int) {
	if a.failure != nil || a.dead[b] {
		return
	}
	var alive []int
	for i := range a.boards {
		if i != b && !a.dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		a.fail(fmt.Errorf("core: board %d killed with no survivors", b))
		return
	}
	a.dead[b] = true
	a.kills++
	if _, err := a.shard.Reassign(b, alive); err != nil {
		a.fail(fmt.Errorf("core: kill board %d: %w", b, err))
		return
	}
	e := a.boards[b]
	for p := range e.pendingMem {
		mem := e.pendingMem[p]
		e.pendingMem[p] = nil
		fl := e.pendingFlash[p]
		e.pendingFlash[p] = nil
		e.pendingFlashBytes[p] = 0
		e.flushMark[p] = 0
		for _, id := range mem {
			a.evacuate(e, p, id)
		}
		for _, id := range fl {
			a.evacuate(e, p, id)
		}
		e.putWalkBuf(mem)
		e.putWalkBuf(fl)
	}
	e.foreignerBufBytes = 0
	a.flushEgressFrom(b)
	if e.activeCur == 0 {
		// Nothing left to drain: the board is done for good (arrivals are
		// re-forwarded, so nothing can wake it).
		e.finished = true
	}
}

// evacuate moves one parked walk off a killed board over the fabric. The
// recovery path replays the board's walk log from the host side, so the
// transfer is charged to the fabric only.
func (a *Array) evacuate(src *Engine, p int, id walkID) {
	a.evacuated++
	a.sendForeigner(src, p, id)
}

// --- Termination / accounting. ---

// walkFinished tracks the fleet-wide walk count; when it hits zero every
// board is finished and the periodic ticks stop rescheduling, so the shared
// kernel drains.
func (a *Array) walkFinished() {
	a.remaining--
	if a.remaining == 0 {
		a.finishAll()
	}
}

// checkStalled fails the run when every board idles with walks still
// unaccounted for — the lost-walk guard. An idle fleet with an empty
// fabric can never make progress again, so failing beats spinning on
// channel ticks forever. Called whenever a board goes idle.
func (a *Array) checkStalled() {
	if a.remaining == 0 || a.inFabric > 0 || a.failure != nil {
		return
	}
	for _, e := range a.boards {
		if e.activeCur > 0 || e.storedWalks() > 0 {
			return
		}
	}
	a.fail(fmt.Errorf("core: array stalled with %d walks unaccounted for", a.remaining))
}

func (a *Array) finishAll() {
	for _, e := range a.boards {
		e.finished = true
	}
}

// fail aborts the run, keeping the first error, and stops every board.
func (a *Array) fail(err error) {
	if a.failure == nil {
		a.failure = err
	}
	a.finishAll()
}

// auditConservation is the walk-conservation check (RunConfig.Audit):
// walks parked on boards, active in current partitions (minus the store
// double-count), in the fabric, or finished must sum to the seeded count.
// Per-board conservation does not hold once walks migrate, so the sum is
// fleet-wide. Exact at any event boundary; invoked at every board's
// partition switch.
func (a *Array) auditConservation(where string) {
	if !a.audit || a.failure != nil {
		return
	}
	stored, active, overlap, finished := 0, 0, 0, 0
	for _, e := range a.boards {
		stored += e.storedWalks()
		active += e.activeCur
		overlap += e.activeCurStoredOverlap()
		finished += e.res.Completed + e.res.DeadEnded
	}
	if got := stored + active - overlap + a.inFabric + finished; got != a.numStarted {
		a.fail(fmt.Errorf("core: array audit(%s): %d stored + %d active - %d overlap + %d fabric + %d finished != %d started",
			where, stored, active, overlap, a.inFabric, finished, a.numStarted))
	}
}

// aggregate folds the per-board results and the fabric counters into one
// fleet-wide Result.
func (a *Array) aggregate() *Result {
	res := &Result{
		Time:           a.eng.Now(),
		Boards:         len(a.boards),
		FabricWalks:    a.fabricWalks,
		FabricBatches:  a.fabricBatchCnt,
		FabricBytes:    a.fabricBytes,
		EvacuatedWalks: a.evacuated,
		BoardKills:     a.kills,
	}
	var chipU, chipMax, chanU, boardU, busMax, dramU float64
	for _, e := range a.boards {
		e.collectTierStats()
		r := &e.res
		res.Started += r.Started
		res.Completed += r.Completed
		res.DeadEnded += r.DeadEnded
		res.Hops += r.Hops

		res.Flash.ReadPages += e.ssd.Counters.ReadPages
		res.Flash.ProgramPages += e.ssd.Counters.ProgramPages
		res.Flash.ErasedBlocks += e.ssd.Counters.ErasedBlocks
		res.Flash.ReadBytes += e.ssd.Counters.ReadBytes
		res.Flash.WriteBytes += e.ssd.Counters.WriteBytes
		res.Flash.ChannelBytes += e.ssd.Counters.ChannelBytes
		res.Flash.HostBytes += e.ssd.Counters.HostBytes
		res.DRAMReadBytes += e.dr.ReadBytes
		res.DRAMWriteBytes += e.dr.WriteBytes

		res.RovingTransfers += r.RovingTransfers
		res.RovingWalks += r.RovingWalks
		res.QueryCacheHits += r.QueryCacheHits
		res.QueryCacheMisses += r.QueryCacheMisses
		res.TableSearchSteps += r.TableSearchSteps
		res.RangeQueries += r.RangeQueries
		res.PreWalks += r.PreWalks
		res.FilterProbes += r.FilterProbes
		res.HotHitsChannel += r.HotHitsChannel
		res.HotHitsBoard += r.HotHitsBoard
		res.ChipUpdates += r.ChipUpdates
		res.SubgraphLoads += r.SubgraphLoads
		res.SubgraphReloads += r.SubgraphReloads
		res.PWBOverflows += r.PWBOverflows
		res.ForeignerWalks += r.ForeignerWalks
		res.ForeignerFlushes += r.ForeignerFlushes
		res.CompletedFlushes += r.CompletedFlushes
		res.GuiderStalls += r.GuiderStalls
		res.PartitionSwitches += r.PartitionSwitches
		res.MutationsApplied += r.MutationsApplied

		if e.inj != nil {
			res.Faults.ReadErrors += e.inj.Counters.ReadErrors
			res.Faults.Retries += e.inj.Counters.Retries
			res.Faults.RetriesExhausted += e.inj.Counters.RetriesExhausted
			res.Faults.PlaneBusyStalls += e.inj.Counters.PlaneBusyStalls
			res.Faults.StallTime += e.inj.Counters.StallTime
			res.Faults.BackoffTime += e.inj.Counters.BackoffTime
			res.Faults.DegradedChips += e.inj.Counters.DegradedChips
		}
		res.FaultReroutes += r.FaultReroutes
		res.FailoverBlocks += r.FailoverBlocks

		chipU += r.ChipUpdaterUtil
		if r.ChipUpdaterUtilMax > chipMax {
			chipMax = r.ChipUpdaterUtilMax
		}
		chanU += r.ChannelGuiderUtil
		boardU += r.BoardGuiderUtil
		if r.ChannelBusUtilMax > busMax {
			busMax = r.ChannelBusUtilMax
		}
		dramU += e.dr.Utilization()

		// Time series exist only on single-board runs (newArray).
		res.ReadTS, res.WriteTS, res.ChannelTS, res.ProgressTS = r.ReadTS, r.WriteTS, r.ChannelTS, r.ProgressTS
		if r.Visits != nil {
			if res.Visits == nil {
				res.Visits = make([]uint64, len(r.Visits))
			}
			for v, n := range r.Visits {
				res.Visits[v] += n
			}
		}
	}
	nb := float64(len(a.boards))
	res.ChipUpdaterUtil = chipU / nb
	res.ChipUpdaterUtilMax = chipMax
	res.ChannelGuiderUtil = chanU / nb
	res.BoardGuiderUtil = boardU / nb
	res.ChannelBusUtilMax = busMax
	res.DRAMPortUtil = dramU / nb
	if a.engineRun {
		res.Boards = 0
	}
	return res
}

// --- Pools. ---

// getFW hands out a recycled fabric-walk buffer (len 0).
func (a *Array) getFW() []fabricWalk {
	if n := len(a.fwbufs); n > 0 {
		b := a.fwbufs[n-1]
		a.fwbufs[n-1] = nil
		a.fwbufs = a.fwbufs[:n-1]
		return b
	}
	return make([]fabricWalk, 0, 16)
}

// putFW recycles a fabric-walk buffer once its walks were handed on.
func (a *Array) putFW(b []fabricWalk) {
	if b == nil {
		return
	}
	a.fwbufs = append(a.fwbufs, b[:0])
}

// newFBatch parks an in-flight fabric transfer in a pooled record.
func (a *Array) newFBatch(walks []fabricWalk, dst int) int32 {
	var ref int32
	if a.freeFB >= 0 {
		ref = a.freeFB
		a.freeFB = a.fbatches[ref].free
	} else {
		a.fbatches = append(a.fbatches, fabricBatch{})
		ref = int32(len(a.fbatches) - 1)
	}
	a.fbatches[ref] = fabricBatch{walks: walks, dst: int32(dst), free: -1}
	return ref
}

// takeFBatch releases a batch record, returning its walks and destination.
func (a *Array) takeFBatch(ref int32) ([]fabricWalk, int) {
	fb := a.fbatches[ref]
	a.fbatches[ref] = fabricBatch{free: a.freeFB}
	a.freeFB = ref
	return fb.walks, int(fb.dst)
}
