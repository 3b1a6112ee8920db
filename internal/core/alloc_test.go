package core

import (
	"context"
	"runtime"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// TestSteadyStateHopAllocFree guards the tentpole invariant of the typed-
// event refactor: once the pools are warm (a full run has grown them), the
// per-hop machinery — claiming a walk node, deciding the hop, recycling a
// batch buffer — performs zero allocations. Together with the sim-level
// guards (TestTypedSchedulingAllocFree, TestQueueAcquireEventAllocFree)
// this pins the whole hop path: every event it schedules is typed and every
// record it touches is pooled.
func TestSteadyStateHopAllocFree(t *testing.T) {
	g := testGraph(t)
	e, err := NewEngine(g, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A live walk at a vertex with outgoing edges, far from termination.
	var v graph.VertexID
	for v = 0; v < g.NumVertices(); v++ {
		if g.OutDegree(v) > 0 {
			break
		}
	}
	id := addWalk(e, wstate{w: walk.Walk{Cur: v, Hop: 1 << 20}, denseBlock: -1, rangeTag: -1, prev: noPrev,
		rng: *e.arr.rootRNG.Derive(1)})
	// decideHop commits to the store, so each run restores the walk first:
	// every run decides the same full hop from v.
	initial := *e.ws(id)

	allocs := testing.AllocsPerRun(1000, func() {
		*e.ws(id) = initial
		ref, n := e.newNode()
		h := e.decideHop(id)
		n.walk, n.terminal, n.deadEnd = id, h.terminal, h.deadEnd
		e.freeNodeRef(ref)

		buf := e.getWalkBuf()
		buf = append(buf, id)
		bref := e.newBatch(buf)
		e.putWalkBuf(e.takeBatch(bref))
	})
	if allocs != 0 {
		t.Fatalf("steady-state hop path allocated %.1f times per run, want 0", allocs)
	}
}

// addWalk appends st to e's walk store and returns its handle.
func addWalk(e *Engine, st wstate) walkID {
	e.store.w = append(e.store.w, st)
	return walkID(len(e.store.w) - 1)
}

// maxAllocBytesPerWalk bounds TestWalkFootprint: the value measured with
// every holder keeping 4-byte walk handles (959 B/walk) plus 10%.
const maxAllocBytesPerWalk = 1055

// TestWalkFootprint guards the walk store's footprint: the host bytes a
// fixed unbiased run allocates per walk (MemStats.TotalAlloc, construction
// included). A holder that goes back to copying walk records, or a new
// per-walk allocation on the hop path, pushes it over the bound.
func TestWalkFootprint(t *testing.T) {
	g := testGraph(t)
	rc := testConfig()
	rc.NumWalks = 20000
	rc.Spec = walk.Spec{Kind: walk.Unbiased, Length: 10}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := NewEngine(g, rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perWalk := float64(after.TotalAlloc-before.TotalAlloc) / float64(rc.NumWalks)
	if perWalk > maxAllocBytesPerWalk {
		t.Fatalf("run allocated %.0f B per walk, bound %d", perWalk, maxAllocBytesPerWalk)
	}
	t.Logf("%.0f B allocated per walk (bound %d)", perWalk, maxAllocBytesPerWalk)
}

// BenchmarkDecideBatch measures the batched update kernel on a fixed
// 48-walk node2vec burst (p=0.5, q=2): the locality sort plus 48 hop
// decisions with their edge-filter probes. Each iteration restores the
// burst's walk states first, so every iteration decides the same hops.
func BenchmarkDecideBatch(b *testing.B) {
	g, err := graph.RMAT(graph.DefaultRMAT(2048, 16384, 3))
	if err != nil {
		b.Fatal(err)
	}
	rc := goldenConfig()
	rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 1 << 20, P: 0.5, Q: 2}
	e, err := NewEngine(g, rc)
	if err != nil {
		b.Fatal(err)
	}
	const burst = insertionSortMax
	ids := make([]walkID, 0, burst)
	for v := graph.VertexID(0); len(ids) < burst; v++ {
		if g.OutDegree(v) == 0 {
			continue
		}
		nb := g.OutEdges(v)
		ids = append(ids, addWalk(e, wstate{w: walk.Walk{Src: v, Cur: nb[0], Hop: rc.Spec.Length},
			denseBlock: -1, rangeTag: -1, prev: v, rng: *e.arr.rootRNG.Derive(uint64(v))}))
	}
	initial := append([]wstate(nil), e.store.w[ids[0]:]...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(e.store.w[ids[0]:], initial)
		e.decideBatch(ids)
	}
}

// TestQueryCacheFrontHitNoShift pins the LRU fast path: a hit on the front
// entry must not reorder (or copy) the entries.
func TestQueryCacheFrontHitNoShift(t *testing.T) {
	qc := newQueryCache(4*16, 16)
	qc.insert(30, 39, 3)
	qc.insert(20, 29, 2)
	qc.insert(10, 19, 1) // front
	if id, ok := qc.lookup(15); !ok || id != 1 {
		t.Fatalf("front lookup = %d,%v", id, ok)
	}
	want := []int32{1, 2, 3}
	for i := 0; i < qc.n; i++ {
		id := qc.blockIDs[qc.slot(i)]
		if id != want[i] {
			t.Fatalf("entry order after front hit = %v at %d, want %v", id, i, want)
		}
	}
	// A non-front hit still promotes.
	if id, ok := qc.lookup(35); !ok || id != 3 {
		t.Fatalf("mid lookup = %d,%v", id, ok)
	}
	if qc.blockIDs[qc.head] != 3 {
		t.Fatalf("entry %d at front after touch, want 3", qc.blockIDs[qc.head])
	}
}

// BenchmarkQueryCacheLookup measures the LRU probe: the front-hit fast path
// (the common case under power-law walk skew) versus a mid-cache hit that
// pays the promotion shift, at a realistic cache population.
func BenchmarkQueryCacheLookup(b *testing.B) {
	const entries = 64
	build := func() *queryCache {
		qc := newQueryCache(entries*16, 16)
		for i := 0; i < entries; i++ {
			lo := graph.VertexID(i * 10)
			qc.insert(lo, lo+9, i)
		}
		return qc
	}
	b.Run("front-hit", func(b *testing.B) {
		qc := build()
		front := qc.ranges[qc.slot(0)].lo
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(front + 5)
		}
	})
	b.Run("mid-hit", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The hit promotes to front, so probing two spots alternates
			// between them and every lookup pays a mid-depth shift.
			qc.lookup(qc.ranges[qc.slot(entries/2)].lo + 5)
		}
	})
	b.Run("miss", func(b *testing.B) {
		qc := build()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			qc.lookup(graph.VertexID(entries*10 + 5))
		}
	})
}
