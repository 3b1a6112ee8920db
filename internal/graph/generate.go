package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"flashwalker/internal/errs"
	"flashwalker/internal/rng"
)

// RMATConfig parameterizes the R-MAT generator (the model PaRMAT
// implements, used for the paper's R2B/R8B synthetic graphs).
type RMATConfig struct {
	// NumVertices is rounded up to a power of two internally; generated IDs
	// are then mapped back into [0, NumVertices).
	NumVertices uint64
	// NumEdges is the number of edges to generate. RMAT makes at most
	// 20*NumEdges+1000 attempts; with RemoveDuplicates, a dense config whose
	// duplicates use them all up (say 4 vertices and 100 edges) gets the
	// fewer distinct edges found by then, never an error.
	NumEdges uint64
	// Quadrant probabilities; must sum to ~1. PaRMAT defaults: 0.45, 0.22,
	// 0.22, 0.11.
	A, B, C, D float64
	// Noise perturbs the quadrant probabilities per level, as PaRMAT's
	// smoothing does, preventing degenerate diagonal artifacts.
	Noise float64
	// RemoveDuplicates drops exact duplicate edges (PaRMAT's -noDuplicateEdges).
	RemoveDuplicates bool
	// Weighted assigns uniform random weights in (0, 1].
	Weighted bool
	Seed     uint64
}

// DefaultRMAT returns PaRMAT-default parameters for the given size.
func DefaultRMAT(v, e uint64, seed uint64) RMATConfig {
	return RMATConfig{
		NumVertices: v, NumEdges: e,
		A: 0.45, B: 0.22, C: 0.22, D: 0.11,
		Noise: 0.05, RemoveDuplicates: true, Seed: seed,
	}
}

// RMAT generates a directed graph with the recursive-matrix model.
//
// Every attempt draws one (src, dst) pair from the stream rng.New(Seed);
// attempts are kept in order until NumEdges are kept, skipping
// duplicates when asked, or the attempt cap is reached. Unweighted graphs
// are generated in parallel on GOMAXPROCS workers with the same result
// at any worker count (see rmatGen.forEach).
func RMAT(cfg RMATConfig) (*Graph, error) {
	if cfg.NumVertices == 0 {
		return nil, fmt.Errorf("graph: RMAT with zero vertices: %w", errs.ErrInvalidConfig)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("graph: RMAT probabilities sum to %v, want 1: %w", sum, errs.ErrInvalidConfig)
	}
	gen := &rmatGen{
		numVertices: cfg.NumVertices,
		a:           cfg.A, b: cfg.B, c: cfg.C, d: cfg.D,
		noise: cfg.Noise > 0,
		lo:    1 - cfg.Noise, span: 2 * cfg.Noise,
	}
	for pow := uint64(1); pow < cfg.NumVertices; pow <<= 1 {
		gen.levels++
	}
	b := NewBuilder(cfg.NumVertices)
	if cfg.NumEdges == 0 {
		return b.Build()
	}
	// The most edges this call can keep: NumEdges, and with duplicate
	// removal no more than there are distinct pairs.
	keep := cfg.NumEdges
	if cfg.RemoveDuplicates && cfg.NumVertices < 1<<32 {
		keep = min(keep, cfg.NumVertices*cfg.NumVertices)
	}
	b.edges = make([]Edge, 0, keep)
	var seen *keySet
	if cfg.RemoveDuplicates {
		seen = newKeySet(keep)
	}
	maxAttempts := cfg.NumEdges*20 + 1000
	if cfg.Weighted {
		// A weight is drawn only for a kept edge, so where an attempt's
		// draws start in the stream depends on how many earlier attempts
		// were duplicates. No chunk's start can be jumped to, and weighted
		// graphs stay on one sequential loop.
		r := rng.New(cfg.Seed)
		for n := uint64(0); n < maxAttempts && uint64(len(b.edges)) < cfg.NumEdges; n++ {
			src, dst := gen.attemptKey(r)
			if seen == nil || seen.add(src*cfg.NumVertices+dst) {
				b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
			}
		}
		return b.Build()
	}
	gen.forEach(cfg.Seed, maxAttempts, func(src, dst uint64) bool {
		if seen == nil || seen.add(src*cfg.NumVertices+dst) {
			b.AddEdge(src, dst)
		}
		return uint64(len(b.edges)) < cfg.NumEdges
	})
	return b.Build()
}

// rmatGen holds what one RMAT attempt needs from its config.
type rmatGen struct {
	numVertices uint64
	levels      int
	a, b, c, d  float64
	// noise turns on the per-level perturbation, which scales each
	// quadrant probability by lo + span*u for a fresh uniform u.
	noise    bool
	lo, span float64
}

// draws is the number of Uint64 draws one attempt consumes.
func (g *rmatGen) draws() uint64 {
	if g.noise {
		return uint64(g.levels) * 5
	}
	return uint64(g.levels)
}

// attemptKey draws one attempt's endpoints: one quadrant choice per
// level, each after four noise draws when noise is on. They depend only
// on the draws() draws it takes from r.
func (g *rmatGen) attemptKey(r *rng.RNG) (src, dst uint64) {
	for l := 0; l < g.levels; l++ {
		a, bb, c := g.a, g.b, g.c
		if g.noise {
			// Symmetric per-level perturbation, renormalized.
			na := a * (g.lo + g.span*r.Float64())
			nb := bb * (g.lo + g.span*r.Float64())
			nc := c * (g.lo + g.span*r.Float64())
			nd := g.d * (g.lo + g.span*r.Float64())
			tot := na + nb + nc + nd
			a, bb, c = na/tot, nb/tot, nc/tot
		}
		// Quadrant: below a top-left (no bits), below a+bb top-right (dst
		// bit), below a+bb+c bottom-left (src bit), else both bits. Done
		// without branches, since the outcome is random per level.
		x := r.Float64()
		lt1, lt2, lt3 := bit(x < a), bit(x < a+bb), bit(x < a+bb+c)
		src |= (^lt1 & ^lt2 & 1) << l
		dst |= (^lt1 & (lt2 | ^lt3) & 1) << l
	}
	return src % g.numVertices, dst % g.numVertices
}

// bit converts b to 1 or 0.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

const (
	// rmatChunk is the number of attempts a worker generates per hand-off.
	rmatChunk = 8192
	// rmatDepth is the number of chunk buffers each worker owns, which
	// bounds how far it runs ahead of the consumer.
	rmatDepth = 2
)

// endpoints is one attempt's (src, dst).
type endpoints struct{ src, dst uint64 }

// rmatWorker is one generating goroutine's pair of buffer queues: it takes
// empty buffers from free and returns filled ones, in chunk order, on full.
type rmatWorker struct {
	free, full chan []endpoints
}

// forEach calls emit with the endpoints of attempts 0, 1, 2, ... drawn
// from rng.New(seed), in order, until emit returns false or n attempts
// have been made: exactly what a serial loop of attemptKey calls would
// see. Workers generate fixed chunks of rmatChunk attempts in parallel;
// since every attempt consumes draws() draws, chunk k starts k jumps of
// rmatChunk*draws() draws into the stream. Worker w takes chunks w,
// w+W, w+2W, ... and emit runs on the calling goroutine. forEach returns
// once every worker has exited.
func (g *rmatGen) forEach(seed, n uint64, emit func(src, dst uint64) bool) {
	chunks := (n + rmatChunk - 1) / rmatChunk
	stride := min(uint64(runtime.GOMAXPROCS(0)), chunks) // the worker count W
	var jump *rng.Jump
	if chunks > 1 {
		jump = rng.NewJump(rmatChunk * g.draws())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	workers := make([]rmatWorker, stride)
	start := *rng.New(seed)
	for w := range workers {
		workers[w] = rmatWorker{
			free: make(chan []endpoints, rmatDepth),
			full: make(chan []endpoints, rmatDepth),
		}
		for i := 0; i < rmatDepth; i++ {
			workers[w].free <- make([]endpoints, min(rmatChunk, n))
		}
		wg.Add(1)
		go func(w rmatWorker, first uint64, r rng.RNG) {
			defer wg.Done()
			for c := first; c < chunks; c += stride {
				if c != first {
					for i := uint64(0); i < stride; i++ {
						jump.Advance(&r)
					}
				}
				var buf []endpoints
				select {
				case buf = <-w.free:
				case <-done:
					return
				}
				buf = buf[:min(rmatChunk, n-c*rmatChunk)]
				s := r
				for i := range buf {
					buf[i].src, buf[i].dst = g.attemptKey(&s)
				}
				w.full <- buf // never blocks: full holds all rmatDepth buffers
			}
		}(workers[w], uint64(w), start)
		if w+1 < len(workers) {
			jump.Advance(&start)
		}
	}
	for c := uint64(0); c < chunks; c++ {
		w := workers[c%stride]
		buf := <-w.full
		for _, e := range buf {
			if !emit(e.src, e.dst) {
				return
			}
		}
		w.free <- buf
	}
}

// keySet is an open-addressing (linear probing) set of uint64 keys,
// sized on creation for the most keys it will hold, so it never grows.
// A zero slot is empty; the key 0 itself is kept in hasZero.
type keySet struct {
	slots   []uint64
	shift   uint
	hasZero bool
}

// newKeySet returns a set for up to n keys, at most half full.
func newKeySet(n uint64) *keySet {
	size, shift := uint64(2), uint(63)
	for size < 2*n {
		size <<= 1
		shift--
	}
	return &keySet{slots: make([]uint64, size), shift: shift}
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k uint64) bool {
	if k == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// PowerLawConfig parameterizes a Chung-Lu style power-law generator: vertex
// v's expected out-degree is proportional to (v+1)^(-alpha), then vertex IDs
// are shuffled so degree does not correlate with ID.
type PowerLawConfig struct {
	NumVertices uint64
	NumEdges    uint64
	Alpha       float64 // skew exponent; 0.6-0.9 resembles social graphs
	Weighted    bool
	Seed        uint64
}

// PowerLaw generates a directed power-law graph.
func PowerLaw(cfg PowerLawConfig) (*Graph, error) {
	if cfg.NumVertices == 0 {
		return nil, fmt.Errorf("graph: PowerLaw with zero vertices: %w", errs.ErrInvalidConfig)
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.7
	}
	r := rng.New(cfg.Seed)
	n := cfg.NumVertices
	// Build the cumulative degree-weight table.
	cum := make([]float64, n)
	acc := 0.0
	for i := uint64(0); i < n; i++ {
		acc += math.Pow(float64(i+1), -cfg.Alpha)
		cum[i] = acc
	}
	total := acc
	// Random relabeling so hot vertices are spread over the ID space.
	label := make([]int, n)
	r.Perm(label)
	sample := func() VertexID {
		u := r.Float64() * total
		lo, hi := 0, int(n)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return VertexID(label[lo])
	}
	b := NewBuilder(n)
	for uint64(b.NumEdges()) < cfg.NumEdges {
		src := sample()
		dst := VertexID(r.Uint64n(n))
		if cfg.Weighted {
			b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
		} else {
			b.AddEdge(src, dst)
		}
	}
	return b.Build()
}

// Uniform generates an Erdős–Rényi-style directed graph with exactly
// numEdges uniformly random edges.
func Uniform(numVertices, numEdges, seed uint64) (*Graph, error) {
	if numVertices == 0 {
		return nil, fmt.Errorf("graph: Uniform with zero vertices: %w", errs.ErrInvalidConfig)
	}
	r := rng.New(seed)
	b := NewBuilder(numVertices)
	for uint64(b.NumEdges()) < numEdges {
		b.AddEdge(VertexID(r.Uint64n(numVertices)), VertexID(r.Uint64n(numVertices)))
	}
	return b.Build()
}

// Ring generates a cycle graph: v -> (v+1) mod n. Useful in tests because
// every walk's trajectory is fully determined.
func Ring(numVertices uint64) *Graph {
	b := NewBuilder(numVertices)
	for v := uint64(0); v < numVertices; v++ {
		b.AddEdge(v, (v+1)%numVertices)
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // cannot fail: all endpoints in range
	}
	return g
}

// Complete generates a complete directed graph without self-loops.
func Complete(numVertices uint64) *Graph {
	b := NewBuilder(numVertices)
	for u := uint64(0); u < numVertices; u++ {
		for v := uint64(0); v < numVertices; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Star generates a hub-and-spoke graph: the hub (vertex 0) points at every
// spoke and every spoke points back. Vertex 0 is a guaranteed dense vertex,
// which exercises the pre-walking path.
func Star(numSpokes uint64) *Graph {
	b := NewBuilder(numSpokes + 1)
	for v := uint64(1); v <= numSpokes; v++ {
		b.AddEdge(0, v)
		b.AddEdge(v, 0)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
