package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"flashwalker/internal/errs"
	"flashwalker/internal/rng"
)

// graphDigest is a SHA-256 over the CSR arrays, each prefixed by its
// length, so any change to a generated graph's layout, edges or weights
// moves it.
func graphDigest(g *Graph) string {
	h := sha256.New()
	for _, s := range []any{g.Offsets, g.Edges, g.Weights, g.CumWeights} {
		n := 0
		switch s := s.(type) {
		case []uint64:
			n = len(s)
		case []float32:
			n = len(s)
		}
		binary.Write(h, binary.LittleEndian, uint64(n)) // hash writes never fail
		binary.Write(h, binary.LittleEndian, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMATDigests pins the exact graphs RMAT generates for the corner
// configurations: weighted (weights drawn only for kept edges), no noise
// (one draw per level), a vertex count that is not a power of two, a
// single vertex (zero levels, so every attempt yields the self-loop), and
// the dense duplicate corner where the attempt cap ends generation.
func TestRMATDigests(t *testing.T) {
	weighted := DefaultRMAT(256, 1024, 9)
	weighted.Weighted = true
	weightedDup := weighted
	weightedDup.RemoveDuplicates = false
	noNoise := DefaultRMAT(512, 4096, 3)
	noNoise.Noise = 0
	keepDup := DefaultRMAT(128, 3000, 17)
	keepDup.RemoveDuplicates = false
	one := DefaultRMAT(1, 50, 5)
	oneDup := one
	oneDup.RemoveDuplicates = false
	cases := []struct {
		name string
		cfg  RMATConfig
		want string
	}{
		{"weighted", weighted, "e55058b26b305ec9d5aad1550e8d76a7fee04ba2b968fdb0abfcea60e3bbaad3"},
		{"weighted-keep-duplicates", weightedDup, "24f0acd4c150062625dd6cdc015844e29ca8c5123d21b62036791b979b99f685"},
		{"noise-0", noNoise, "9377ecb5c8d6919da1ae978cba4e23a4a30292c37de7fbe359e9ceea4a9b9774"},
		{"keep-duplicates", keepDup, "5976778d74dd130e45d9e43f12f8f221f662c864f043d385fa9d5ee5854e5407"},
		{"non-power-of-two", DefaultRMAT(1000, 6000, 11), "9add3d54abc359ec69c67c6191412be068865d4837a63f26630f31fc8d60bbad"},
		{"one-vertex", one, "3e02bbc4abe3ed875ad3e2707005efbf6a9908158b23439a70886f5c47e1090f"},
		{"one-vertex-keep-duplicates", oneDup, "d1d82448e406fa10a0524c86f8f355b64e8144efcdffb898a60a1dc2fe7553ff"},
		{"duplicate-give-up", DefaultRMAT(4, 100, 1), "ddf55487c09cd6499546ee3cda5cc379ea40464f9a701965c2fec5fc39c2b7c0"},
	}
	for _, c := range cases {
		g, err := RMAT(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := graphDigest(g); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestRMATDuplicateGiveUp checks the documented stop: with duplicate
// removal on and more edges asked for than distinct (src, dst) pairs
// exist, RMAT stops after its attempt cap and returns every distinct pair
// it found, here all 4x4 = 16.
func TestRMATDuplicateGiveUp(t *testing.T) {
	g, err := RMAT(DefaultRMAT(4, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 16 {
		t.Fatalf("E = %d, want 16 (every distinct pair of 4 vertices)", g.NumEdges())
	}
}

// TestRMATLeavesNoGoroutines checks that RMAT's workers have all exited
// when it returns, both when it stops at NumEdges with chunks still being
// generated and when it runs out of attempts.
func TestRMATLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, cfg := range []RMATConfig{DefaultRMAT(4096, 50_000, 1), DefaultRMAT(16, 1000, 2)} {
		if _, err := RMAT(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A worker is counted until it has finished exiting, a moment after
	// RMAT's wait on it returns; give it that moment.
	after := runtime.NumGoroutine()
	for i := 0; i < 1000 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("%d goroutines before RMAT, %d after", before, after)
	}
}

// FuzzRMATMatchesSerial requires RMAT to return exactly the graph of the
// original single-goroutine generator, serialRMAT, on small configs. The
// largest (512 vertices, 4096 edges) span several chunks of attempts, so
// the jump-ahead, the in-order dedupe and the early stop all take part.
func FuzzRMATMatchesSerial(f *testing.F) {
	f.Add(uint16(512), uint16(4096), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(1), false, true)
	f.Add(uint16(1000), uint16(6000), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(11), false, true)
	f.Add(uint16(300), uint16(4000), 0.57, 0.19, 0.19, 0.05, 0.0, uint64(3), false, true)
	f.Add(uint16(100), uint16(2000), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(4), true, true)
	f.Add(uint16(256), uint16(1024), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(9), true, false)
	f.Add(uint16(128), uint16(3000), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(17), false, false)
	f.Add(uint16(1), uint16(50), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(5), false, true)
	f.Add(uint16(4), uint16(100), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(1), false, true)
	f.Add(uint16(16), uint16(1000), 0.45, 0.22, 0.22, 0.11, 0.05, uint64(2), false, true)
	f.Add(uint16(64), uint16(0), 0.25, 0.25, 0.25, 0.25, 0.0, uint64(6), false, true)
	f.Add(uint16(64), uint16(500), 0.9, 0.9, 0.9, 0.9, 3.0, uint64(8), false, true)
	f.Fuzz(func(t *testing.T, v, e uint16, a, b, c, d, noise float64, seed uint64, weighted, dedupe bool) {
		cfg := RMATConfig{
			NumVertices: 1 + uint64(v)%512, NumEdges: uint64(e) % 4097,
			A: a, B: b, C: c, D: d, Noise: noise,
			RemoveDuplicates: dedupe, Weighted: weighted, Seed: seed,
		}
		// Scale the probabilities to sum to 1 where that is possible, so
		// most inputs reach the generator rather than the sum check.
		if sum := math.Abs(a) + math.Abs(b) + math.Abs(c) + math.Abs(d); sum > 0 && !math.IsInf(sum, 0) {
			cfg.A, cfg.B, cfg.C, cfg.D = math.Abs(a)/sum, math.Abs(b)/sum, math.Abs(c)/sum, math.Abs(d)/sum
		}
		got, gotErr := RMAT(cfg)
		want, wantErr := serialRMAT(cfg)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v: RMAT error %v, serial error %v", cfg, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if g, w := graphDigest(got), graphDigest(want); g != w {
			t.Fatalf("%+v: RMAT made %d edges (digest %s), serial %d (digest %s)",
				cfg, got.NumEdges(), g, want.NumEdges(), w)
		}
	})
}

// serialRMAT is the original single-goroutine R-MAT generator, kept
// verbatim as the oracle RMAT must match bit for bit.
func serialRMAT(cfg RMATConfig) (*Graph, error) {
	if cfg.NumVertices == 0 {
		return nil, fmt.Errorf("graph: RMAT with zero vertices: %w", errs.ErrInvalidConfig)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("graph: RMAT probabilities sum to %v, want 1: %w", sum, errs.ErrInvalidConfig)
	}
	levels := 0
	pow := uint64(1)
	for pow < cfg.NumVertices {
		pow <<= 1
		levels++
	}
	r := rng.New(cfg.Seed)
	b := NewBuilder(cfg.NumVertices)
	seen := map[uint64]struct{}{}
	attempts := uint64(0)
	maxAttempts := cfg.NumEdges*20 + 1000
	for uint64(b.NumEdges()) < cfg.NumEdges {
		attempts++
		if attempts > maxAttempts {
			break
		}
		var src, dst uint64
		for l := 0; l < levels; l++ {
			a, bb, c := cfg.A, cfg.B, cfg.C
			if cfg.Noise > 0 {
				na := a * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nb := bb * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nc := c * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				nd := cfg.D * (1 - cfg.Noise + 2*cfg.Noise*r.Float64())
				tot := na + nb + nc + nd
				a, bb, c = na/tot, nb/tot, nc/tot
			}
			u := r.Float64()
			switch {
			case u < a:
			case u < a+bb:
				dst |= 1 << l
			case u < a+bb+c:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		src %= cfg.NumVertices
		dst %= cfg.NumVertices
		if cfg.RemoveDuplicates {
			key := src*cfg.NumVertices + dst
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
		}
		if cfg.Weighted {
			b.AddWeightedEdge(src, dst, float32(r.Float64())+1e-6)
		} else {
			b.AddEdge(src, dst)
		}
	}
	return b.Build()
}
