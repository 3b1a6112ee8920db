package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values of 100", len(seen))
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	root := New(7)
	a, b := root.Derive(1), root.Derive(2)
	a2 := New(7).Derive(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	// Derive must not advance the parent.
	c, d := New(7), New(7)
	c.Derive(99)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Derive advanced the parent stream")
		}
	}
	_ = b
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square over 10 buckets; 100k draws. Critical value for 9 dof at
	// p=0.001 is 27.88; allow margin.
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 30 {
		t.Fatalf("chi-square = %.2f too high; counts = %v", chi2, counts)
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp(5) mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	out := make([]int, 50)
	r.Perm(out)
	seen := make([]bool, 50)
	for _, v := range out {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(23)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: %v", s)
	}
}

// Property: Uint64n(n) < n for all n >= 1.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(29)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// TestJumpMatchesSteps checks that a jump lands exactly where n calls to
// Uint64 do, across chunk-sized and odd distances.
func TestJumpMatchesSteps(t *testing.T) {
	for _, n := range []uint64{0, 1, 63, 64, 65, 8191, 655360, 1<<20 + 7} {
		want := New(n + 3)
		for i := uint64(0); i < n; i++ {
			want.Uint64()
		}
		got := New(n + 3)
		NewJump(n).Advance(got)
		if got.State() != want.State() {
			t.Fatalf("Jump(%d): state %x, want %x", n, got.State(), want.State())
		}
		for i := 0; i < 4; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Jump(%d): draw %d after the jump = %x, want %x", n, i, g, w)
			}
		}
	}
}

// TestJumpComposes checks that jumping by a and then by b equals one jump
// by a+b.
func TestJumpComposes(t *testing.T) {
	for _, ab := range [][2]uint64{{0, 5}, {1, 1}, {64, 8191}, {655360, 655360}, {12345, 1 << 40}} {
		a, b := ab[0], ab[1]
		split, whole := New(99), New(99)
		NewJump(a).Advance(split)
		NewJump(b).Advance(split)
		NewJump(a + b).Advance(whole)
		if split.State() != whole.State() {
			t.Fatalf("Jump(%d)+Jump(%d) != Jump(%d)", a, b, a+b)
		}
	}
}

func BenchmarkNewJump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewJump(655360)
	}
}

func BenchmarkJumpAdvance(b *testing.B) {
	j, r := NewJump(655360), New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Advance(r)
	}
}
