package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"flashwalker/internal/core.(*Engine).decideBatch", "main.main"}, "core"},
		{[]string{"flashwalker/internal/sim.(*Engine).Run"}, "sim"},
		{[]string{"flashwalker/internal/bloom.(*Filter).Has", "flashwalker/internal/core.(*Engine).decideHop"}, "bloom"},
		{[]string{"runtime.memmove", "flashwalker/internal/core.compactFront"}, "copy"},
		{[]string{"runtime.duffcopy"}, "copy"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"runtime.mallocgc", "flashwalker/internal/core.(*Engine).newBatch"}, ""},
		{[]string{"encoding/gob.(*Encoder).Encode"}, ""},
		{nil, ""},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestSelfShares(t *testing.T) {
	got := selfShares([]profSample{
		{frames: []string{"flashwalker/internal/sim.(*Engine).pop"}, value: 50},
		{frames: []string{"flashwalker/internal/flash.(*SSD).Read"}, value: 25},
		{frames: []string{"runtime.futex"}, value: 25},
	})
	want := map[string]float64{"sim": 0.5, "flash": 0.25}
	if len(got) != len(want) {
		t.Fatalf("selfShares = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("share[%s] = %v, want %v", k, got[k], v)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			x += i ^ x
		}
	}
	return x
}

// readProfile decodes a real profile written by runtime/pprof: the busy
// function must hold most of its self time.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, mine int64
	for _, s := range samples {
		total += s.value
		for _, f := range s.frames {
			if f == "flashwalker/fwbench.spin" {
				mine += s.value
				break
			}
		}
	}
	if total == 0 || float64(mine)/float64(total) < 0.5 {
		t.Fatalf("spin holds %d of %d ns in %d samples", mine, total, len(samples))
	}
	if math.Abs(float64(total)/1e9-0.4) > 0.3 {
		t.Errorf("profile covers %v s of CPU, want about 0.4", float64(total)/1e9)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Fatal("readProfile accepted garbage")
	}
}
