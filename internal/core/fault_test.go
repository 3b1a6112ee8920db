package core

import (
	"testing"

	"flashwalker/internal/fault"
	"flashwalker/internal/sim"
	"flashwalker/internal/walk"
)

// Fault-injection tests for the full engine: the metamorphic guarantee
// (faults change when walks finish, never whether or where they go), the
// zero-rate bit-identity with the golden digest, and replay determinism of
// fault-enabled runs.

// aggressiveFaults is a profile hot enough to exercise every fault path on
// the small test rig: frequent read errors, early sticky degradation, and
// plane-busy stalls.
func aggressiveFaults() fault.Config {
	c := fault.Default()
	c.ReadErrorRate = 0.1
	c.PlaneBusyRate = 0.1
	c.DegradeAfterErrors = 4
	return c
}

// TestGoldenDigestZeroRateFaults proves the injector's zero-rate identity at
// engine scope: an attached injector with every rate at zero makes no draws
// and injects no latency, so the run is bit-identical to the golden digest.
func TestGoldenDigestZeroRateFaults(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.Cfg.Faults = fault.Config{Enabled: true, Seed: 0xFA17}
	res := runEngine(t, g, rc)
	if got := digestResult(res); got != goldenDigest {
		t.Fatalf("zero-rate injector moved the golden timeline:\n got %s\nwant %s", got, goldenDigest)
	}
	if res.Faults != (fault.Counters{}) {
		t.Fatalf("zero-rate injector counted faults: %+v", res.Faults)
	}
}

// TestMetamorphicCleanVsFaulty is the load-bearing invariant: because every
// walk samples from its own RNG stream, injected faults shift the event
// timeline but cannot change any trajectory. Clean and faulty runs must
// agree exactly on walk outcomes — including per-vertex visit counts — not
// just approximately.
func TestMetamorphicCleanVsFaulty(t *testing.T) {
	g := testGraph(t)
	specs := map[string]walk.Spec{
		"unbiased":    {Kind: walk.Unbiased, Length: 6},
		"secondorder": {Kind: walk.SecondOrder, Length: 6, P: 0.5, Q: 2},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			rc := goldenConfig()
			rc.Spec = spec
			rc.TrackVisits = true
			clean := runEngine(t, g, rc)

			rc.Cfg.Faults = aggressiveFaults()
			faulty := runEngine(t, g, rc)

			if faulty.Faults.ReadErrors == 0 {
				t.Fatalf("fault profile injected nothing: %+v", faulty.Faults)
			}
			assertSameOutcomes(t, "faulty run vs clean:", faulty, clean)
		})
	}
}

// TestFaultyRunDeterministic runs the same fault-enabled fixture three times
// and requires identical digests AND identical fault/retry/degradation
// counters: the fault sequence is a pure function of (workload, fault seed).
func TestFaultyRunDeterministic(t *testing.T) {
	g := testGraph(t)
	run := func() (string, *Result) {
		rc := goldenConfig()
		rc.Cfg.Faults = aggressiveFaults()
		res := runEngine(t, g, rc)
		return digestResult(res), res
	}
	d0, r0 := run()
	for i := 1; i < 3; i++ {
		d, r := run()
		if d != d0 {
			t.Fatalf("run %d digest diverged:\n got %s\nwant %s", i, d, d0)
		}
		if r.Faults != r0.Faults || r.FaultReroutes != r0.FaultReroutes ||
			r.FailoverBlocks != r0.FailoverBlocks {
			t.Fatalf("run %d fault counters diverged:\n got %+v reroutes=%d failover=%d\nwant %+v reroutes=%d failover=%d",
				i, r.Faults, r.FaultReroutes, r.FailoverBlocks,
				r0.Faults, r0.FaultReroutes, r0.FailoverBlocks)
		}
	}
	if r0.Faults.ReadErrors == 0 || r0.Faults.Retries == 0 {
		t.Fatalf("fixture injected no faults: %+v", r0.Faults)
	}
}

// TestDegradationFailsOverToChannel drives a chip into sticky degradation
// and checks the scheduler response: blocks fail over into the channel hot
// set and later walks for them are rerouted there.
func TestDegradationFailsOverToChannel(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	rc.Cfg.Faults = fault.Config{
		Enabled:             true,
		Seed:                0xFA17,
		ReadErrorRate:       0.3,
		MaxRetries:          2,
		RetryBackoff:        5 * sim.Microsecond,
		DegradeAfterErrors:  2,
		DegradedReadPenalty: 30 * sim.Microsecond,
	}
	res := runEngine(t, g, rc)
	if res.Faults.DegradedChips == 0 {
		t.Fatalf("no chip degraded under 30%% error rate: %+v", res.Faults)
	}
	if res.FailoverBlocks == 0 {
		t.Fatal("degraded chips failed no blocks over to their channel")
	}
	if res.FaultReroutes == 0 {
		t.Fatal("no walk was rerouted to a failed-over channel block")
	}
	if res.WalksFinished() != res.Started {
		t.Fatalf("degradation lost walks: %d of %d finished", res.WalksFinished(), res.Started)
	}
}

// TestFaultPropertyRandomized sweeps randomized (seed, fault-rate) pairs and
// asserts the engine-level invariants hold under every one: each started
// walk terminates exactly once, the conservation audit stays silent, and
// the clean twin of every faulty run agrees on outcomes.
func TestFaultPropertyRandomized(t *testing.T) {
	g := testGraph(t)
	iters := 6
	if testing.Short() {
		iters = 2
	}
	for i := 0; i < iters; i++ {
		rc := testConfig()
		rc.Audit = true
		rc.Cfg.Seed = uint64(100 + i)
		rc.StartSeed = uint64(200 + i)
		rc.NumWalks = 100 + 25*i
		clean := runEngine(t, g, rc)

		rc.Cfg.Faults = fault.Config{
			Enabled:            true,
			Seed:               uint64(300 + i),
			ReadErrorRate:      0.02 * float64(i+1),
			PlaneBusyRate:      0.03 * float64(i),
			PlaneBusyTime:      15 * sim.Microsecond,
			MaxRetries:         i % 4,
			RetryBackoff:       sim.Time(5+i) * sim.Microsecond,
			DegradeAfterErrors: 8 * (i + 1),
		}
		faulty := runEngine(t, g, rc)

		for name, r := range map[string]*Result{"clean": clean, "faulty": faulty} {
			if r.Completed+r.DeadEnded != r.Started {
				t.Fatalf("iter %d %s: %d completed + %d dead != %d started",
					i, name, r.Completed, r.DeadEnded, r.Started)
			}
		}
		if clean.Completed != faulty.Completed || clean.Hops != faulty.Hops {
			t.Fatalf("iter %d: clean (completed=%d hops=%d) vs faulty (completed=%d hops=%d)",
				i, clean.Completed, clean.Hops, faulty.Completed, faulty.Hops)
		}
	}
}
