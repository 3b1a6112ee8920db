package core

import (
	"fmt"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
)

// Dynamic-graph mutation support. A RunConfig.Mutations stream is applied
// strictly between simulated events through the kernel's applier hook
// (sim.SetApplier): a mutation stamped T is applied immediately before the
// first event at time >= T, so it is visible to that event and invisible to
// everything earlier. The At == 0 prefix applies at construction, before
// hot-subgraph selection and walk seeding.
//
// Every derived structure is maintained incrementally and provably matches
// a from-scratch rebuild over the mutated graph:
//
//   - the CSR arrays (graph.ApplyMutation — splice-equals-rebuild, proven
//     in internal/graph),
//   - per-block degree tables and byte sizes (Partitioned.ApplyEdgeDelta;
//     the block skeleton itself is frozen — stream validation caps every
//     touched vertex below the dense threshold, and overflowing a block
//     fails the run rather than silently re-partitioning),
//   - the second-order edge Bloom filter (bloom.Counting — counts are
//     additive over the edge multiset, proven in internal/bloom),
//   - per-vertex alias tables (GraphAlias.RebuildVertex — a table is a
//     pure function of one vertex's weight vector).
//
// TestMutationMetamorphic in this package closes the loop end to end:
// running with an At == 0 stream is bit-identical to running over the
// rebuilt mutated graph with no stream.

// ValidateMutations checks a stream against the initial graph with the
// partitioning's dense-vertex threshold as the degree cap. The service
// layer's normalize calls it at submission so a bad stream is a 400, never
// an async worker failure.
func ValidateMutations(g *graph.Graph, pc partition.Config, ms graph.MutationStream) error {
	return validateMutations(g, pc, ms)
}

// validateMutations checks a stream against the initial graph with the
// partitioning's dense-vertex threshold as the degree cap. Shared by run
// construction and the service layer's normalize.
func validateMutations(g *graph.Graph, pc partition.Config, ms graph.MutationStream) error {
	if len(ms) == 0 {
		return nil
	}
	var maxDeg uint64
	if eb := pc.EdgeBytes(g.Weighted()); eb > 0 && pc.BlockBytes > int64(pc.IDBytes) {
		maxDeg = pc.EdgesPerBlock(g.Weighted())
	}
	if err := ms.Validate(g, maxDeg); err != nil {
		return fmt.Errorf("core: mutation stream: %v: %w", err, errs.ErrInvalidConfig)
	}
	return nil
}

// cloneForMutations validates the stream and returns a private copy of the
// graph to mutate; with no stream the caller's graph is used directly (the
// classic zero-copy static path).
func cloneForMutations(g *graph.Graph, rc RunConfig) (*graph.Graph, error) {
	if len(rc.Mutations) == 0 {
		return g, nil
	}
	if err := validateMutations(g, rc.PartCfg, rc.Mutations); err != nil {
		return nil, err
	}
	return g.Clone(), nil
}

// applyShared patches everything a run shares, each once however many
// boards it has: the CSR arrays, the per-block degree/byte stats, and the
// derived indexes (the counting edge filter and the mutated vertex's alias
// table; the hot-block sums are construction-time by design).
func applyShared(g *graph.Graph, part *partition.Partitioned, ix *indexes, m graph.Mutation) error {
	delta := int64(1)
	if m.Op == graph.OpDeleteEdge {
		delta = -1
	}
	if err := part.ApplyEdgeDelta(m.Src, delta); err != nil {
		return err
	}
	if err := g.ApplyMutation(m); err != nil {
		return err
	}
	if ix.edgeFilterC != nil {
		if key := partition.EdgeKey(m.Src, m.Dst); delta > 0 {
			ix.edgeFilterC.Add(key)
		} else {
			ix.edgeFilterC.Remove(key)
		}
	}
	if ix.alias != nil {
		return ix.alias.RebuildVertex(g, m.Src)
	}
	return nil
}

// applyMutation applies one mutation fleet-wide: the shared graph,
// partition stats and derived indexes, each once. The board owning the
// mutated vertex's home partition gets the attribution count — a sharded
// mutation lands on its owning board.
func (a *Array) applyMutation(m graph.Mutation) error {
	if err := applyShared(a.g, a.part, a.ix, m); err != nil {
		return err
	}
	owner := a.shard.BoardOf(a.boards[0].homePartition(m.Src))
	a.boards[owner].res.MutationsApplied++
	return nil
}

// applyMutations is the applier hook: it applies every not-yet-applied
// mutation stamped at or before the next event's time. An apply failure
// (block overflow) fails the run.
func (a *Array) applyMutations(next sim.Time) {
	for a.mutCursor < len(a.muts) && sim.Time(a.muts[a.mutCursor].At) <= next {
		if err := a.applyMutation(a.muts[a.mutCursor]); err != nil {
			a.fail(fmt.Errorf("core: mutation %d: %w", a.mutCursor, err))
			a.eng.ClearApplier()
			return
		}
		a.mutCursor++
	}
}
