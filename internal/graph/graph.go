// Package graph provides the directed-graph representation used by both
// engines: an immutable CSR (compressed sparse row) structure with optional
// edge weights, plus builders, synthetic generators, binary serialization
// and degree statistics.
//
// Vertex IDs are uint64 because ClueWeb-scale graphs exceed the 4-byte ID
// range (paper §IV-A); the scaled analogues in this repo fit easily, but the
// representation matches the paper's.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex.
type VertexID = uint64

// Edge is a directed edge, optionally weighted.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an immutable directed graph in CSR form. Offsets has
// NumVertices+1 entries; the out-edges of vertex v are
// Edges[Offsets[v]:Offsets[v+1]] (and Weights likewise when weighted).
type Graph struct {
	Offsets []uint64
	Edges   []VertexID
	Weights []float32 // nil for unweighted graphs

	// CumWeights[i] is the cumulative weight of edges of a vertex up to and
	// including edge i, restarting at each vertex. Present only on weighted
	// graphs; it is the pre-computed cumulative-distribution list CL that
	// inverse transform sampling binary-searches (paper §III-B).
	CumWeights []float32
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() uint64 { return uint64(len(g.Offsets)) - 1 }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() uint64 { return uint64(len(g.Edges)) }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.Weights != nil }

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VertexID) uint64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// OutEdges returns the out-neighbor slice of v (aliasing internal storage).
func (g *Graph) OutEdges(v VertexID) []VertexID {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// OutWeights returns the edge-weight slice of v, or nil if unweighted.
func (g *Graph) OutWeights(v VertexID) []float32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// OutCumWeights returns the per-vertex cumulative weight list of v, or nil.
func (g *Graph) OutCumWeights(v VertexID) []float32 {
	if g.CumWeights == nil {
		return nil
	}
	return g.CumWeights[g.Offsets[v]:g.Offsets[v+1]]
}

// SumWeight returns the total out-edge weight of v (paper's v.sumWeight).
// For unweighted graphs it equals the out-degree.
func (g *Graph) SumWeight(v VertexID) float64 {
	deg := g.OutDegree(v)
	if deg == 0 {
		return 0
	}
	if g.CumWeights == nil {
		return float64(deg)
	}
	return float64(g.CumWeights[g.Offsets[v+1]-1])
}

// CSRBytes reports the size of the CSR representation in bytes, using the
// given per-ID width (4 or 8 as in Table IV) for both offsets and edges.
func (g *Graph) CSRBytes(idBytes int) int64 {
	n := int64(len(g.Offsets))*int64(idBytes) + int64(len(g.Edges))*int64(idBytes)
	if g.Weights != nil {
		n += int64(len(g.Weights)) * 4
	}
	return n
}

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	if len(g.Offsets) == 0 {
		return errors.New("graph: empty offsets array")
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	if g.Offsets[len(g.Offsets)-1] != uint64(len(g.Edges)) {
		return fmt.Errorf("graph: offsets end %d != %d edges",
			g.Offsets[len(g.Offsets)-1], len(g.Edges))
	}
	for i := 1; i < len(g.Offsets); i++ {
		if g.Offsets[i] < g.Offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotone at %d", i)
		}
	}
	n := g.NumVertices()
	for i, dst := range g.Edges {
		if dst >= n {
			return fmt.Errorf("graph: edge %d targets %d >= %d vertices", i, dst, n)
		}
	}
	if g.Weights != nil {
		if len(g.Weights) != len(g.Edges) {
			return fmt.Errorf("graph: %d weights for %d edges", len(g.Weights), len(g.Edges))
		}
		for i, w := range g.Weights {
			if w < 0 {
				return fmt.Errorf("graph: negative weight at edge %d", i)
			}
		}
	}
	return nil
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	numVertices uint64
	edges       []Edge
	weighted    bool
}

// NewBuilder creates a builder for a graph with numVertices vertices.
func NewBuilder(numVertices uint64) *Builder {
	return &Builder{numVertices: numVertices}
}

// AddEdge appends a directed, unweighted edge.
func (b *Builder) AddEdge(src, dst VertexID) {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: 1})
}

// AddWeightedEdge appends a directed edge with weight w; the resulting
// graph will be weighted.
func (b *Builder) AddWeightedEdge(src, dst VertexID, w float32) {
	b.weighted = true
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// NumEdges reports the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build sorts the edges into CSR form and returns the graph. Self-loops are
// kept; exact duplicates are kept (multigraphs are legal inputs for random
// walks). It returns an error if any endpoint is out of range.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.Src >= b.numVertices || e.Dst >= b.numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside %d vertices",
				e.Src, e.Dst, b.numVertices)
		}
	}
	// Counting sort by source for O(V+E) CSR construction.
	offsets := make([]uint64, b.numVertices+1)
	for _, e := range b.edges {
		offsets[e.Src+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	edges := make([]VertexID, len(b.edges))
	var weights []float32
	if b.weighted {
		weights = make([]float32, len(b.edges))
	}
	cursor := make([]uint64, b.numVertices)
	copy(cursor, offsets[:b.numVertices])
	for _, e := range b.edges {
		p := cursor[e.Src]
		edges[p] = e.Dst
		if weights != nil {
			weights[p] = e.Weight
		}
		cursor[e.Src] = p + 1
	}
	// Sort each adjacency list for deterministic layout and binary-search
	// friendliness.
	for v := uint64(0); v < b.numVertices; v++ {
		lo, hi := offsets[v], offsets[v+1]
		if weights == nil {
			slices.Sort(edges[lo:hi])
		} else {
			idx := make([]int, hi-lo)
			for i := range idx {
				idx[i] = i
			}
			e, w := edges[lo:hi], weights[lo:hi]
			sort.Slice(idx, func(i, j int) bool { return e[idx[i]] < e[idx[j]] })
			se := make([]VertexID, len(idx))
			sw := make([]float32, len(idx))
			for i, k := range idx {
				se[i], sw[i] = e[k], w[k]
			}
			copy(e, se)
			copy(w, sw)
		}
	}
	g := &Graph{Offsets: offsets, Edges: edges, Weights: weights}
	if weights != nil {
		g.CumWeights = buildCumWeights(offsets, weights)
	}
	return g, nil
}

// buildCumWeights computes the per-vertex cumulative weight lists.
func buildCumWeights(offsets []uint64, weights []float32) []float32 {
	cum := make([]float32, len(weights))
	for v := 0; v+1 < len(offsets); v++ {
		var acc float32
		for i := offsets[v]; i < offsets[v+1]; i++ {
			acc += weights[i]
			cum[i] = acc
		}
	}
	return cum
}

// FromEdges builds an unweighted graph directly from an edge list.
func FromEdges(numVertices uint64, edges []Edge) (*Graph, error) {
	b := NewBuilder(numVertices)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}
