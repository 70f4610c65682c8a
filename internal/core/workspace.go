package core

import (
	"mlpart/internal/coarsen"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/intrapar"
)

// pipelineWS bundles the scratch workspaces of one pipeline attempt:
// the matching sweep's score buffers, the induce accumulators and the
// refinement engine's arrays/buckets. Every entry point creates one
// per call (and the multi-start supervisor therefore gets one per
// attempt goroutine), so hierarchy levels — and, in V-cycles, whole
// cycles — reuse scratch memory while nothing is ever shared across
// goroutines or retained in package state.
//
// Partition buffers deliberately do NOT live here: projected solutions
// escape to callers (VCycleCtx keeps the best candidate across
// cycles), so the uncoarsening sweep uses per-call alternating buffers
// instead.
type pipelineWS struct {
	match  coarsen.Workspace
	induce hypergraph.InduceWorkspace
	refine fm.Workspace

	// pool is the attempt's intra-parallelism worker pool, nil for the
	// serial pipeline. Created once per attempt (goroutines spin up
	// once, not per level) and closed when the attempt returns.
	pool *intrapar.Pool
}

// startPool arms the attempt's worker pool for IntraParallelism intra
// (0 keeps the serial pipeline: a nil pool). The returned cleanup is
// always safe to defer. Both branches reset ws.pool so a reused
// bundle (Scratch) never hands a closed — or stale — pool to a later
// attempt with a different IntraParallelism.
func (ws *pipelineWS) startPool(intra int) func() {
	if intra <= 0 {
		ws.pool = nil
		return func() {}
	}
	ws.pool = intrapar.New(intra)
	return func() {
		ws.pool.Close()
		ws.pool = nil
	}
}

// Scratch is a reusable pipeline workspace bundle for sequential
// batch execution. A caller that runs many small attempts
// back-to-back on one goroutine (mlpartd's micro-batcher) threads one
// Scratch through Config.Scratch / QuadConfig.Scratch so successive
// attempts reuse the same match/induce/refine buffers instead of
// growing a fresh set per job — the per-job setup cost is amortized
// across the batch.
//
// Contract: a Scratch is single-goroutine. At most one attempt may
// use it at a time, so callers must force sequential execution
// (Parallelism 1) for every run that carries it. Reuse is
// bit-identity preserving: every workspace in the bundle is fully
// reset at the start of each use, so a result computed on a reused
// Scratch is byte-identical to one computed on a fresh bundle — the
// same contract the per-attempt workspace reuse across hierarchy
// levels already relies on.
type Scratch struct {
	ws pipelineWS
}

// NewScratch returns an empty reusable workspace bundle.
func NewScratch() *Scratch { return &Scratch{} }

// attemptWS returns the workspace bundle one attempt should use: the
// shared bundle when a Scratch is configured, a fresh per-call bundle
// otherwise (nil receiver = the default per-attempt behavior).
func (s *Scratch) attemptWS() *pipelineWS {
	if s == nil {
		return &pipelineWS{}
	}
	return &s.ws
}

// projectionBuffers returns the two pre-sized partition buffers the
// uncoarsening sweep alternates between; numCells is the finest
// (largest) level, so no projection reallocates.
func projectionBuffers(numCells, k int) (*hypergraph.Partition, *hypergraph.Partition) {
	a := &hypergraph.Partition{Part: make([]int32, 0, numCells), K: k}
	b := &hypergraph.Partition{Part: make([]int32, 0, numCells), K: k}
	return a, b
}

// copyInto copies src into dst, reusing dst's backing array when large
// enough — used to move the coarsest solution into a pre-sized
// projection buffer before the uncoarsening sweep.
func copyInto(dst, src *hypergraph.Partition) {
	if cap(dst.Part) < len(src.Part) {
		dst.Part = make([]int32, len(src.Part))
	}
	dst.Part = dst.Part[:len(src.Part)]
	copy(dst.Part, src.Part)
	dst.K = src.K
}
