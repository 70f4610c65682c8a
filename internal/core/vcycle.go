package core

import (
	"context"
	"math/rand"

	"mlpart/internal/hypergraph"
)

// VCycle performs iterated multilevel refinement on an existing
// bipartition: the netlist is re-coarsened with *restricted* matching
// (only cell pairs in the same block may merge, so every coarse
// solution is exactly representable), the current solution is pushed
// to the coarsest level, and the uncoarsening sweep refines it at
// every level. Cycles repeat while they improve, up to maxCycles.
//
// This is the "V-cycle" of the later multilevel literature (hMETIS);
// the paper's §V idea of spending more effort at the top levels
// composes naturally with it. Returns the refined partition (the
// input is not modified) and the final cut.
func VCycle(h *hypergraph.Hypergraph, p *hypergraph.Partition, maxCycles int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, int, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return VCycleCtx(context.Background(), h, p, maxCycles, cfg, rng)
}

// VCycleCtx is VCycle with cooperative cancellation: the context is
// polled between cycles and threaded into each cycle's matching and
// refinement. Since every cycle starts from (a clone of) the incoming
// solution, cancellation simply stops iterating and returns the best
// solution seen — which is never worse than the input.
func VCycleCtx(ctx context.Context, h *hypergraph.Hypergraph, p *hypergraph.Partition, maxCycles int, cfg Config, rng *rand.Rand) (*hypergraph.Partition, int, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, 0, err
	}
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	if err := p.Validate(h.NumCells()); err != nil {
		return nil, 0, err
	}
	if maxCycles < 1 {
		maxCycles = 1
	}
	// One workspace bundle shared by every cycle: the restricted
	// hierarchies have the same shape, so the scratch arrays stabilize
	// after the first cycle. Projection buffers stay per-cycle locals —
	// the winning candidate escapes into best below.
	ws := &pipelineWS{}
	defer ws.startPool(cfg.IntraParallelism)()
	d := cfg.driver(ctx, ws)
	best := p.Clone()
	bestCut := best.WeightedCut(h)
	for cycle := 0; cycle < maxCycles && ctx.Err() == nil; cycle++ {
		// Each cycle re-coarsens around (a copy of) the best solution,
		// restricted to same-block matching, and refines it back down.
		cand, _, err := d.run(ctx, h, nil, nil, best.Clone(), rng)
		if err != nil {
			return nil, 0, err
		}
		cut := cand.WeightedCut(h)
		if cut >= bestCut {
			break
		}
		best, bestCut = cand, cut
	}
	return best, bestCut, nil
}
