// Package core implements ML, the multilevel circuit partitioning
// algorithm of Alpert, Huang and Kahng (DAC 1997, Fig. 2): the
// netlist is recursively coarsened with the Match algorithm while it
// has more than T modules, the coarsest netlist is partitioned, and
// the solution is projected back level by level with FM/CLIP
// refinement at every level.
package core

import (
	"context"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/telemetry"
)

// Config parameterizes the ML algorithm.
type Config struct {
	// Threshold is the coarsening threshold T: coarsening proceeds
	// while |V_i| > T. Default 35 (the paper's bipartitioning
	// experiments; quadrisection uses T = 100).
	Threshold int
	// Ratio is the matching ratio R passed to Match. Default 1.0;
	// the paper's best bipartitioning results use R = 0.5.
	Ratio float64
	// Refine configures the FMPartition engine used at every level
	// (engine FM gives ML_F, engine CLIP gives ML_C).
	Refine fm.Config
	// CoarsestStarts > 1 partitions the coarsest netlist that many
	// times from independent random starts and keeps the best (§V
	// future work: spend more CPU at the top levels). Default 1.
	CoarsestStarts int
	// MaxLevels caps the hierarchy depth as a safety valve against
	// degenerate instances where Match cannot shrink the netlist.
	// 0 means a generous default of 64.
	MaxLevels int
	// IntraParallelism sizes the intra-attempt worker pool used for
	// parallel match scoring, parallel induce-CSR assembly, and the
	// sub-round-synchronous FM/CLIP engine. 0 (the default) keeps the
	// exact legacy serial pipeline. Any value >= 1 switches refinement
	// to the sub-round engine — a deterministic algorithm whose cuts
	// can differ from the serial engine's but are bit-identical across
	// all pool sizes, so results depend only on 0-vs->=1, never on the
	// worker count. Negative values are rejected.
	IntraParallelism int
	// MergeParallelNets merges identical coarse nets into single
	// weighted nets during coarsening (InduceMerged). The weighted
	// cut is provably unchanged, but the coarse netlists shrink,
	// which speeds refinement — the hMETIS-era optimization that the
	// paper's Definition 1 forgoes (ablation-mergenets measures it).
	MergeParallelNets bool
	// Audit enables from-scratch invariant checks (package audit) at
	// every level transition: clustering well-formedness and area
	// conservation after each coarsening step, and partition validity,
	// balance, and incremental-vs-recomputed cut agreement after each
	// refinement. O(pins) per transition; off by default.
	Audit bool
	// Inject optionally arms deterministic fault injection for this
	// attempt (sites coarsen.match, fm.pass, core.project,
	// core.rebalance). The injector is propagated into the coarsening
	// and refinement configs; nil costs one pointer check per site.
	Inject *faultinject.Injector
	// Telemetry optionally collects per-level coarsening stats,
	// per-pass refinement stats, rebalance counters and stage
	// timings for this attempt. It is propagated into the coarsening
	// and refinement configs; nil costs one pointer check per site.
	Telemetry *telemetry.Collector
	// Scratch, when non-nil, makes the attempt reuse a caller-owned
	// workspace bundle instead of creating a fresh one — see Scratch
	// for the single-goroutine contract. Nil keeps the default
	// bundle-per-attempt behavior.
	Scratch *Scratch
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if err := normalizeLevels(&c.Threshold, &c.Ratio, &c.CoarsestStarts, &c.MaxLevels, c.IntraParallelism, 35); err != nil {
		return c, err
	}
	var err error
	c.Refine, err = c.Refine.Normalize()
	return c, err
}

// Result reports what a multilevel run did.
type Result struct {
	// Cut of the final bipartitioning of H_0 (all nets counted).
	Cut int
	// Levels is m, the number of coarsening levels used.
	Levels int
	// CoarsestCells is |V_m|.
	CoarsestCells int
	// LevelCells records |V_i| for i = 0..m.
	LevelCells []int
	// RefineResults holds the per-level refinement summaries, index
	// 0 = coarsest ... last = H_0.
	RefineResults []fm.Result
	// Interrupted reports that cancellation (context or a Stop hook)
	// cut the run short. The returned partition is still feasible: the
	// remaining levels were projected and rebalanced without engine
	// passes.
	Interrupted bool
}

// Bipartition runs the ML algorithm of Fig. 2 on h and returns the
// final bipartitioning P_0 = {X_0, Y_0}.
func Bipartition(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return BipartitionCtx(context.Background(), h, cfg, rng)
}

// BipartitionCtx is Bipartition with cooperative cancellation. The
// context is polled at level transitions and at FM pass boundaries;
// once it is done, at most one FM pass of extra work happens before
// the run winds down: the current solution is projected to H_0 and
// rebalanced (no engine passes), so the returned partition is always
// feasible, with Result.Interrupted set. Cancellation is not an
// error.
//
// Internal invariant panics at any stage are recovered at the stage
// boundary and returned as a *PanicError together with the best
// feasible partition assembled from the work that completed.
func BipartitionCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	// One workspace bundle per attempt (or the caller's shared Scratch
	// for batched runs): every level of the run reuses the same scratch
	// memory, single-goroutine by construction. The intra-parallelism
	// pool lives exactly as long as the attempt.
	ws := cfg.Scratch.attemptWS()
	defer ws.startPool(cfg.IntraParallelism)()
	d := cfg.driver(ctx, ws)
	p, res, err := d.run(ctx, h, nil, nil, nil, rng)
	for _, r := range d.runs {
		// A start cut short after the kept one marks the coarsest entry.
		r.report.Interrupted = r.interrupted
		res.RefineResults = append(res.RefineResults, r.report)
	}
	return p, res, err
}

// driver wires cfg into the multilevel driver over the fm engines.
func (c Config) driver(ctx context.Context, ws *pipelineWS) *driver[fm.Result] {
	c.Refine.Stop = mergeStop(c.Refine.Stop, ctx)
	c.Refine.Inject, c.Refine.Telemetry = c.Inject, c.Telemetry
	c.Refine.WS, c.Refine.Par = &ws.refine, ws.pool
	c.Telemetry.RecordIntraWorkers(c.IntraParallelism)
	return &driver[fm.Result]{
		threshold: c.Threshold, starts: c.CoarsestStarts, maxLevels: c.MaxLevels, ratio: c.Ratio,
		mergeNets: c.MergeParallelNets, audit: c.Audit, inject: c.Inject, tel: c.Telemetry, ws: ws,
		k: 2, tol: c.Refine.Tolerance, eng: twoWay{c.Refine},
	}
}

// Hierarchy exposes the coarsening phase on its own: it returns the
// sequence of hypergraphs H_0..H_m and the clusterings between them.
// Useful for inspecting coarsening behaviour (examples, tests,
// experiments on hierarchy depth).
func Hierarchy(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) ([]*hypergraph.Hypergraph, []*hypergraph.Clustering, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, nil, err
	}
	ws := &pipelineWS{}
	defer ws.startPool(cfg.IntraParallelism)()
	//mllint:ignore ctx-thread Hierarchy is a non-cancellable inspection helper; coarsening alone is cheap
	ctx := context.Background()
	levels, _, _, err := cfg.driver(ctx, ws).coarsen(ctx, h, nil, nil, nil, rng)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]*hypergraph.Hypergraph, len(levels))
	cs := make([]*hypergraph.Clustering, 0, len(levels)-1)
	for i, l := range levels {
		hs[i] = l.h
		if l.c != nil {
			cs = append(cs, l.c)
		}
	}
	return hs, cs, nil
}
