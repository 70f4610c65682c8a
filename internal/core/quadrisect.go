package core

import (
	"context"
	"fmt"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
	"mlpart/internal/telemetry"
)

// QuadConfig parameterizes multilevel k-way partitioning (§III.C,
// §IV.D). The paper's quadrisection experiments use ML_F-style
// refinement with R = 1.0, T = 100 and the sum-of-degrees gain.
type QuadConfig struct {
	// Threshold is the coarsening threshold T. Default 100.
	Threshold int
	// Ratio is the matching ratio R. Default 1.0.
	Ratio float64
	// Refine configures the Sanchis-style multi-way engine used at
	// every level. Refine.K defaults to 4 (quadrisection).
	Refine kway.Config
	// CoarsestStarts as in Config. Default 1.
	CoarsestStarts int
	// MaxLevels as in Config. Default 64.
	MaxLevels int
	// IntraParallelism sizes the intra-attempt worker pool used for
	// parallel match scoring and induce-CSR assembly during
	// coarsening, as in Config.IntraParallelism (0 = serial). The
	// k-way engine has no parallel path, so refinement is unaffected;
	// k-way results are bit-identical for every value.
	IntraParallelism int
	// Fixed marks pre-assigned cells of H_0 (e.g. I/O pads, §III.C);
	// they keep the block given in Preassign and never move. Optional.
	Fixed []bool
	// Preassign gives the block of each fixed cell (only entries
	// with Fixed[v] true are read). Required iff Fixed is non-nil.
	Preassign []int32
	// Audit enables per-level invariant checks, as in Config.Audit.
	Audit bool
	// Inject optionally arms deterministic fault injection for this
	// attempt (sites coarsen.match, kway.refine, core.project,
	// core.rebalance), as in Config.Inject.
	Inject *faultinject.Injector
	// Telemetry optionally collects per-level coarsening stats,
	// per-pass refinement stats, rebalance counters and stage
	// timings for this attempt, as in Config.Telemetry.
	Telemetry *telemetry.Collector
	// Scratch, when non-nil, makes the attempt reuse a caller-owned
	// workspace bundle, as in Config.Scratch (single-goroutine).
	Scratch *Scratch
}

// Normalize fills defaults and validates.
func (c QuadConfig) Normalize() (QuadConfig, error) {
	if err := normalizeLevels(&c.Threshold, &c.Ratio, &c.CoarsestStarts, &c.MaxLevels, c.IntraParallelism, 100); err != nil {
		return c, err
	}
	if (c.Fixed == nil) != (c.Preassign == nil) {
		return c, fmt.Errorf("core: Fixed and Preassign must be set together")
	}
	// kway.Config.Fixed is managed per level internally.
	if c.Refine.Fixed != nil {
		return c, fmt.Errorf("core: set QuadConfig.Fixed, not Refine.Fixed")
	}
	var err error
	c.Refine, err = c.Refine.Normalize()
	return c, err
}

// QuadResult reports what a multilevel k-way run did.
type QuadResult struct {
	// CutNets is the number of nets spanning >1 block of the final
	// solution — the Table IX metric.
	CutNets int
	// SumDegrees is Σ_e (span−1) of the final solution.
	SumDegrees int
	// Levels, CoarsestCells, LevelCells as in Result.
	Levels        int
	CoarsestCells int
	LevelCells    []int
	// Interrupted reports that cancellation cut the run short; the
	// returned partition is still feasible.
	Interrupted bool
}

// Quadrisect runs the multilevel k-way algorithm: Match-based
// coarsening (fixed cells are never matched together with free
// cells across blocks — they simply coarsen like any cell, but their
// pre-assignment is honored by seeding and locking them at every
// level), k-way partitioning of the coarsest netlist, then projection
// with multi-way FM refinement per level.
func Quadrisect(h *hypergraph.Hypergraph, cfg QuadConfig, rng *rand.Rand) (*hypergraph.Partition, QuadResult, error) {
	//mllint:ignore ctx-thread non-Ctx compatibility wrapper: rooting a fresh context is its documented contract
	return QuadrisectCtx(context.Background(), h, cfg, rng)
}

// QuadrisectCtx is Quadrisect with cooperative cancellation and panic
// recovery, under the same contract as BipartitionCtx: once the
// context is done, at most one refinement pass of extra work happens,
// the remaining levels are projected and rebalanced without engine
// passes, and the returned partition is feasible with
// QuadResult.Interrupted set. Internal panics are recovered at stage
// boundaries and returned as a *PanicError with the best feasible
// partition.
func QuadrisectCtx(ctx context.Context, h *hypergraph.Hypergraph, cfg QuadConfig, rng *rand.Rand) (*hypergraph.Partition, QuadResult, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, QuadResult{}, err
	}
	if ctx == nil {
		ctx = context.Background() //mllint:ignore ctx-thread normalizing a nil ctx from the caller; there is no ambient deadline to discard
	}
	if cfg.Fixed != nil {
		if len(cfg.Fixed) != h.NumCells() || len(cfg.Preassign) != h.NumCells() {
			return nil, QuadResult{}, fmt.Errorf("core: Fixed/Preassign length mismatch with %d cells", h.NumCells())
		}
		for v, fx := range cfg.Fixed {
			if fx && (cfg.Preassign[v] < 0 || int(cfg.Preassign[v]) >= cfg.Refine.K) {
				return nil, QuadResult{}, fmt.Errorf("core: preassigned block %d of cell %d out of range", cfg.Preassign[v], v)
			}
		}
	}

	// One workspace bundle per attempt (or the caller's shared Scratch
	// for batched runs); the k-way engine manages its own arrays, and the
	// intra-parallelism pool accelerates coarsening only.
	ws := cfg.Scratch.attemptWS()
	defer ws.startPool(cfg.IntraParallelism)()
	p, r, err := cfg.driver(ctx, ws).run(ctx, h, cfg.Fixed, cfg.Preassign, nil, rng)
	res := QuadResult{CutNets: r.Cut, Levels: r.Levels, CoarsestCells: r.CoarsestCells, LevelCells: r.LevelCells, Interrupted: r.Interrupted}
	if p != nil {
		res.SumDegrees = p.SumOfDegrees(h)
	}
	return p, res, err
}

// driver wires cfg into the multilevel driver over the k-way engine.
func (c QuadConfig) driver(ctx context.Context, ws *pipelineWS) *driver[kway.Result] {
	c.Refine.Stop = mergeStop(c.Refine.Stop, ctx)
	c.Refine.Inject, c.Refine.Telemetry = c.Inject, c.Telemetry
	c.Telemetry.RecordIntraWorkers(c.IntraParallelism)
	return &driver[kway.Result]{
		threshold: c.Threshold, starts: c.CoarsestStarts, maxLevels: c.MaxLevels, ratio: c.Ratio,
		audit: c.Audit, inject: c.Inject, tel: c.Telemetry, ws: ws,
		k: c.Refine.K, tol: c.Refine.Tolerance, eng: kWay{c.Refine},
	}
}

// seededRandomPartition builds a random balanced k-way partition that
// honors pre-assignments: fixed cells take their block, free cells
// fill greedily in random order.
func seededRandomPartition(h *hypergraph.Hypergraph, k int, fixed []bool, pre []int32, rng *rand.Rand) *hypergraph.Partition {
	p := hypergraph.NewPartition(h.NumCells(), k)
	areas := make([]int64, k)
	for v := 0; v < h.NumCells(); v++ {
		if fixed[v] {
			p.Part[v] = pre[v]
			areas[pre[v]] += h.Area(v)
		}
	}
	perm := rng.Perm(h.NumCells())
	for _, v := range perm {
		if fixed[v] {
			continue
		}
		bestB := 0
		for b := 1; b < k; b++ {
			if areas[b] < areas[bestB] {
				bestB = b
			}
		}
		p.Part[v] = int32(bestB)
		areas[bestB] += h.Area(v)
	}
	return p
}
