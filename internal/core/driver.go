package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mlpart/internal/audit"
	"mlpart/internal/coarsen"
	"mlpart/internal/faultinject"
	"mlpart/internal/fm"
	"mlpart/internal/hypergraph"
	"mlpart/internal/kway"
	"mlpart/internal/telemetry"
)

// driver is the one multilevel algorithm (Fig. 2) behind
// BipartitionCtx, QuadrisectCtx, VCycleCtx and Hierarchy: coarsen
// while more than T movable cells remain, partition the coarsest
// netlist, then project and refine level by level. Quadrisection is
// the same algorithm with a k-way engine and pre-assigned pads
// (§III.C), so the engine is the only thing that varies: it plugs in
// through levelRefiner, and the driver never branches on which one it
// serves. R is the engine's own per-call report.
type driver[R any] struct {
	threshold, starts, maxLevels int
	ratio                        float64
	mergeNets, audit             bool
	inject                       *faultinject.Injector
	tel                          *telemetry.Collector
	ws                           *pipelineWS
	k                            int     // blocks of the solution
	tol                          float64 // balance tolerance r
	eng                          levelRefiner[R]
	// runs holds the engine reports behind the returned solution, one
	// per level the engine produced, coarsest first.
	runs []engineRun[R]
}

// levelRefiner is the engine seam of the driver.
type levelRefiner[R any] interface {
	// partition runs one start on the coarsest level; fixed cells (nil
	// when there are none) take their pre-assigned block.
	partition(h *hypergraph.Hypergraph, fixed []bool, pre []int32, rng *rand.Rand) (*hypergraph.Partition, engineRun[R], error)
	// refine improves p in place; fixed cells never move.
	refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, fixed []bool, rng *rand.Rand) (engineRun[R], error)
	// audit checks a level solution from scratch; r is nil when the
	// engine did not produce it (the degraded path).
	audit(h *hypergraph.Hypergraph, p *hypergraph.Partition, fixed []bool, r *engineRun[R]) error
	// corrupt perturbs p for an injected corrupt fault; p stays a valid
	// partition with fixed cells in place, but may go unbalanced.
	corrupt(p *hypergraph.Partition, fixed []bool, rng *rand.Rand)
}

// engineRun is what one engine call reports to the driver.
type engineRun[R any] struct {
	cost        int  // the engine's objective; lower is better
	interrupted bool // a Stop hook cut the call short
	report      R
}

// level is one rung of the hierarchy: the hypergraph, the clustering
// that produced the next (coarser) one, and the pre-assigned cells.
type level struct {
	h     *hypergraph.Hypergraph
	c     *hypergraph.Clustering // nil at the coarsest level
	fixed []bool                 // nil when no cell is pre-assigned
	pre   []int32
}

// movable counts the cells that coarsening can shrink: fixed cells are
// never matched, so a threshold counted on all cells would coarsen the
// movable cells of a terminal-heavy instance into a few giant clusters.
func (l *level) movable() int {
	n := l.h.NumCells()
	for _, fx := range l.fixed {
		if fx {
			n--
		}
	}
	return n
}

// normalizeLevels fills the defaults of the hierarchy fields Config
// and QuadConfig share and validates them.
func normalizeLevels(threshold *int, ratio *float64, starts, maxLevels *int, intra, defThreshold int) error {
	if *threshold == 0 {
		*threshold = defThreshold
	}
	if *ratio == 0 {
		*ratio = 1.0
	}
	if *starts == 0 {
		*starts = 1
	}
	if *maxLevels == 0 {
		*maxLevels = 64
	}
	switch {
	case *threshold < 2:
		return fmt.Errorf("core: threshold %d < 2", *threshold)
	case math.IsNaN(*ratio) || *ratio <= 0 || *ratio > 1:
		return fmt.Errorf("core: matching ratio %v outside (0,1]", *ratio)
	case *starts < 1:
		return fmt.Errorf("core: CoarsestStarts %d < 1", *starts)
	case *maxLevels < 1:
		return fmt.Errorf("core: MaxLevels %d < 1", *maxLevels)
	case intra < 0:
		return fmt.Errorf("core: IntraParallelism %d < 0", intra)
	}
	return nil
}

// coarsen builds the hierarchy (Steps 1–5 of Fig. 2). Fixed cells are
// excluded from matching, so they stay singleton clusters and carry
// their pre-assignment up. A non-nil seed (VCycle) restricts matching
// to cells in the same block, so every coarse level represents the
// seed exactly; it is pushed up and returned for the coarsest level.
// Cancellation stops coarsening early; a panic or an audit failure
// returns the valid hierarchy prefix with the error.
func (d *driver[R]) coarsen(ctx context.Context, h *hypergraph.Hypergraph, fixed []bool, pre []int32, seed *hypergraph.Partition, rng *rand.Rand) ([]level, *hypergraph.Partition, Result, error) {
	levels := []level{{h: h, fixed: fixed, pre: pre}}
	res := Result{LevelCells: []int{h.NumCells()}}
	var err error
	for cur := &levels[0]; cur.movable() > d.threshold && len(levels) <= d.maxLevels; cur = &levels[len(levels)-1] {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		i := len(levels) - 1
		mc := coarsen.Config{Ratio: d.ratio, Exclude: cur.fixed, SameBlockOnly: seed, Stop: mergeStop(nil, ctx), Inject: d.inject, Telemetry: d.tel, WS: &d.ws.match, Par: d.ws.pool}
		var c *hypergraph.Clustering
		var coarseH *hypergraph.Hypergraph
		d.tel.SetLevel(i)
		timer := d.tel.StartTimer(telemetry.StageCoarsen)
		err = Guard("coarsen", i, func() error {
			var err error
			if c, err = coarsen.Match(cur.h, mc, rng); err != nil {
				return err
			}
			if d.mergeNets {
				// Merged induction dedups identical coarse nets through a
				// global hash table, which does not range-decompose; it
				// stays serial under intra-parallelism.
				coarseH, err = hypergraph.InduceMergedWS(cur.h, c, &d.ws.induce)
			} else {
				coarseH, err = hypergraph.InduceWSPar(cur.h, c, &d.ws.induce, d.ws.pool)
			}
			return err
		})
		timer.Stop()
		// No progress (e.g. a netless instance with R ≈ 0) stops
		// coarsening rather than looping forever.
		if err != nil || coarseH.NumCells() >= cur.h.NumCells() {
			break
		}
		if d.audit {
			if err = audit.CheckClustering(cur.h, c, coarseH); err == nil {
				err = audit.CheckHypergraph(coarseH)
			}
			if err != nil {
				err = fmt.Errorf("core: level %d: %w", i, err)
				break
			}
		}
		d.tel.RecordLevel(coarseH.NumCells(), coarseH.NumNets(), coarseH.NumPins(), coarseH.MaxCellArea())
		cur.c = c
		next := level{h: coarseH}
		if cur.fixed != nil {
			// A coarse cell is fixed iff its (singleton) member is.
			next.fixed = make([]bool, coarseH.NumCells())
			next.pre = make([]int32, coarseH.NumCells())
			for v, fx := range cur.fixed {
				if fx {
					next.fixed[c.CellToCluster[v]], next.pre[c.CellToCluster[v]] = true, cur.pre[v]
				}
			}
		}
		if seed != nil {
			// Every cluster is block-pure, so any member's block will do.
			up := hypergraph.NewPartition(coarseH.NumCells(), seed.K)
			for v, k := range c.CellToCluster {
				up.Part[k] = seed.Part[v]
			}
			seed = up
		}
		levels = append(levels, next)
		res.LevelCells = append(res.LevelCells, coarseH.NumCells())
	}
	res.Levels = len(levels) - 1
	res.CoarsestCells = levels[res.Levels].h.NumCells()
	return levels, seed, res, err
}

// run is the whole multilevel pass: coarsen, partition the coarsest
// level (best of CoarsestStarts, or refine the pushed-up seed), then
// project and refine down to h through two alternating buffers.
//
// Cancellation is not an error: once the context is done, at most one
// engine pass of extra work happens, and the remaining levels are
// projected and rebalanced without engine passes, so the solution
// stays feasible with Result.Interrupted set. Internal panics are
// recovered at stage boundaries: the run degrades the same way and
// returns the first *PanicError with the solution. A failed audit
// returns a nil partition.
func (d *driver[R]) run(ctx context.Context, h *hypergraph.Hypergraph, fixed []bool, pre []int32, seed *hypergraph.Partition, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	pool := d.ws.pool
	var base int64
	if pool != nil {
		// Every region dispatched after coarsening belongs to refinement.
		base = pool.Regions()
		defer func() { d.tel.RecordParRegions(telemetry.StageRefine, pool.Regions()-base) }()
	}
	levels, seed, res, err := d.coarsen(ctx, h, fixed, pre, seed, rng)
	d.runs = make([]engineRun[R], 0, len(levels))
	if pool != nil {
		d.tel.RecordParRegions(telemetry.StageCoarsen, pool.Regions()-base)
		base = pool.Regions()
	}
	var firstErr error
	// recovered reports whether err is a recovered panic and keeps the
	// first one for the caller.
	recovered := func(err error) bool {
		pe, ok := AsPanicError(err)
		if ok && firstErr == nil {
			firstErr = pe
		}
		return ok
	}
	if err != nil && !recovered(err) {
		return nil, res, err
	}

	// Step 6: partition the coarsest netlist, or refine the pushed-up
	// seed in place. After a panic the best finished start is kept;
	// with none, a random (or, with fixed cells, seeded) balanced
	// partition stands in.
	m := len(levels) - 1
	top := levels[m]
	var p *hypergraph.Partition
	var best engineRun[R]
	d.tel.SetLevel(m)
	timer := d.tel.StartTimer(telemetry.StageRefine)
	err = Guard("coarsest-partition", m, func() error {
		if seed != nil {
			r, err := d.eng.refine(top.h, seed, top.fixed, rng)
			p, best = seed, r
			return err
		}
		for s := 0; s < d.starts; s++ {
			q, r, err := d.eng.partition(top.h, top.fixed, top.pre, rng)
			if err != nil {
				return err
			}
			if p == nil || r.cost < best.cost {
				p, best = q, r
			}
			if r.interrupted {
				best.interrupted = true
				break
			}
		}
		return nil
	})
	timer.Stop()
	engineOK := err == nil
	if err != nil && !recovered(err) {
		return nil, res, err
	}
	ran := p != nil
	switch {
	case ran:
		res.Interrupted = res.Interrupted || best.interrupted
		d.runs = append(d.runs, best)
	case top.fixed != nil:
		p = seededRandomPartition(top.h, d.k, top.fixed, top.pre, rng)
	default:
		p = hypergraph.RandomPartition(top.h, d.k, d.tol, rng)
	}
	if err := d.check(m, top, p, best, ran); err != nil {
		return nil, res, err
	}

	// Steps 7–9: project and refine down to H_0. After a recovered
	// engine panic or a synthetic cancellation the engine is no longer
	// trusted: the remaining levels are projected and rebalanced only.
	var scratch *hypergraph.Partition
	if m > 0 {
		// p escapes to the caller, so the buffers are per-call locals,
		// not workspace members.
		var buf *hypergraph.Partition
		buf, scratch = projectionBuffers(h.NumCells(), p.K)
		copyInto(buf, p)
		p = buf
	}
	cancelled := false
	fault := func(lv level, act faultinject.Action) {
		switch act {
		case faultinject.ActCancel:
			// Synthetic cancellation: degrade exactly like a real one.
			cancelled, res.Interrupted = true, true
		case faultinject.ActCorrupt:
			// The rebalance/refinement below absorbs the damage.
			d.eng.corrupt(p, lv.fixed, rng)
		}
	}
	for i := m - 1; i >= 0; i-- {
		lv := levels[i]
		var act faultinject.Action
		d.tel.SetLevel(i)
		timer := d.tel.StartTimer(telemetry.StageProject)
		err := Guard("project", i, func() error {
			if d.inject != nil {
				act = d.inject.Fire(faultinject.SiteCoreProject)
			}
			if err := hypergraph.ProjectInto(lv.c, p, scratch); err != nil {
				return err
			}
			p, scratch = scratch, p
			return nil
		})
		timer.Stop()
		if err != nil {
			// No fine-level solution exists yet, so this is unrecoverable
			// for the attempt; the supervisor's retry path handles it.
			return nil, res, err
		}
		fault(lv, act)
		if d.inject != nil {
			// Only a panic can surface here.
			if err := Guard("rebalance", i, func() error {
				fault(lv, d.inject.Fire(faultinject.SiteCoreRebalance))
				return nil
			}); err != nil {
				recovered(err)
				engineOK = false
			}
		}
		// Projection keeps pre-assignments (fixed cells are singleton
		// clusters); re-pin them anyway.
		for v, fx := range lv.fixed {
			if fx {
				p.Part[v] = lv.pre[v]
			}
		}
		d.rebalance(lv, p, rng)
		var r engineRun[R]
		ran := false
		if engineOK && !cancelled {
			timer := d.tel.StartTimer(telemetry.StageRefine)
			err := Guard("refine", i, func() error {
				var err error
				r, err = d.eng.refine(lv.h, p, lv.fixed, rng)
				return err
			})
			timer.Stop()
			switch {
			case err == nil:
				ran = true
				res.Interrupted = res.Interrupted || r.interrupted
				d.runs = append(d.runs, r)
			case !recovered(err):
				return nil, res, err
			default:
				// A mid-pass panic leaves p valid but possibly unbalanced.
				engineOK = false
				d.rebalance(lv, p, rng)
			}
		}
		if err := d.check(i, lv, p, r, ran); err != nil {
			return nil, res, err
		}
	}
	res.Cut = p.Cut(h)
	return p, res, firstErr
}

// check runs the engine's audit of level i when auditing is on; ran
// reports whether the engine produced p, with report r.
func (d *driver[R]) check(i int, lv level, p *hypergraph.Partition, r engineRun[R], ran bool) error {
	if !d.audit {
		return nil
	}
	var rp *engineRun[R]
	if ran {
		rc := r // a copy, so r itself stays off the heap on unaudited runs
		rp = &rc
	}
	if err := d.eng.audit(lv.h, p, lv.fixed, rp); err != nil {
		return fmt.Errorf("core: level %d: %w", i, err)
	}
	return nil
}

// rebalance restores the balance bound on a level without fixed cells:
// a projected solution may violate it, since A(v*) can shrink during
// uncoarsening (§III.B). With fixed cells the pre-assignments can make
// the bound unsatisfiable, so the engine is left to cope.
func (d *driver[R]) rebalance(lv level, p *hypergraph.Partition, rng *rand.Rand) {
	if lv.fixed != nil {
		return
	}
	bound := hypergraph.Balance(lv.h, d.k, d.tol)
	if !p.IsBalanced(lv.h, bound) {
		timer := d.tel.StartTimer(telemetry.StageRebalance)
		moved := p.Rebalance(lv.h, bound, rng)
		timer.Stop()
		d.tel.RecordRebalance(moved)
	}
}

// twoWay adapts the fm engines (FM, CLIP, PROP) to the driver. A
// bipartition never has fixed cells.
type twoWay struct{ cfg fm.Config }

// fmRun reports an fm run to the driver; its objective is the cut.
func fmRun(r fm.Result) engineRun[fm.Result] {
	return engineRun[fm.Result]{cost: r.Cut, interrupted: r.Interrupted, report: r}
}

func (e twoWay) partition(h *hypergraph.Hypergraph, _ []bool, _ []int32, rng *rand.Rand) (*hypergraph.Partition, engineRun[fm.Result], error) {
	p, r, err := fm.Partition(h, nil, e.cfg, rng)
	return p, fmRun(r), err
}

func (e twoWay) refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, _ []bool, rng *rand.Rand) (engineRun[fm.Result], error) {
	r, err := fm.Refine(h, p, e.cfg, rng)
	return fmRun(r), err
}

// audit checks validity and balance and, when the engine produced p,
// its reported cut against a from-scratch recount, plus the
// incremental active cut for the engines that keep one.
func (e twoWay) audit(h *hypergraph.Hypergraph, p *hypergraph.Partition, _ []bool, r *engineRun[fm.Result]) error {
	bound := hypergraph.Balance(h, 2, e.cfg.Tolerance)
	chk := audit.NoChecks()
	chk.K = 2
	chk.Bound = &bound
	if r != nil {
		chk.WeightedCut = r.report.Cut
		if r.report.ActiveCut >= 0 {
			chk.ActiveCut = r.report.ActiveCut
			chk.MaxNetSize = max(e.cfg.MaxNetSize, 0) // audit convention: <=0 means no cutoff
		}
	}
	return audit.CheckPartition(h, p, chk)
}

func (e twoWay) corrupt(p *hypergraph.Partition, _ []bool, rng *rand.Rand) {
	p.Part[rng.Intn(len(p.Part))] ^= 1
}

// kWay adapts the Sanchis-style multi-way engine to the driver.
type kWay struct{ cfg kway.Config }

// kwayRun reports a k-way run to the driver under the configured
// objective.
func (e kWay) kwayRun(r kway.Result) engineRun[kway.Result] {
	cost := r.SumDegrees
	if e.cfg.Objective == kway.NetCut {
		cost = r.CutNets
	}
	return engineRun[kway.Result]{cost: cost, interrupted: r.Interrupted, report: r}
}

func (e kWay) partition(h *hypergraph.Hypergraph, fixed []bool, pre []int32, rng *rand.Rand) (*hypergraph.Partition, engineRun[kway.Result], error) {
	c := e.cfg
	var init *hypergraph.Partition
	if fixed != nil {
		init, c.Fixed = seededRandomPartition(h, c.K, fixed, pre, rng), fixed
	}
	p, r, err := kway.Partition(h, init, c, rng)
	return p, e.kwayRun(r), err
}

func (e kWay) refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, fixed []bool, rng *rand.Rand) (engineRun[kway.Result], error) {
	c := e.cfg
	c.Fixed = fixed
	r, err := kway.Refine(h, p, c, rng)
	return e.kwayRun(r), err
}

// audit checks validity, the block count and, when no cells are fixed
// (pre-assignments can make the §III.B bound unsatisfiable), balance.
func (e kWay) audit(h *hypergraph.Hypergraph, p *hypergraph.Partition, fixed []bool, _ *engineRun[kway.Result]) error {
	chk := audit.NoChecks()
	chk.K = e.cfg.K
	if fixed == nil {
		bound := hypergraph.Balance(h, e.cfg.K, e.cfg.Tolerance)
		chk.Bound = &bound
	}
	return audit.CheckPartition(h, p, chk)
}

// corrupt moves one random non-fixed cell to the next block.
func (e kWay) corrupt(p *hypergraph.Partition, fixed []bool, rng *rand.Rand) {
	n := len(p.Part)
	if n == 0 {
		return
	}
	v := rng.Intn(n)
	for tries := 0; tries < n; tries++ {
		if fixed == nil || !fixed[v] {
			p.Part[v] = (p.Part[v] + 1) % int32(e.cfg.K)
			return
		}
		v = (v + 1) % n
	}
}
