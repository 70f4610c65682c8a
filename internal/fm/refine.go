package fm

import (
	"fmt"
	"math/rand"

	"mlpart/internal/faultinject"
	"mlpart/internal/gainbucket"
	"mlpart/internal/hypergraph"
)

// Partition implements the FMPartition procedure of Fig. 2: it takes
// a netlist and an initial solution and returns a refined
// bipartitioning. If initial is nil a random starting solution is
// generated. If the initial solution violates the balance bound (as a
// projected solution may, §III.B) it is first rebalanced by randomly
// moving modules from the larger block to the smaller.
//
// The returned partition is a fresh object; initial is not modified.
func Partition(h *hypergraph.Hypergraph, initial *hypergraph.Partition, cfg Config, rng *rand.Rand) (*hypergraph.Partition, Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, Result{}, err
	}
	var p *hypergraph.Partition
	if initial == nil {
		p = hypergraph.RandomPartition(h, 2, cfg.Tolerance, rng)
	} else {
		if initial.K != 2 {
			return nil, Result{}, fmt.Errorf("fm: initial partition has K=%d, want 2", initial.K)
		}
		if err := initial.Validate(h.NumCells()); err != nil {
			return nil, Result{}, err
		}
		p = initial.Clone()
	}
	bound := hypergraph.Balance(h, 2, cfg.Tolerance)
	if !p.IsBalanced(h, bound) {
		cfg.Telemetry.RecordRebalance(p.Rebalance(h, bound, rng))
	}
	res, err := Refine(h, p, cfg, rng)
	return p, res, err
}

// Refine improves the bipartition p in place using the configured
// engine. p must be a valid, balanced 2-way partition of h.
func Refine(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) (Result, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return Result{}, err
	}
	if p.K != 2 {
		return Result{}, fmt.Errorf("fm: refine with K=%d, want 2", p.K)
	}
	if err := p.Validate(h.NumCells()); err != nil {
		return Result{}, err
	}
	if cfg.Engine == EnginePROP || cfg.Engine == EngineCLIPPROP {
		return newPropRefiner(h, p, cfg, rng).run(), nil
	}
	r := newRefiner(h, p, cfg, rng)
	res := r.run()
	return res, nil
}

// refiner holds all per-run state. It is rebuilt for each Refine
// call, but the backing arrays live in a Workspace (the caller's via
// Config.WS, or a throwaway) so repeated calls reuse memory; within a
// run, buckets are rebuilt per pass (the paper's implementation
// reinitializes the entire bucket structure before each pass).
type refiner struct {
	h   *hypergraph.Hypergraph
	p   *hypergraph.Partition
	cfg Config
	rng *rand.Rand
	ws  *Workspace

	bound hypergraph.BalanceBound
	areas [2]int64

	active  []bool     // net considered during refinement
	pc      [2][]int32 // per net: pin count on each side
	gain    []int32    // current real cut gain of moving each cell
	initKey []int32    // CLIP: gain at pass start (bucket key = gain − initKey)
	locked  []bool
	buckets [2]*gainbucket.Structure

	// move log for rollback
	moveCells []int32
	moveGains []int32

	activeCut int // number of active nets currently cut

	// sub-round engine only (subround.go): stamp generation of the
	// affected-cell gather.
	stampGen int32
}

func newRefiner(h *hypergraph.Hypergraph, p *hypergraph.Partition, cfg Config, rng *rand.Rand) *refiner {
	n := h.NumCells()
	ws := cfg.grab()
	// Every buffer is grown in place on the workspace and aliased by
	// the refiner, so growth is retained across runs. None of them
	// need clearing: active, pc, gain and locked are rewritten in full
	// before any read (newRefiner/computePinCounts/initPass), and the
	// move log starts each run truncated to zero length.
	ws.active = growBool(ws.active, h.NumNets())
	ws.gain = growInt32(ws.gain, n)
	ws.locked = growBool(ws.locked, n)
	ws.moveCells = growInt32(ws.moveCells, n)
	ws.moveGains = growInt32(ws.moveGains, n)
	ws.pc[0] = growInt32(ws.pc[0], h.NumNets())
	ws.pc[1] = growInt32(ws.pc[1], h.NumNets())
	r := &refiner{
		h: h, p: p, cfg: cfg, rng: rng, ws: ws,
		bound:     hypergraph.Balance(h, 2, cfg.Tolerance),
		active:    ws.active,
		gain:      ws.gain,
		locked:    ws.locked,
		moveCells: ws.moveCells[:0],
		moveGains: ws.moveGains[:0],
	}
	r.pc[0] = ws.pc[0]
	r.pc[1] = ws.pc[1]
	if cfg.Engine == EngineCLIP {
		ws.initKey = growInt32(ws.initKey, n)
		r.initKey = ws.initKey
	}
	for e := 0; e < h.NumNets(); e++ {
		r.active[e] = cfg.MaxNetSize < 0 || h.NetSize(e) <= cfg.MaxNetSize
	}
	maxDeg := h.MaxWeightedDegree(cfg.MaxNetSize)
	bucketRange := maxDeg
	if cfg.Engine == EngineCLIP {
		bucketRange = 2 * maxDeg // §II.B: the range of bucket indices must double
	}
	r.buckets[0] = ws.bucket(0, n, bucketRange, cfg.Order, rng)
	r.buckets[1] = ws.bucket(1, n, bucketRange, cfg.Order, rng)
	if cfg.Par != nil {
		r.initSubround()
	}
	return r
}

func (r *refiner) run() Result {
	res := Result{InitialCut: r.p.WeightedCut(r.h)}
	r.computePinCounts()
	maxPasses := r.cfg.MaxPasses
	if maxPasses == 0 {
		maxPasses = 1 << 30
	}
	for pass := 0; pass < maxPasses; pass++ {
		if r.cfg.Stop != nil && r.cfg.Stop() {
			res.Interrupted = true
			break
		}
		if r.cfg.Inject != nil && r.fireFault(&res) {
			break
		}
		cutBefore := r.activeCut
		var improved, applied, tried int
		if r.cfg.Par != nil {
			var aborted bool
			improved, applied, tried, aborted = r.runPassSub()
			if aborted {
				res.Interrupted = true
			}
		} else {
			improved, applied, tried = r.runPass()
		}
		r.cfg.Telemetry.RecordPass(r.cfg.Engine.String(), res.Passes, cutBefore, r.activeCut, tried, applied)
		res.Passes++
		res.Moves += applied
		res.MovesTried += tried
		if res.Interrupted || improved <= 0 {
			break
		}
	}
	res.Cut = r.p.WeightedCut(r.h)
	res.ActiveCut = r.activeCut
	// Hand any move-log growth back to the workspace (appends stay
	// within the pre-grown capacity today, but do not rely on it).
	r.ws.moveCells = r.moveCells
	r.ws.moveGains = r.moveGains
	return res
}

// fireFault hits the fm.pass fault site. Cancel behaves exactly like
// a Stop hook firing at this boundary (returns true to abort);
// corrupt flips one cell across the cut *without* updating the
// incremental state — res.Cut stays truthful (recounted at the end)
// while res.ActiveCut goes stale, which the audit layer must catch.
func (r *refiner) fireFault(res *Result) bool {
	switch r.cfg.Inject.Fire(faultinject.SiteFMPass) {
	case faultinject.ActCancel:
		res.Interrupted = true
		return true
	case faultinject.ActCorrupt:
		if n := r.h.NumCells(); n > 0 {
			v := r.rng.Intn(n)
			r.p.Part[v] = 1 - r.p.Part[v]
		}
	}
	return false
}

// computePinCounts fills pc and activeCut from the current partition.
func (r *refiner) computePinCounts() {
	for e := 0; e < r.h.NumNets(); e++ {
		r.pc[0][e] = 0
		r.pc[1][e] = 0
	}
	for v := 0; v < r.h.NumCells(); v++ {
		s := r.p.Part[v]
		for _, e := range r.h.Nets(int(v)) {
			r.pc[s][e]++
		}
	}
	r.activeCut = 0
	for e := 0; e < r.h.NumNets(); e++ {
		if r.active[e] && r.pc[0][e] > 0 && r.pc[1][e] > 0 {
			r.activeCut += int(r.h.NetWeight(e))
		}
	}
	r.areas[0], r.areas[1] = 0, 0
	for v := 0; v < r.h.NumCells(); v++ {
		r.areas[r.p.Part[v]] += r.h.Area(v)
	}
}

// computeGain returns the cut gain of moving cell v to the other
// side, considering only active nets.
func (r *refiner) computeGain(v int32) int32 {
	s := r.p.Part[v]
	var g int32
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := r.h.NetWeight(int(e))
		if r.pc[s][e] == 1 {
			g += w
		}
		if r.pc[1-s][e] == 0 {
			g -= w
		}
	}
	return g
}

// onBoundary reports whether v is incident to a cut active net.
func (r *refiner) onBoundary(v int32) bool {
	for _, e := range r.h.Nets(int(v)) {
		if r.active[e] && r.pc[0][e] > 0 && r.pc[1][e] > 0 {
			return true
		}
	}
	return false
}

// key returns the bucket key of cell v under the configured engine.
func (r *refiner) key(v int32) int {
	if r.cfg.Engine == EngineCLIP {
		return int(r.gain[v] - r.initKey[v])
	}
	return int(r.gain[v])
}

// initPass rebuilds gains, buckets and locks for a new pass.
func (r *refiner) initPass() {
	n := r.h.NumCells()
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	for v := 0; v < n; v++ {
		r.locked[v] = false
		r.gain[v] = r.computeGain(int32(v))
	}
	if r.cfg.Engine == EngineCLIP {
		copy(r.initKey, r.gain)
	}
	for v := int32(0); int(v) < n; v++ {
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[r.p.Part[v]].Insert(v, int(r.gain[v]))
	}
	if r.cfg.Engine == EngineCLIP {
		// CLIP preprocessing: concatenate all buckets into bucket 0,
		// highest initial gain first. Keys are now deltas.
		r.buckets[0].ConcatenateToZero()
		r.buckets[1].ConcatenateToZero()
	}
	r.moveCells = r.moveCells[:0]
	r.moveGains = r.moveGains[:0]
}

// feasible reports whether moving v from its side keeps the solution
// inside the balance bound.
func (r *refiner) feasible(v int32) bool {
	s := r.p.Part[v]
	a := r.h.Area(int(v))
	return r.areas[1-s]+a <= r.bound.Hi && r.areas[s]-a >= r.bound.Lo
}

// selectMove picks the next base cell: the highest-key feasible cell
// over both bucket structures; ties between the two sides go to the
// side with larger area (then side 0). With lookahead enabled, cells
// sharing the top feasible key are compared by higher-level gains.
// Returns -1 if no feasible move exists.
func (r *refiner) selectMove() int32 {
	cand := [2]int32{-1, -1}
	key := [2]int{0, 0}
	for s := 0; s < 2; s++ {
		r.buckets[s].Iterate(func(v int32, k int) bool {
			if r.feasible(v) {
				cand[s] = v
				key[s] = k
				return false
			}
			return true
		})
	}
	var v int32
	switch {
	case cand[0] < 0 && cand[1] < 0:
		return -1
	case cand[0] < 0:
		v = cand[1]
	case cand[1] < 0:
		v = cand[0]
	case key[0] > key[1]:
		v = cand[0]
	case key[1] > key[0]:
		v = cand[1]
	case r.areas[0] >= r.areas[1]:
		v = cand[0]
	default:
		v = cand[1]
	}
	if r.cfg.Lookahead >= 2 {
		v = r.lookaheadRefine(v)
	}
	return v
}

// applyMove moves v to the other side, locking it, updating pin
// counts, neighbor gains and bucket positions, and logging the move.
func (r *refiner) applyMove(v int32) {
	from := r.p.Part[v]
	to := 1 - from
	realGain := r.gain[v]
	if r.buckets[from].Contains(v) {
		r.buckets[from].Remove(v)
	}
	r.locked[v] = true
	r.areas[from] -= r.h.Area(int(v))
	r.areas[to] += r.h.Area(int(v))

	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := r.h.NetWeight(int(e))
		pcF, pcT := r.pc[from], r.pc[to]
		pins := r.h.Pins(int(e))
		// Before the move: if the to-side count is 0 this net was
		// uncut and will become cut — every free pin gains from a
		// follow-up move; if it is 1, the lone to-side free cell
		// loses its incentive.
		switch pcT[e] {
		case 0:
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, +w)
				}
			}
		case 1:
			for _, u := range pins {
				if !r.locked[u] && r.p.Part[u] == to {
					r.adjustGain(u, -w)
				}
			}
		}
		// Track the active cut as nets cross the boundary.
		if pcT[e] == 0 {
			r.activeCut += int(w) // net becomes cut
		}
		pcF[e]--
		pcT[e]++
		if pcF[e] == 0 {
			r.activeCut -= int(w) // net becomes uncut
		}
		// After the move: if the from-side count dropped to 0 the net
		// is now uncut — follow-up moves no longer help; if it
		// dropped to 1, the last from-side free cell could uncut it.
		switch pcF[e] {
		case 0:
			for _, u := range pins {
				if !r.locked[u] {
					r.adjustGain(u, -w)
				}
			}
		case 1:
			for _, u := range pins {
				if !r.locked[u] && r.p.Part[u] == from {
					r.adjustGain(u, +w)
				}
			}
		}
	}
	r.p.Part[v] = int32(to)
	r.moveCells = append(r.moveCells, v)
	r.moveGains = append(r.moveGains, realGain)
}

// adjustGain shifts the gain of free cell u by delta and keeps its
// bucket position consistent. In boundary mode a touched interior
// cell enters the buckets here ("as needed" gain computation).
func (r *refiner) adjustGain(u int32, delta int32) {
	r.gain[u] += delta
	s := r.p.Part[u]
	if r.buckets[s].Contains(u) {
		r.buckets[s].Update(u, r.key(u))
	} else if r.cfg.Boundary {
		r.buckets[s].Insert(u, r.key(u))
	}
}

// runPass executes one FM pass and rolls back to the best prefix.
// It returns the realized gain (initial cut − best cut within the
// pass, over active nets), the number of moves kept, and the number
// tried.
func (r *refiner) runPass() (improved, applied, tried int) {
	r.initPass()
	bestGain, cumGain := 0, 0
	bestLen := 0
	sinceBest := 0
	// Early-exit window: after this many consecutive non-improving
	// moves the pass is abandoned (Chaco/Metis-style).
	window := r.h.NumCells()/4 + 50
	// CDIP backtrack trigger: a cumulative loss of one maximum
	// weighted degree below the best prefix means the sequence needs
	// more than one perfect move to recover.
	backtrackAt := r.h.MaxWeightedDegree(r.cfg.MaxNetSize)
	if backtrackAt < 2 {
		backtrackAt = 2
	}
	for {
		v := r.selectMove()
		if v < 0 {
			break
		}
		cumGain += int(r.gain[v])
		tried++
		r.applyMove(v)
		if cumGain > bestGain {
			bestGain = cumGain
			bestLen = len(r.moveCells)
			sinceBest = 0
			continue
		}
		sinceBest++
		if r.cfg.EarlyExit && sinceBest > window {
			break
		}
		if r.cfg.Backtrack && bestGain-cumGain >= backtrackAt {
			// Reverse the bad sequence; the reversed cells stay
			// locked in place so a different sequence is tried.
			for i := len(r.moveCells) - 1; i >= bestLen; i-- {
				r.undoMove(r.moveCells[i])
			}
			r.moveCells = r.moveCells[:bestLen]
			r.moveGains = r.moveGains[:bestLen]
			cumGain = bestGain
			sinceBest = 0
			r.refreshGains()
		}
	}
	// Roll back the suffix after the best prefix.
	for i := len(r.moveCells) - 1; i >= bestLen; i-- {
		r.undoMove(r.moveCells[i])
	}
	r.moveCells = r.moveCells[:bestLen]
	return bestGain, bestLen, tried
}

// refreshGains recomputes the gains of all free cells and rebuilds
// the bucket structures mid-pass (after a CDIP backtrack invalidated
// the incremental state). CLIP keys keep their pass-start baseline.
func (r *refiner) refreshGains() {
	r.buckets[0].Clear()
	r.buckets[1].Clear()
	for v := int32(0); int(v) < r.h.NumCells(); v++ {
		if r.locked[v] {
			continue
		}
		r.gain[v] = r.computeGain(v)
		if r.cfg.Boundary && !r.onBoundary(v) {
			continue
		}
		r.buckets[r.p.Part[v]].Insert(v, r.key(v))
	}
}

// undoMove reverses a logged move of cell v: flips it back and
// restores pin counts, areas and the active cut. Gains are left
// stale; the next pass recomputes them.
func (r *refiner) undoMove(v int32) {
	cur := r.p.Part[v] // side it was moved to
	orig := 1 - cur
	for _, e := range r.h.Nets(int(v)) {
		if !r.active[e] {
			continue
		}
		w := int(r.h.NetWeight(int(e)))
		if r.pc[orig][e] == 0 {
			r.activeCut += w
		}
		r.pc[cur][e]--
		r.pc[orig][e]++
		if r.pc[cur][e] == 0 {
			r.activeCut -= w
		}
	}
	r.areas[cur] -= r.h.Area(int(v))
	r.areas[orig] += r.h.Area(int(v))
	r.p.Part[v] = int32(orig)
}
