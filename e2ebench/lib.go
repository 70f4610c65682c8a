package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"mlpart"
	"mlpart/internal/oracle"
)

// setupReps is how many times a run pays the program's set-up; setup_s
// is their median.
const setupReps = 3

// workerPlan is what a lib-* worker process reads: the netlist files,
// the operation list, and where tracing starts.
type workerPlan struct {
	K         int      `json:"k"`
	Nets      []string `json:"nets"`
	Ops       []libOp  `json:"ops"`
	Warm      libOp    `json:"warm"`
	TraceFrom int      `json:"trace_from"` // ops at and after this index are traced
}

// workerOp is one operation's outcome as the worker reports it.
type workerOp struct {
	LatNS  int64          `json:"lat_ns"`
	Cut    int            `json:"cut"`
	Part   []byte         `json:"part"`
	Report *mlpart.Report `json:"report,omitempty"`
}

// phaseStat describes one phase of the worker's loop.
type phaseStat struct {
	Ops        int    `json:"ops"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCs        uint64 `json:"gcs"`
}

// workerOut is the worker's report after its timed loop.
type workerOut struct {
	Ops    []workerOp  `json:"ops"`
	Phases []phaseStat `json:"phases"` // untraced phase, then the traced one if any
	Spans  []span      `json:"spans"`
	HWMKB  int64       `json:"hwm_kb"`
}

// runWorker is the lib-* process under test. Its set-up is reading and
// parsing every input once plus one warm-up operation; it then prints
// "ready" and waits for "run" on standard input before its timed loop.
func runWorker(planPath string) error {
	data, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var wp workerPlan
	if err := json.Unmarshal(data, &wp); err != nil {
		return fmt.Errorf("worker plan: %w", err)
	}
	nets := make([][]byte, len(wp.Nets))
	for i, path := range wp.Nets {
		if nets[i], err = os.ReadFile(path); err != nil {
			return err
		}
		if _, err := mlpart.ReadHGR(bytes.NewReader(nets[i])); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	partition := mlpart.Bipartition
	if wp.K == 4 {
		partition = mlpart.Quadrisect
	}
	var buf bytes.Buffer
	doOp := func(op libOp, tel *mlpart.Telemetry, sl *spanLog, id int, base time.Time) (workerOp, error) {
		t0 := time.Now()
		h, err := mlpart.ReadHGR(bytes.NewReader(nets[op.Net]))
		if err != nil {
			return workerOp{}, err
		}
		t1 := time.Now()
		p, info, err := partition(h, mlpart.Options{Seed: op.Seed, Telemetry: tel})
		if err != nil {
			return workerOp{}, err
		}
		t2 := time.Now()
		buf.Reset()
		if err := mlpart.WritePartition(&buf, p); err != nil {
			return workerOp{}, err
		}
		t3 := time.Now()
		out := workerOp{LatNS: int64(t3.Sub(t0)), Cut: info.Cut, Part: bytes.Clone(buf.Bytes())}
		if sl != nil {
			ns := func(t time.Time) int64 { return int64(t.Sub(base)) }
			root := sl.add(0, id, "op", ns(t0), ns(t3))
			sl.add(root, id, "parse", ns(t0), ns(t1))
			part := sl.add(root, id, "partition", ns(t1), ns(t2))
			sl.add(root, id, "encode", ns(t2), ns(t3))
			out.Report = tel.Report()
			stageSpans(sl, part, id, ns(t1), out.Report)
		}
		return out, nil
	}
	if _, err := doOp(wp.Warm, nil, nil, 0, time.Time{}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	fmt.Println("ready")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	if strings.TrimSpace(line) != "run" {
		return nil // a set-up-only worker
	}

	var out workerOut
	var sl spanLog
	runPhase := func(ops []libOp, first int, traced bool) error {
		allocs0, gcs0 := readRuntime()
		start := time.Now()
		for i, op := range ops {
			var (
				r   workerOp
				err error
			)
			if traced {
				r, err = doOp(op, mlpart.NewTelemetry(), &sl, first+i, start)
			} else {
				r, err = doOp(op, nil, nil, 0, start)
			}
			if err != nil {
				return fmt.Errorf("op %d: %w", first+i, err)
			}
			out.Ops = append(out.Ops, r)
		}
		wall := time.Since(start)
		allocs1, gcs1 := readRuntime()
		out.Phases = append(out.Phases, phaseStat{Ops: len(ops), WallNS: int64(wall), AllocBytes: allocs1 - allocs0, GCs: gcs1 - gcs0})
		return nil
	}
	if err := runPhase(wp.Ops[:wp.TraceFrom], 0, false); err != nil {
		return err
	}
	if wp.TraceFrom < len(wp.Ops) {
		if err := runPhase(wp.Ops[wp.TraceFrom:], wp.TraceFrom, true); err != nil {
			return err
		}
	}
	if out.HWMKB, err = readHWM("self"); err != nil {
		return err
	}
	out.Spans = sl.spans
	return json.NewEncoder(os.Stdout).Encode(&out)
}

// stageSpans lays the report's per-stage times out as children of the
// partition span. The stages interleave level by level, so the spans
// are placed back to back: their durations are exact, their positions
// are not.
func stageSpans(sl *spanLog, parent, op int, at int64, rep *mlpart.Report) {
	var t mlpart.ReportStartStats
	for _, st := range rep.PerStart {
		t.Timings.CoarsenNS += st.Timings.CoarsenNS
		t.Timings.RefineNS += st.Timings.RefineNS
		t.Timings.ProjectNS += st.Timings.ProjectNS
		t.Timings.RebalanceNS += st.Timings.RebalanceNS
	}
	for _, s := range []struct {
		name string
		ns   int64
	}{
		{"coarsen", t.Timings.CoarsenNS},
		{"refine", t.Timings.RefineNS},
		{"project", t.Timings.ProjectNS},
		{"rebalance", t.Timings.RebalanceNS},
	} {
		sl.add(parent, op, s.name, at, at+s.ns)
		at += s.ns
	}
}

// readRuntime reads the process's cumulative heap allocation and GC
// cycle count from runtime/metrics.
func readRuntime() (allocBytes, gcs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// checkPartition verifies a partition against the netlist it claims
// to partition: well-formed for k blocks, cut equal to an independent
// recount, every block inside the mlpart.Balance bound.
func checkPartition(h *mlpart.Hypergraph, p *mlpart.Partition, k, cut int) error {
	if p.K > k {
		return fmt.Errorf("partition uses %d blocks, want %d", p.K, k)
	}
	p.K = k
	if !oracle.Validate(h, p, k) {
		return fmt.Errorf("malformed %d-way partition", k)
	}
	if got := oracle.Cut(h, p); got != cut {
		return fmt.Errorf("reported cut %d, recount %d", cut, got)
	}
	b := mlpart.Balance(h, k, tolerance)
	for blk, a := range oracle.BlockAreas(h, p) {
		if a < b.Lo || a > b.Hi {
			return fmt.Errorf("block %d area %d outside [%d, %d]", blk, a, b.Lo, b.Hi)
		}
	}
	return nil
}

// runLib runs a lib-* workload: set-up several times in fresh worker
// processes, then the timed loop in the last one, then the checks.
func runLib(ctx context.Context, e *env, w *workload, seed int64, nOps int, traced bool) (*outcome, error) {
	plan, err := makeLibPlan(w, seed, nOps)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, w.Name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wp := workerPlan{K: plan.K, Ops: plan.Ops, Warm: plan.Warm, TraceFrom: len(plan.Ops)}
	if traced {
		wp.TraceFrom = len(plan.Ops) / 2
	}
	for i, hgr := range plan.Nets {
		path := filepath.Join(dir, "net-"+strconv.Itoa(i)+".hgr")
		if err := os.WriteFile(path, hgr, 0o644); err != nil {
			return nil, err
		}
		wp.Nets = append(wp.Nets, path)
	}
	planPath := filepath.Join(dir, "plan.json")
	data, err := json.Marshal(&wp)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return nil, err
	}

	var setups []time.Duration
	var res workerOut
	for r := 0; r < setupReps; r++ {
		last := r == setupReps-1
		d, err := runWorkerProc(ctx, e.self, planPath, last, &res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	if len(res.Ops) != len(plan.Ops) {
		return nil, fmt.Errorf("worker reported %d ops, want %d", len(res.Ops), len(plan.Ops))
	}

	o := &outcome{attempted: len(plan.Ops), metrics: map[string]float64{}}
	hs := make([]*mlpart.Hypergraph, len(plan.Nets))
	for i, hgr := range plan.Nets {
		if hs[i], err = mlpart.ReadHGR(bytes.NewReader(hgr)); err != nil {
			return nil, err
		}
	}
	lat := make([]time.Duration, len(res.Ops))
	ok := make([]bool, len(res.Ops))
	cuts := make([]float64, len(res.Ops))
	for i, r := range res.Ops {
		h := hs[plan.Ops[i].Net]
		lat[i], cuts[i] = time.Duration(r.LatNS), float64(r.Cut)
		p, err := mlpart.ReadPartition(bytes.NewReader(r.Part), h.NumCells())
		if err == nil {
			err = checkPartition(h, p, plan.K, r.Cut)
		}
		if err != nil {
			o.fail("op %d: %v", i, err)
			continue
		}
		ok[i] = true
	}
	untraced := res.Phases[0]
	if !traced {
		e2eMetrics(o, lat, ok, time.Duration(untraced.WallNS), cuts, setups, res.HWMKB)
		return o, nil
	}

	for _, d := range perLayer {
		o.metrics[d.Name] = 0
	}
	tr := res.Phases[1]
	lines, self, err := writeSpans(filepath.Join(e.work, w.Name+"-spans.jsonl"), res.Spans, tr.Ops)
	if err != nil {
		return nil, err
	}
	o.notes = append(o.notes, lines...)
	var reps []*mlpart.Report
	for _, r := range res.Ops[wp.TraceFrom:] {
		reps = append(reps, r.Report)
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(tr.Ops) }
	o.metrics["hypergraph.parse_ms"] = perOp(self["parse"])
	o.metrics["hypergraph.encode_ms"] = perOp(self["encode"])
	o.metrics["core.other_ms"] = perOp(self["partition"])
	stageLayers(o, reps, self, tr.Ops)
	o.metrics["runtime.alloc_mb_per_op"] = float64(untraced.AllocBytes) / (1 << 20) / float64(untraced.Ops)
	o.metrics["runtime.gc_per_op"] = float64(untraced.GCs) / float64(untraced.Ops)
	overhead(o, untraced.Ops, time.Duration(untraced.WallNS), tr.Ops, time.Duration(tr.WallNS))
	return o, nil
}

// overhead records the tracing overhead: how much higher the untraced
// phase's op rate is than the traced phase's.
func overhead(o *outcome, uOps int, uWall time.Duration, tOps int, tWall time.Duration) {
	u := float64(uOps) / uWall.Seconds()
	t := float64(tOps) / tWall.Seconds()
	o.metrics["trace.overhead_share"] = u/t - 1
	o.note("# tracing overhead: untraced %.4f ops/s (%d ops), traced %.4f ops/s (%d ops)", u, uOps, t, tOps)
}

// stageLayers fills the pipeline-stage layers from telemetry reports
// and the stage spans' self times: coarsen, fm or kway by the engine
// that made each pass, project and rebalance.
func stageLayers(o *outcome, reps []*mlpart.Report, self map[string]int64, ops int) {
	if len(reps) == 0 {
		return
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(ops) }
	var levels, moved float64
	var fmPasses, fmTried, fmKept, kwPasses, kwTried, kwKept int
	k4 := 0
	for _, r := range reps {
		levels += float64(r.Levels)
		if r.K == 4 {
			k4++
		}
		for _, st := range r.PerStart {
			moved += float64(st.RebalanceMoved)
			for _, ps := range st.Passes {
				if strings.HasPrefix(ps.Engine, "kway") {
					kwPasses++
					kwTried += ps.MovesTried
					kwKept += ps.MovesKept
				} else {
					fmPasses++
					fmTried += ps.MovesTried
					fmKept += ps.MovesKept
				}
			}
		}
	}
	n := float64(len(reps))
	o.metrics["coarsen.ms"] = perOp(self["coarsen"])
	o.metrics["coarsen.levels"] = levels / n
	o.metrics["core.project_ms"] = perOp(self["project"])
	o.metrics["core.rebalance_ms"] = perOp(self["rebalance"])
	o.metrics["core.rebalance_moved"] = moved / n
	// Refine time belongs to the engine of the op's k: fm refines
	// bipartitions, kway quadrisections.
	refine := perOp(self["refine"])
	fmShare := float64(len(reps)-k4) / n
	o.metrics["fm.refine_ms"] = refine * fmShare
	o.metrics["kway.refine_ms"] = refine * (1 - fmShare)
	o.metrics["fm.passes"] = float64(fmPasses) / n
	o.metrics["fm.moves_tried"] = float64(fmTried) / n
	o.metrics["fm.kept_per_tried"] = ratio(fmKept, fmTried)
	o.metrics["kway.passes"] = float64(kwPasses) / n
	o.metrics["kway.moves_tried"] = float64(kwTried) / n
	o.metrics["kway.kept_per_tried"] = ratio(kwKept, kwTried)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runWorkerProc starts one worker and returns its set-up time, from
// exec to its "ready" line. With run set it then lets the worker run
// its timed loop and decodes the report into out.
func runWorkerProc(ctx context.Context, self, planPath string, run bool, out *workerOut) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, self, "-worker", planPath)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	br := bufio.NewReader(stdout)
	line, err := br.ReadString('\n')
	setup := time.Since(start)
	if err != nil || strings.TrimSpace(line) != "ready" {
		stdin.Close()
		_ = cmd.Wait()
		return 0, fmt.Errorf("worker set-up failed (%q): %v", line, err)
	}
	if !run {
		stdin.Close()
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up worker: %w", err)
		}
		return setup, nil
	}
	if _, err := io.WriteString(stdin, "run\n"); err != nil {
		return 0, err
	}
	stdin.Close()
	decErr := json.NewDecoder(br).Decode(out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("worker: %w", err)
	}
	if decErr != nil {
		return 0, fmt.Errorf("worker report: %w", decErr)
	}
	return setup, nil
}
