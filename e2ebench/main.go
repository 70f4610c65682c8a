// Command e2ebench is mlpart's end-to-end benchmark. One run drives
// one workload closed-loop over a fixed, seeded list of operations,
// checks every output, and prints its metrics; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (through run.sh, which builds this command, cmd/mlpartd and
// cmd/statscheck first):
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --repeat 10
//
// Workloads:
//
//	lib-bipart  mlpart.ReadHGR + Bipartition + WritePartition, one client
//	lib-quad    the same with Quadrisect
//	svc-small   mlpartd, two clients, distinct small jobs
//	svc-mixed   mlpartd, two clients, small, large and repeated jobs
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs half of the
// list untraced and half traced and prints the per-layer metrics plus
// the tracing overhead. --repeat N runs the workload N times with
// seeds N, N+1, ... and prints each end-to-end metric's median,
// quartiles and spread against its bound in BENCHMARK.json.
//
// The number of operations in a run is --seconds times the workload's
// nominal rate, so a run lasts about --seconds on a 2-vCPU machine and
// every run of a workload does the same operations in the same order.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload. Rate is the nominal operation
// rate on a 2-vCPU machine; it sizes the operation list. LibSpec pins
// the size of a lib-* netlist: s13207's for lib-bipart, primary2's for
// lib-quad (Table I).
type workload struct {
	Name string
	Kind string // "lib" or "svc"
	Rate float64

	// lib-* only.
	K       int
	LibSpec netSpec

	// svc-* only.
	Mixed bool
}

var workloads = []*workload{
	{Name: "lib-bipart", Kind: "lib", Rate: 4.2, K: 2, LibSpec: netSpec{8772, 8651, 20606}},
	{Name: "lib-quad", Kind: "lib", Rate: 3.4, K: 4, LibSpec: netSpec{3014, 3029, 11219}},
	{Name: "svc-small", Kind: "svc", Rate: 215},
	{Name: "svc-mixed", Kind: "svc", Rate: 140, Mixed: true},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// metricDef names one metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics an untraced run prints. fail_share is
// printed too, but reported to the driver as ok_share = 1 - fail_share
// so that the metric is never 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cut_mean", "count"},
	{"ok_share", "ratio"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics a traced run prints, for every workload; a
// layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"hypergraph.parse_ms", "ms"},
	{"hypergraph.encode_ms", "ms"},
	{"coarsen.ms", "ms"},
	{"coarsen.levels", "count"},
	{"fm.refine_ms", "ms"},
	{"fm.passes", "count"},
	{"fm.moves_tried", "count"},
	{"fm.kept_per_tried", "ratio"},
	{"kway.refine_ms", "ms"},
	{"kway.passes", "count"},
	{"kway.moves_tried", "count"},
	{"kway.kept_per_tried", "ratio"},
	{"core.project_ms", "ms"},
	{"core.rebalance_ms", "ms"},
	{"core.rebalance_moved", "count"},
	{"core.other_ms", "ms"},
	{"server.submit_p50_ms", "ms"},
	{"server.submit_tail_ms", "ms"},
	{"server.wait_p50_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.result_p50_ms", "ms"},
	{"journal.appends_per_job", "count"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.replay_ms", "ms"},
	{"batcher.batched_share", "ratio"},
	{"batcher.mean_batch", "count"},
	{"cache.hit_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead_share", "ratio"},
}

// env is what every run needs from the command line.
type env struct {
	bin  string // directory holding mlpartd and statscheck
	work string // scratch directory for inputs, journals and spans
	spec string // BENCHMARK.json
	self string // this executable, for lib workers and repeat runs
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the metrics
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		o.notes = append(o.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runDeadline bounds one run, so that a hung daemon or worker cannot
// keep the benchmark past its time limit.
const runDeadline = 140 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		e        env
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed: generates every input of the run")
		seconds  = flag.Int("seconds", 20, "nominal measured time; sizes the operation list")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the workload this many times with successive seeds and print spreads")
		workPlan = flag.String("worker", "", "internal: run as a lib-* worker on this plan file")
	)
	flag.StringVar(&e.bin, "bin", "", "directory holding the mlpartd and statscheck binaries")
	flag.StringVar(&e.work, "work", "", "scratch directory for run files")
	flag.StringVar(&e.spec, "spec", "", "BENCHMARK.json, for --repeat bounds")
	flag.Parse()

	if *workPlan != "" {
		return runWorker(*workPlan)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if e.bin == "" || e.work == "" {
		return fmt.Errorf("-bin and -work are required (run through run.sh)")
	}
	if e.self, err = os.Executable(); err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	fmt.Println(machineHeader(e.work))
	if *repeat > 0 {
		return runRepeat(&e, w, *seed, *seconds, *trace, *repeat)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	traced := *trace == 1
	nOps := int(math.Round(float64(*seconds) * w.Rate))
	fmt.Printf("# workload %s seed %d seconds %d trace %d ops %d\n", w.Name, *seed, *seconds, *trace, nOps)
	var out *outcome
	if w.Kind == "lib" {
		out, err = runLib(ctx, &e, w, *seed, nOps, traced)
	} else {
		out, err = runSvc(ctx, &e, w, *seed, nOps, traced)
	}
	if err != nil {
		return err
	}
	return printOutcome(out, traced)
}

// printOutcome prints the notes, every metric by name and unit, and
// the result line.
func printOutcome(o *outcome, traced bool) error {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, map[string]map[string]any{}}
	if !traced {
		fmt.Printf("%-24s %.6g ratio (%d of %d)\n", "fail_share", float64(o.failed)/float64(max(o.attempted, 1)), o.failed, o.attempted)
	}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return fmt.Errorf("internal: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s = %v", d.Name, v)
		}
		fmt.Printf("%-24s %.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// e2eMetrics computes the end-to-end metrics shared by every workload
// from per-operation latencies (failed operations count at the run's
// wall time, so that they miss any latency limit), cuts and set-ups.
func e2eMetrics(o *outcome, lat []time.Duration, ok []bool, wall time.Duration, cuts []float64, setups []time.Duration, rssKB int64) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		if !ok[i] {
			d = wall
		}
		ms[i] = float64(d) / 1e6
	}
	tail := tailOf(ms)
	st := make([]float64, len(setups))
	for i, d := range setups {
		st[i] = d.Seconds()
	}
	o.metrics["setup_s"] = median(st)
	o.metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	o.metrics["op_p50_ms"] = median(ms)
	o.metrics["op_tail_ms"] = tail.Value
	o.metrics["cut_mean"] = mean(cuts)
	o.metrics["ok_share"] = 1 - float64(o.failed)/float64(max(o.attempted, 1))
	o.metrics["rss_peak_mb"] = float64(rssKB) / 1024
	o.note("# timed phase %.3fs for %d ops; set-ups %s", wall.Seconds(), len(lat), fmtDurations(setups))
	o.note("# op_tail_ms is p%g of %d samples, %d beyond it", tail.Pct, tail.N, tail.Beyond)
}

func fmtDurations(ds []time.Duration) string {
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%.4fs", d.Seconds()))
	}
	return strings.Join(parts, " ")
}

// machineHeader describes the machine the run measures: CPUs, Go, and
// the filesystem the journal and run files live on.
func machineHeader(work string) string {
	fs := "unknown"
	if abs, err := filepath.Abs(work); err == nil {
		fs = mountOf(abs)
	}
	//mllint:ignore numcpu-pool reported in the header, not used to size a pool
	nproc := runtime.NumCPU()
	return fmt.Sprintf("# machine nproc=%d gomaxprocs=%d go=%s os=%s/%s journal_fs=%s",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fs)
}

// mountOf names the filesystem type and device of the mount holding
// path, from /proc/mounts.
func mountOf(path string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, bestLen := "unknown", -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		dev, mnt, typ := fields[0], fields[1], fields[2]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > bestLen {
			best, bestLen = fmt.Sprintf("%s(%s on %s)", typ, dev, mnt), len(mnt)
		}
	}
	return best
}

// dieWithParent makes a child process receive SIGKILL if the benchmark
// dies first, so that a killed run leaves no daemon or worker behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// readHWM returns VmHWM, the peak resident set of process pid, in kB.
func readHWM(pid string) (int64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// writeSpans writes a traced phase's spans as JSON lines and returns
// the self-time table the run prints.
func writeSpans(path string, spans []span, ops int) ([]string, map[string]int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("# %d spans of %d traced ops in %s; self time per op:", len(spans), ops, path)}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("#   %-12s %10.4f ms", n, float64(self[n])/1e6/float64(max(ops, 1))))
	}
	return lines, self, nil
}
