package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mlpart"
	"mlpart/internal/journal"
)

// waitMS is the long-poll a client asks GET /v1/jobs/{id} for.
const waitMS = 60000

// daemon is one mlpartd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	start  time.Time
	stdout bytes.Buffer
	stderr bytes.Buffer
	hc     *http.Client
}

// startDaemon starts mlpartd on the journal at wal and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(ctx context.Context, e *env, dir, wal string, gctrace bool) (*daemon, time.Duration, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	// mlpartd's production flags for these workloads: a journal on the
	// run directory's disk, the batch lane on for small jobs (up to 2000
	// pins: every 150-350-cell job and no 1k-2k-cell job), the result
	// cache at its default size.
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-journal", wal, "-batch-pins", "2000"}
	d := &daemon{cmd: exec.Command(filepath.Join(e.bin, "mlpartd"), args...), hc: &http.Client{}}
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	d.cmd.SysProcAttr = dieWithParent()
	if gctrace {
		d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("mlpartd not ready: %s", d.stderr.String())
		}
		if d.base == "" {
			if a, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(a, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(a))
			}
		}
		if d.base != "" {
			if resp, err := d.hc.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(d.start), nil
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("mlpartd exit: %w: %s", err, d.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("mlpartd did not drain within 30s")
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// get fetches path and returns the body of a 200 answer.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.hc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, nil
}

// ledger is the part of the /statsz snapshot the layer metrics use.
type ledger struct {
	Accepted     int64 `json:"accepted"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Batched      int64 `json:"batched"`
	BatchFlushes int64 `json:"batch_flushes"`
	runNS        int64 // total_ns summed over the bench schema's entries
}

func (d *daemon) ledger() (ledger, []byte, error) {
	var l ledger
	raw, err := d.get("/statsz")
	if err != nil {
		return l, nil, err
	}
	if err := json.Unmarshal(raw, &l); err != nil {
		return l, nil, err
	}
	b, err := d.get("/statsz?schema=bench")
	if err != nil {
		return l, nil, err
	}
	var bench struct {
		Entries []struct {
			StageNS struct {
				TotalNS int64 `json:"total_ns"`
			} `json:"stage_ns"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return l, nil, err
	}
	for _, en := range bench.Entries {
		l.runNS += en.StageNS.TotalNS
	}
	return l, raw, nil
}

// jobOut is one job's outcome as its client saw it.
type jobOut struct {
	err                  string
	t0                   time.Time
	submit, wait, result time.Duration
	hit                  bool
	body                 []byte         // the result document
	report               *mlpart.Report // traced jobs that ran
}

func (j *jobOut) total() time.Duration { return j.submit + j.wait + j.result }

// jobView is the part of a job document the client reads.
type jobView struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	CacheHit bool           `json:"cache_hit"`
	Stats    *mlpart.Report `json:"stats"`
	Error    *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// do runs one job the way the CLI flow or a placer does: submit, wait
// for the terminal status, fetch the result.
func (c *client) do(ctx context.Context, body []byte) jobOut {
	var out jobOut
	out.t0 = time.Now()
	status, resp, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	t1 := time.Now()
	out.submit = t1.Sub(out.t0)
	if err != nil || status != http.StatusAccepted {
		out.err = fmt.Sprintf("submit: %d %v %.200s", status, err, resp)
		return out
	}
	var v jobView
	if err := json.Unmarshal(resp, &v); err != nil {
		out.err = "submit: " + err.Error()
		return out
	}
	id := v.ID
	for v.Status != "completed" && v.Status != "failed" && v.Status != "cancelled" &&
		v.Status != "deadline-exceeded" && v.Status != "drained" {
		status, resp, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait_ms="+strconv.Itoa(waitMS), nil)
		if err == nil && status == http.StatusOK {
			v = jobView{}
			err = json.Unmarshal(resp, &v)
		}
		if err != nil || status != http.StatusOK {
			out.err = fmt.Sprintf("wait: %d %v %.200s", status, err, resp)
			return out
		}
	}
	t2 := time.Now()
	out.wait = t2.Sub(t1)
	if v.Status != "completed" {
		out.err = "job ended " + v.Status
		if v.Error != nil {
			out.err += ": " + v.Error.Message
		}
		return out
	}
	out.report = v.Stats
	status, resp, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	out.result = time.Since(t2)
	if err != nil || status != http.StatusOK {
		out.err = fmt.Sprintf("result: %d %v %.200s", status, err, resp)
		return out
	}
	out.body, out.hit = resp, v.CacheHit
	return out
}

func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runClients runs jobs [lo, hi) of every client's sequence, each
// client closed-loop in its own goroutine, and returns when all are
// done, with the wall time.
func runClients(ctx context.Context, cs []*client, seqs [][]svcJob, outs [][]jobOut, lo, hi int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := lo; i < hi && i < len(seqs[c]); i++ {
				outs[c][i] = cs[c].do(ctx, seqs[c][i].Body)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// journalSize counts the journal's frames and bytes.
func journalSize(wal string) (frames int, bytes int64, err error) {
	_, st, err := journal.Load(wal, nil)
	return st.Frames, st.ValidBytes, err
}

// statscheck pipes a report into cmd/statscheck, or inspects a journal
// with -journal.
func statscheck(e *env, stdin []byte, args ...string) error {
	cmd := exec.Command(filepath.Join(e.bin, "statscheck"), args...)
	cmd.Stdin = bytes.NewReader(stdin)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("statscheck %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(out.String()))
	}
	return nil
}

// copyFile copies src to dst, replacing dst.
func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// runSvc runs a svc-* workload: mlpartd restarted setupReps times on
// the seeded journal, warm-up jobs, the timed closed loops, then the
// checks on every result, the final ledger and the journal.
func runSvc(ctx context.Context, e *env, w *workload, seed int64, nOps int, traced bool) (*outcome, error) {
	perClient := (nOps + svcClients - 1) / svcClients
	tracedFrom := -1
	if traced {
		tracedFrom = perClient / 2
	}
	plan, err := makeSvcPlan(w, seed, perClient, tracedFrom)
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
	seedWAL, wal := filepath.Join(dir, "seed.wal"), filepath.Join(dir, "jobs.wal")
	if err := journal.Rewrite(seedWAL, plan.Seeded); err != nil {
		return nil, err
	}

	o := &outcome{metrics: map[string]float64{}}
	// Set-up: exec to the first /readyz 200 on a fresh copy of the
	// seeded journal, so every start replays and compacts it. The traced
	// run also starts on an empty journal, to isolate replay.
	setupsOn := func(seeded bool, keepLast bool) ([]time.Duration, *daemon, error) {
		var ds []time.Duration
		for r := 0; r < setupReps; r++ {
			if err := os.Remove(wal); err != nil && !os.IsNotExist(err) {
				return nil, nil, err
			}
			if seeded {
				if err := copyFile(wal, seedWAL); err != nil {
					return nil, nil, err
				}
			}
			d, took, err := startDaemon(ctx, e, dir, wal, traced)
			if err != nil {
				return nil, nil, err
			}
			ds = append(ds, took)
			if keepLast && r == setupReps-1 {
				return ds, d, nil
			}
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		return ds, nil, nil
	}
	var emptySetups []time.Duration
	if traced {
		if emptySetups, _, err = setupsOn(false, false); err != nil {
			return nil, err
		}
	}
	setups, d, err := setupsOn(true, true)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	cs := make([]*client, svcClients)
	for c := range cs {
		cs[c] = newClient(d.base)
	}
	warmOuts := make([][]jobOut, svcClients)
	for c := range warmOuts {
		warmOuts[c] = make([]jobOut, len(plan.Warm[c]))
	}
	runClients(ctx, cs, plan.Warm, warmOuts, 0, svcWarmJobs)
	for c := range warmOuts {
		for _, j := range warmOuts[c] {
			if j.err != "" {
				return nil, fmt.Errorf("warm-up job: %s", j.err)
			}
		}
	}

	frames0, bytes0, err := journalSize(wal)
	if err != nil {
		return nil, err
	}
	led0, _, err := d.ledger()
	if err != nil {
		return nil, err
	}
	outs := make([][]jobOut, svcClients)
	for c := range outs {
		outs[c] = make([]jobOut, len(plan.Clients[c]))
	}
	phase0 := time.Since(d.start)
	split := perClient
	if traced {
		split = tracedFrom
	}
	wall := runClients(ctx, cs, plan.Clients, outs, 0, split)
	phase1 := time.Since(d.start)
	var tWall time.Duration
	var ledMid ledger
	if traced {
		if ledMid, _, err = d.ledger(); err != nil {
			return nil, err
		}
		tWall = runClients(ctx, cs, plan.Clients, outs, split, perClient)
	}
	hwm, err := readHWM(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	led1, raw, err := d.ledger()
	if err != nil {
		return nil, err
	}
	frames1, bytes1, err := journalSize(wal)
	if err != nil {
		return nil, err
	}
	if err := statscheck(e, raw); err != nil {
		o.fail("live ledger: %v", err)
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := statscheck(e, d.stdout.Bytes()); err != nil {
		o.fail("final ledger: %v", err)
	}
	if err := statscheck(e, nil, "-journal", wal); err != nil {
		o.fail("journal: %v", err)
	}

	// Check every job and collect the per-op numbers.
	var (
		lat      []time.Duration
		ok       []bool
		cuts     []float64
		tracedJ  []*jobOut
		parseNS  int64
		encodeNS int64
		misses   int
	)
	for c := range outs {
		for i := range outs[c] {
			j := &outs[c][i]
			job := plan.Clients[c][i]
			o.attempted++
			lat = append(lat, j.total())
			good, cut, pNS, eNS := checkJob(o, plan, job, j, outs[c], c, i)
			ok, cuts = append(ok, good), append(cuts, float64(cut))
			if job.Repeat >= 0 && !j.hit && j.err == "" {
				misses++
			}
			if traced && i >= split {
				tracedJ = append(tracedJ, j)
				parseNS += pNS
				encodeNS += eNS
			}
		}
	}
	if misses > 0 {
		o.note("# %d repeated jobs missed the cache", misses)
	}
	o.note("# journal: %d frames, %d bytes appended in the timed phase", frames1-frames0, bytes1-bytes0)
	if !traced {
		e2eMetrics(o, lat, ok, wall, cuts, setups, hwm)
		return o, nil
	}

	for _, m := range perLayer {
		o.metrics[m.Name] = 0
	}
	n := float64(len(tracedJ))
	o.metrics["hypergraph.parse_ms"] = float64(parseNS) / 1e6 / n
	o.metrics["hypergraph.encode_ms"] = float64(encodeNS) / 1e6 / n
	var sl spanLog
	var sub, wt, res []float64
	var reps []*mlpart.Report
	base := tracedJ[0].t0
	for i, j := range tracedJ {
		ns := func(t time.Time) int64 { return int64(t.Sub(base)) }
		t1 := j.t0.Add(j.submit)
		t2 := t1.Add(j.wait)
		root := sl.add(0, i, "op", ns(j.t0), ns(t2.Add(j.result)))
		sl.add(root, i, "submit", ns(j.t0), ns(t1))
		wait := sl.add(root, i, "wait", ns(t1), ns(t2))
		sl.add(root, i, "result", ns(t2), ns(t2.Add(j.result)))
		sub = append(sub, float64(j.submit)/1e6)
		wt = append(wt, float64(j.wait)/1e6)
		res = append(res, float64(j.result)/1e6)
		if j.report != nil {
			// The job's run, from its own stats, ends where the wait
			// ends; what it leaves of the wait is queueing.
			var runNS int64
			for _, st := range j.report.PerStart {
				runNS += st.Timings.TotalNS
			}
			run := sl.add(wait, i, "run", ns(t2)-runNS, ns(t2))
			stageSpans(&sl, run, i, ns(t2)-runNS, j.report)
			reps = append(reps, j.report)
		}
	}
	lines, self, err := writeSpans(filepath.Join(e.work, w.Name+"-spans.jsonl"), sl.spans, len(tracedJ))
	if err != nil {
		return nil, err
	}
	o.notes = append(o.notes, lines...)
	stageLayers(o, reps, self, len(reps))
	if len(reps) > 0 {
		o.metrics["core.other_ms"] = float64(self["run"]) / 1e6 / float64(len(reps))
	}
	o.metrics["server.submit_p50_ms"] = median(sub)
	o.metrics["server.submit_tail_ms"] = tailOf(sub).Value
	o.metrics["server.wait_p50_ms"] = median(wt)
	o.metrics["server.queue_ms"] = float64(self["wait"]) / 1e6 / n
	o.metrics["server.result_p50_ms"] = median(res)
	if ran := led1.CacheMisses - ledMid.CacheMisses; ran > 0 {
		o.metrics["server.run_ms"] = float64(led1.runNS-ledMid.runNS) / 1e6 / float64(ran)
	}
	acc := float64(led1.Accepted - led0.Accepted)
	o.metrics["journal.appends_per_job"] = float64(frames1-frames0) / acc
	o.metrics["journal.bytes_per_job"] = float64(bytes1-bytes0) / acc
	var st, se []float64
	for i := range setups {
		st, se = append(st, float64(setups[i])/1e6), append(se, float64(emptySetups[i])/1e6)
	}
	o.metrics["journal.replay_ms"] = median(st) - median(se)
	o.note("# set-up on the seeded journal %s, on an empty one %s", fmtDurations(setups), fmtDurations(emptySetups))
	o.metrics["batcher.batched_share"] = float64(led1.Batched-led0.Batched) / acc
	if fl := led1.BatchFlushes - led0.BatchFlushes; fl > 0 {
		o.metrics["batcher.mean_batch"] = float64(led1.Batched-led0.Batched) / float64(fl)
	}
	if look := (led1.CacheHits - led0.CacheHits) + (led1.CacheMisses - led0.CacheMisses); look > 0 {
		o.metrics["cache.hit_share"] = float64(led1.CacheHits-led0.CacheHits) / float64(look)
	}
	allocMB, gcs := gcTraceWindow(d.stderr.Bytes(), phase0, phase1)
	untracedOps := float64(split * svcClients)
	o.metrics["runtime.alloc_mb_per_op"] = allocMB / untracedOps
	o.metrics["runtime.gc_per_op"] = float64(gcs) / untracedOps
	o.note("# runtime: %d GCs, about %.1f MB allocated in the untraced phase (from GODEBUG=gctrace=1)", gcs, allocMB)
	overhead(o, split*svcClients, wall, len(tracedJ), tWall)
	return o, nil
}

// checkJob checks one job: it ended completed, its cut equals an
// independent recount on the submitted netlist, its partition is
// balanced, and a repeat's result bytes equal its original's. It
// returns the job's cut and the time the library takes to parse its
// netlist and encode its partition.
func checkJob(o *outcome, plan *svcPlan, job svcJob, j *jobOut, seq []jobOut, c, i int) (good bool, cut int, parseNS, encodeNS int64) {
	if j.err != "" {
		o.fail("client %d job %d: %s", c, i, j.err)
		return false, 0, 0, 0
	}
	var doc struct {
		K         int     `json:"k"`
		Cut       int     `json:"cut"`
		Partition []int32 `json:"partition"`
	}
	if err := json.Unmarshal(j.body, &doc); err != nil {
		o.fail("client %d job %d: result: %v", c, i, err)
		return false, 0, 0, 0
	}
	t0 := time.Now()
	h, err := mlpart.ReadHGR(bytes.NewReader(plan.Nets[job.Net]))
	parseNS = int64(time.Since(t0))
	if err != nil {
		o.fail("client %d job %d: netlist: %v", c, i, err)
		return false, 0, 0, 0
	}
	if doc.K != job.K || len(doc.Partition) != h.NumCells() {
		o.fail("client %d job %d: result has k=%d and %d cells, want k=%d and %d", c, i, doc.K, len(doc.Partition), job.K, h.NumCells())
		return false, doc.Cut, parseNS, 0
	}
	p := &mlpart.Partition{Part: doc.Partition, K: job.K}
	t1 := time.Now()
	_ = mlpart.WritePartition(io.Discard, p) // timing only; io.Discard cannot fail
	encodeNS = int64(time.Since(t1))
	if err := checkPartition(h, p, job.K, doc.Cut); err != nil {
		o.fail("client %d job %d: %v", c, i, err)
		return false, doc.Cut, parseNS, encodeNS
	}
	if job.Repeat >= 0 && j.hit && seq[job.Repeat].err == "" && !bytes.Equal(j.body, seq[job.Repeat].body) {
		o.fail("client %d job %d: cache hit differs from the result of job %d", c, i, job.Repeat)
		return false, doc.Cut, parseNS, encodeNS
	}
	return true, doc.Cut, parseNS, encodeNS
}

// gcLine matches one GODEBUG=gctrace=1 line: its time since process
// start and its heap sizes at GC start, GC end and marked live.
var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s .* (\d+)->(\d+)->(\d+) MB`)

// gcTraceWindow reads the runtime's GC trace and returns, for the GCs
// between from and to (times since process start), an estimate of the
// heap allocated and the number of cycles. The estimate sums, per GC,
// the heap at its start minus the live heap the previous GC marked; the
// trace's whole-MB sizes make it coarse.
func gcTraceWindow(stderr []byte, from, to time.Duration) (allocMB float64, gcs int) {
	prevLive := -1.0
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		at, _ := strconv.ParseFloat(m[1], 64)
		start, _ := strconv.ParseFloat(m[2], 64)
		live, _ := strconv.ParseFloat(m[4], 64)
		t := time.Duration(at * float64(time.Second))
		if t >= from && t < to {
			gcs++
			if prevLive >= 0 {
				allocMB += start - prevLive
			}
		}
		prevLive = live
	}
	return allocMB, gcs
}
