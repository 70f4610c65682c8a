package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// runResult is the result line of one run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// runRepeat runs the workload n times, each in its own process with the
// next seed, and prints per metric the median, the quartiles and the
// spread (Q3-Q1)/median next to the metric's bound. A spread within a
// third of the bound is steady enough for the benchmark's gate.
func runRepeat(e *env, w *workload, seed int64, seconds, trace, n int) error {
	data, err := os.ReadFile(e.spec)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", e.spec, err)
	}
	values := map[string][]float64{}
	allCorrect := true
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(e.self, "-bin", e.bin, "-work", e.work, "-spec", e.spec,
			"--workload", w.Name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w\n%s", s, err, out.String())
		}
		var r runResult
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", s, err)
		}
		allCorrect = allCorrect && r.Correct
		var parts []string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if t := sc.Text(); strings.HasPrefix(t, "# op_tail_ms") {
				parts = append(parts, strings.TrimPrefix(t, "# "))
			}
		}
		names := make([]string, 0, len(r.Metrics))
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			parts = append(parts, fmt.Sprintf("%s=%.6g", name, r.Metrics[name].Value))
		}
		fmt.Printf("run seed=%d correct=%v attempted=%d failed=%d %s\n", s, r.Correct, r.Attempted, r.Failed, strings.Join(parts, " "))
	}
	type row struct {
		name, unit string
		bound      float64
	}
	var rows []row
	if trace == 1 {
		for _, m := range spec.PerLayer {
			rows = append(rows, row{m.Name, m.Unit, 0})
		}
	} else {
		for _, m := range spec.EndToEnd {
			rows = append(rows, row{m.Name, m.Unit, m.Bound})
		}
	}
	fmt.Printf("# %s: %d runs, seeds %d..%d, %ds each\n", w.Name, n, seed, seed+int64(n)-1, seconds)
	fmt.Printf("%-24s %-6s %12s %12s %12s %8s %6s %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	steady := true
	for _, r := range rows {
		vs := values[r.name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := ""
		if r.bound > 0 {
			switch {
			case spread <= r.bound/3:
				verdict = "steady"
			case spread <= r.bound:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
			if r.name != "setup_s" && spread > r.bound/3 {
				steady = false
			}
		}
		fmt.Printf("%-24s %-6s %12.6g %12.6g %12.6g %8.4f %6.3f %s\n", r.name, r.unit, med, q1, q3, spread, r.bound, verdict)
	}
	fmt.Printf("# all runs correct: %v; every bounded spread (setup_s aside) within a third of its bound: %v\n", allCorrect, steady)
	return nil
}
