package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"mlpart"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{19, 50, 9}, // too few for any percentile: the median, flagged by its count
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{45, 75, 11},
		{99, 75, 24},
		{100, 90, 10},
		{999, 90, 99},
		{1000, 99, 10},
		{4300, 99, 43},
		{10000, 99.9, 10},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // reversed, so tailOf must sort
		}
		got := tailOf(xs)
		if got.Pct != c.pct || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d beyond", c.n, got.Pct, got.Beyond, c.pct, c.beyond)
		}
		// The value is the sample at the nearest rank: exactly Beyond
		// samples are larger.
		if want := float64(c.n - got.Beyond); got.Value != want {
			t.Errorf("n=%d: value %g, want %g", c.n, got.Value, want)
		}
		if c.n >= 20 && got.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, got.Beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0}, 2.15, 7.45},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	var sl spanLog
	op := sl.add(0, 0, "op", 0, 100)
	// Overlapping children count once; a child running past its
	// parent counts only inside it.
	a := sl.add(op, 0, "a", 10, 30)
	sl.add(op, 0, "b", 20, 50)
	sl.add(op, 0, "c", 90, 120)
	// A grandchild reduces its parent's self time, not the root's.
	sl.add(a, 0, "g", 12, 18)
	// A second op's spans add to the same names.
	op2 := sl.add(0, 1, "op", 200, 260)
	sl.add(op2, 1, "a", 200, 260)
	got := selfTimes(sl.spans)
	want := map[string]int64{
		"op": (100 - 40 - 10) + 0,
		"a":  (20 - 6) + 60,
		"b":  30,
		"c":  30,
		"g":  6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSvcPlanSameSeedSameSequences(t *testing.T) {
	w, err := findWorkload("svc-mixed")
	if err != nil {
		t.Fatal(err)
	}
	const perClient = 60
	a, err := makeSvcPlan(w, 7, perClient, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSvcPlan(w, 7, perClient, perClient/2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := makeSvcPlan(w, 8, perClient, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Clients) != svcClients {
		t.Fatalf("%d clients, want %d", len(a.Clients), svcClients)
	}
	for ci := range a.Clients {
		if len(a.Clients[ci]) != perClient {
			t.Fatalf("client %d has %d jobs, want %d", ci, len(a.Clients[ci]), perClient)
		}
		// The pinned mix: per 20 jobs, 2 large (one k=2, one k=4 on
		// average) and 5 repeats, whatever the seed.
		repeats, large, k4 := 0, 0, 0
		for i, ja := range a.Clients[ci] {
			jb := b.Clients[ci][i]
			// Tracing changes only the stats flag of the body.
			if ja.K != jb.K || ja.Seed != jb.Seed || ja.Repeat != jb.Repeat || !bytes.Equal(a.Nets[ja.Net], b.Nets[jb.Net]) {
				t.Fatalf("client %d job %d differs between two plans of seed 7", ci, i)
			}
			if ja.Repeat >= 0 {
				repeats++
				if ja.Repeat >= i || !bytes.Equal(ja.Body, a.Clients[ci][ja.Repeat].Body) {
					t.Fatalf("client %d job %d: repeat of %d is not an exact earlier request", ci, i, ja.Repeat)
				}
				continue
			}
			h, err := mlpart.ReadHGR(bytes.NewReader(a.Nets[ja.Net]))
			if err != nil {
				t.Fatal(err)
			}
			if h.NumCells() >= largeMin {
				large++
				if ja.K == 4 {
					k4++
				}
			}
		}
		if repeats != perClient/4 || large != perClient/10 || k4 != large/2 {
			t.Errorf("client %d: %d repeats, %d large (%d with k=4); want %d, %d (%d)",
				ci, repeats, large, k4, perClient/4, perClient/10, perClient/20)
		}
	}
	if reflect.DeepEqual(a.Clients, c.Clients) {
		t.Error("seeds 7 and 8 gave the same sequences")
	}
	if !reflect.DeepEqual(a.Seeded, b.Seeded) || len(a.Seeded) != 3*svcSeededJobs {
		t.Error("seeded journal differs between two plans of seed 7")
	}

	small, err := findWorkload("svc-small")
	if err != nil {
		t.Fatal(err)
	}
	s, err := makeSvcPlan(small, 7, perClient, -1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, seq := range s.Clients {
		for _, j := range seq {
			if j.Repeat >= 0 || seen[string(j.Body)] {
				t.Fatal("svc-small repeats a job")
			}
			seen[string(j.Body)] = true
		}
	}
}

func TestLibPlanSameSeedSameOps(t *testing.T) {
	w, err := findWorkload("lib-quad")
	if err != nil {
		t.Fatal(err)
	}
	a, err := makeLibPlan(w, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeLibPlan(w, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two lib plans of seed 3 differ")
	}
	if len(a.Ops) != 10 || len(a.Nets) != 11 {
		t.Errorf("plan has %d ops and %d netlists", len(a.Ops), len(a.Nets))
	}
}

func TestGCTraceWindow(t *testing.T) {
	trace := []byte(`mlpartd: listening on 127.0.0.1:1
gc 1 @0.010s 1%: 0.01+0.2+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 2 @1.500s 1%: 0.01+0.2+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 5->5->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 3 @2.500s 1%: 0.01+0.2+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 7->8->3 MB, 8 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 4 @9.000s 1%: 0.01+0.2+0.01 ms clock, 0.02+0.1/0.2/0.3+0.02 ms cpu, 9->9->3 MB, 9 MB goal, 0 MB stacks, 0 MB globals, 2 P
`)
	alloc, gcs := gcTraceWindow(trace, time.Second, 3*time.Second)
	if gcs != 2 || alloc != (5-1)+(7-2) {
		t.Errorf("gcTraceWindow = %g MB, %d GCs; want 9 MB, 2 GCs", alloc, gcs)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this command runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	if !reflect.DeepEqual(endToEnd, spec.EndToEnd) {
		t.Errorf("end_to_end metrics differ:\n code %v\n json %v", endToEnd, spec.EndToEnd)
	}
	if !reflect.DeepEqual(perLayer, spec.PerLayer) {
		t.Errorf("per_layer metrics differ:\n code %v\n json %v", perLayer, spec.PerLayer)
	}
}
