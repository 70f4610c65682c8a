package mlpart

// Golden cut-value regression: pinned instances (the checked-in
// smoke.hgr plus three pinned netgen circuits) through
// Bipartition/Quadrisect/RecursiveBisect at fixed seeds must keep
// producing the exact cuts recorded in testdata/golden_cuts.json —
// and produce them bit-identically at Parallelism 1 and 4. Each entry
// also pins the SHA-256 digest of the partition file, so a change
// that keeps the cut but moves cells trips it too. VCycle,
// TwoPhaseBipartition and core.Quadrisect with pre-assigned pads (the
// only Fixed path) are pinned the same way. Any change to RNG
// consumption anywhere in the pipeline (the classic symptom of a
// workspace that leaks state between levels or starts) trips this
// test. Regenerate deliberately with:
//
//	go test -run Golden -update-golden .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlpart/internal/core"
	"mlpart/internal/oracle"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cuts.json from the current implementation")

const goldenSchema = "mlpart-golden-cuts/1"

type goldenEntry struct {
	Instance  string `json:"instance"`
	Algorithm string `json:"algorithm"`
	Cut       int    `json:"cut"`
	Digest    string `json:"digest"`
}

type goldenFile struct {
	Schema  string        `json:"schema"`
	Entries []goldenEntry `json:"entries"`
}

// goldenInstances returns the pinned instances, name → hypergraph.
func goldenInstances(t *testing.T) []struct {
	name string
	h    *Hypergraph
} {
	t.Helper()
	f, err := os.Open(filepath.Join("cmd", "mlpart", "testdata", "smoke.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	smoke, err := ReadHGR(f)
	if err != nil {
		t.Fatal(err)
	}
	out := []struct {
		name string
		h    *Hypergraph
	}{{name: "smoke.hgr", h: smoke}}
	for _, spec := range []CircuitSpec{
		{Name: "golden-a", Cells: 800, Nets: 860, Pins: 2700, Seed: 101},
		{Name: "golden-b", Cells: 1200, Nets: 1300, Pins: 4200, Seed: 102},
		{Name: "golden-c", Cells: 1600, Nets: 1700, Pins: 5600, Seed: 103},
	} {
		c, err := GenerateCircuit(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			h    *Hypergraph
		}{name: spec.Name, h: c.H})
	}
	return out
}

// goldenRun executes one algorithm on one instance at the given
// IntraParallelism. For the multi-start entry points it runs at
// Parallelism 1 and 4 and fails unless the partitions are
// bit-identical; with intra > 0 it additionally re-runs with an
// 8-worker intra pool and requires bit-identity there too (the
// tentpole contract: worker count never changes the result, only
// 0-vs->=1 selects the algorithm).
func goldenRun(t *testing.T, algorithm string, h *Hypergraph, intra int) (*Partition, int) {
	t.Helper()
	runAt := func(par, workers int) (*Partition, int) {
		opt := Options{Seed: 7, Starts: 2, Parallelism: par, IntraParallelism: workers}
		switch algorithm {
		case "bipartition":
			p, info, err := Bipartition(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			return p, info.Cut
		case "quadrisect":
			p, info, err := Quadrisect(h, opt)
			if err != nil {
				t.Fatal(err)
			}
			return p, info.Cut
		case "recursive-bisect":
			p, err := RecursiveBisect(h, 4, MLConfig{IntraParallelism: workers}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return p, oracle.Cut(h, p)
		}
		t.Fatalf("unknown algorithm %q", algorithm)
		return nil, 0
	}
	samePart := func(label string, a, b *Partition) {
		t.Helper()
		for v := range a.Part {
			if a.Part[v] != b.Part[v] {
				t.Fatalf("%s: partitions diverge across %s at cell %d", algorithm, label, v)
			}
		}
	}
	p1, cut1 := runAt(1, intra)
	p4, cut4 := runAt(4, intra)
	if cut1 != cut4 {
		t.Fatalf("%s: cut %d at Parallelism 1, %d at Parallelism 4", algorithm, cut1, cut4)
	}
	samePart("Parallelism", p1, p4)
	if intra > 0 {
		p8, cut8 := runAt(1, 8)
		if cut1 != cut8 {
			t.Fatalf("%s: cut %d at IntraParallelism %d, %d at IntraParallelism 8", algorithm, cut1, intra, cut8)
		}
		samePart("IntraParallelism", p1, p8)
	}
	if want := oracle.Cut(h, p1); cut1 != want {
		t.Fatalf("%s: reported cut %d, oracle recount %d", algorithm, cut1, want)
	}
	return p1, cut1
}

// partitionDigest is the hex SHA-256 of p's partition file.
func partitionDigest(t *testing.T, p *Partition) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePartition(&buf, p); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenPads pins the pre-assigned-pad pattern of the quadrisect-pads
// entry: every 16th cell is fixed, cycling through the four blocks.
func goldenPads(n int) ([]bool, []int32) {
	fixed := make([]bool, n)
	pre := make([]int32, n)
	for v := 0; v < n; v += 16 {
		fixed[v], pre[v] = true, int32(v/16%4)
	}
	return fixed, pre
}

// goldenExtra runs the entry points that sit beside the multi-start
// API: VCycle (3 cycles from the golden bipartition), the two-phase
// baseline, and core.Quadrisect with pinned pre-assigned pads.
func goldenExtra(t *testing.T, name string, h *Hypergraph, bip *Partition) []goldenEntry {
	t.Helper()
	entry := func(alg string, p *Partition, cut int) goldenEntry {
		if want := oracle.Cut(h, p); cut != want {
			t.Fatalf("%s: reported cut %d, oracle recount %d", alg, cut, want)
		}
		return goldenEntry{Instance: name, Algorithm: alg, Cut: cut, Digest: partitionDigest(t, p)}
	}
	pv, vcut, err := VCycle(h, bip, 3, MLConfig{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pt, tres, err := TwoPhaseBipartition(h, MLConfig{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	fixed, pre := goldenPads(h.NumCells())
	pq, qres, err := core.Quadrisect(h, core.QuadConfig{Fixed: fixed, Preassign: pre}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for v, fx := range fixed {
		if fx && pq.Part[v] != pre[v] {
			t.Fatalf("quadrisect-pads: pad %d in block %d, pre-assigned %d", v, pq.Part[v], pre[v])
		}
	}
	return []goldenEntry{
		entry("vcycle", pv, vcut),
		entry("twophase", pt, tres.Cut),
		entry("quadrisect-pads", pq, qres.CutNets),
	}
}

func TestGoldenCuts(t *testing.T) {
	cases := []struct {
		alg   string
		intra int
		label string
	}{
		{"bipartition", 0, "bipartition"},
		{"quadrisect", 0, "quadrisect"},
		{"recursive-bisect", 0, "recursive-bisect"},
		// The intra-parallel pipeline is a distinct deterministic
		// algorithm (sub-round refinement), so its cuts are pinned
		// separately; intra = 1 is the canonical representative and
		// goldenRun cross-checks 8 workers against it.
		{"bipartition", 1, "bipartition-intra"},
		{"quadrisect", 1, "quadrisect-intra"},
		{"recursive-bisect", 1, "recursive-bisect-intra"},
	}
	var got []goldenEntry
	for _, inst := range goldenInstances(t) {
		var bip *Partition
		for _, tc := range cases {
			p, cut := goldenRun(t, tc.alg, inst.h, tc.intra)
			if tc.label == "bipartition" {
				bip = p
			}
			got = append(got, goldenEntry{
				Instance:  inst.name,
				Algorithm: tc.label,
				Cut:       cut,
				Digest:    partitionDigest(t, p),
			})
		}
		got = append(got, goldenExtra(t, inst.name, inst.h, bip)...)
	}

	path := filepath.Join("testdata", "golden_cuts.json")
	if *updateGolden {
		data, err := json.MarshalIndent(goldenFile{Schema: goldenSchema, Entries: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if want.Schema != goldenSchema {
		t.Fatalf("golden schema %q, want %q", want.Schema, goldenSchema)
	}
	if len(want.Entries) != len(got) {
		t.Fatalf("golden file has %d entries, test produced %d", len(want.Entries), len(got))
	}
	for i, w := range want.Entries {
		g := got[i]
		if g != w {
			t.Errorf("entry %d: got %+v, golden %+v", i, g, w)
		}
	}
}
