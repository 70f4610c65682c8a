package mlpart

// Chaos suite: sweep every registered fault-injection site crossed
// with every fault kind through both public entry points, with audits
// on, and assert the robustness contract: no crash, a valid balanced
// partition whenever err == nil, and a typed *InternalError or
// *AuditError otherwise. Run under -race by `make chaos`.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mlpart/internal/faultinject"
)

// siteFires reports whether a site can trigger on the given entry
// point (fm.pass is bipartition-only, kway.refine quadrisection-only;
// coarsen.score and fm.subround live on the intra-parallel paths, so
// they need IntraParallelism > 0 — and the sub-round engine replaces
// serial FM/CLIP for bipartitioning only, the k-way engine has no
// parallel refinement; the server.* sites live in mlpartd's
// admission/job paths and the journal.* sites in its write-ahead log,
// so none of them is ever reached through the library entry points).
func siteFires(site faultinject.Site, k, intra int) bool {
	switch site {
	case faultinject.SiteFMPass:
		return k == 2
	case faultinject.SiteKwayRefine:
		return k == 4
	case faultinject.SiteCoarsenScore:
		return intra > 0
	case faultinject.SiteFMSubround:
		return intra > 0 && k == 2
	case faultinject.SiteServerAdmit, faultinject.SiteServerJob,
		faultinject.SiteServerBatch, faultinject.SiteServerEvents,
		faultinject.SiteJournalAppend, faultinject.SiteJournalReplay:
		return false
	}
	return true
}

func TestChaosSweep(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaos", Cells: 300, Nets: 340, Pins: 1100, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	for _, k := range []int{2, 4} {
		for _, intra := range []int{0, 2} {
			for _, site := range faultinject.AllSites {
				for _, kind := range faultinject.Kinds {
					site, kind, k, intra := site, kind, k, intra
					t.Run(fmt.Sprintf("k%d/intra%d/%s/%s", k, intra, site, kind), func(t *testing.T) {
						t.Parallel()
						opt := Options{
							Seed:             61,
							Starts:           2,
							IntraParallelism: intra,
							Audit:            true,
							Inject: &FaultPlan{
								Seed:    7,
								Entries: []FaultEntry{faultinject.On(site, kind, 1)},
							},
						}
						// err is per subtest: the parallel subtests must not
						// share the enclosing function's err.
						var p *Partition
						var info Info
						var err error
						if k == 2 {
							p, info, err = BipartitionCtx(context.Background(), h, opt)
						} else {
							p, info, err = QuadrisectCtx(context.Background(), h, opt)
						}
						checkChaosOutcome(t, h, k, p, info, err)
						if len(info.StartReports) != opt.Starts {
							t.Fatalf("got %d start reports, want %d", len(info.StartReports), opt.Starts)
						}
						if info.Interrupted {
							t.Errorf("synthetic fault must not set Info.Interrupted (caller ctx was never done)")
						}
						faults := 0
						for _, r := range info.StartReports {
							if r.Start < 0 || r.Start >= opt.Starts {
								t.Errorf("report start index %d out of range", r.Start)
							}
							faults += r.Faults
						}
						if siteFires(site, k, intra) && faults == 0 {
							t.Errorf("site %s armed but no faults fired", site)
						}
						if !siteFires(site, k, intra) && faults != 0 {
							t.Errorf("site %s fired %d times on k=%d intra=%d, want 0", site, faults, k, intra)
						}
					})
				}
			}
		}
	}
}

// checkChaosOutcome asserts the contract shared by every chaos combo.
func checkChaosOutcome(t *testing.T, h *Hypergraph, k int, p *Partition, info Info, err error) {
	t.Helper()
	if err != nil {
		var ierr *InternalError
		var aerr *AuditError
		if !errors.As(err, &ierr) && !errors.As(err, &aerr) {
			t.Fatalf("untyped chaos error: %v", err)
		}
		if p == nil {
			if info.BestStart != -1 {
				t.Fatalf("nil partition but BestStart = %d", info.BestStart)
			}
			return
		}
	}
	if p == nil {
		t.Fatal("nil partition with nil error")
	}
	if info.BestStart < 0 {
		t.Fatalf("non-nil partition but BestStart = %d", info.BestStart)
	}
	if verr := p.Validate(h.NumCells()); verr != nil {
		t.Fatalf("invalid partition: %v", verr)
	}
	if !p.IsBalanced(h, Balance(h, k, 0.1)) {
		t.Fatalf("unbalanced partition (k=%d)", k)
	}
}

// TestChaosRetriesExhaust pins the hard-failure path: a panic armed
// at core.project refires on every reseeded retry (OnHit is
// deterministic), so every start must exhaust its attempts and the
// run must surface a typed *InternalError with no partition.
func TestChaosRetriesExhaust(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaosfail", Cells: 200, Nets: 230, Pins: 740, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Seed:   62,
		Starts: 2,
		Audit:  true,
		Inject: &FaultPlan{
			Entries: []FaultEntry{faultinject.On(faultinject.SiteCoreProject, FaultPanic, 1)},
		},
	}
	p, info, err := Bipartition(c.H, opt)
	if p != nil {
		t.Fatal("want nil partition when every start fails")
	}
	var ierr *InternalError
	if !errors.As(err, &ierr) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if info.BestStart != -1 {
		t.Fatalf("BestStart = %d, want -1", info.BestStart)
	}
	for _, r := range info.StartReports {
		if r.Outcome != StartFailed {
			t.Errorf("start %d outcome %v, want %v", r.Start, r.Outcome, StartFailed)
		}
		if r.Attempts < 2 {
			t.Errorf("start %d made %d attempts, want a retry (>= 2)", r.Start, r.Attempts)
		}
		if r.Err == nil {
			t.Errorf("start %d failed without an error", r.Start)
		}
	}
}

// TestChaosCorruptionCaughtByAudit pins that a corrupted solution at
// a refinement pass boundary is detected by the audit layer as a
// typed *AuditError (or absorbed into a still-valid solution) —
// never silently returned as a corrupt "success".
func TestChaosCorruptionCaughtByAudit(t *testing.T) {
	c, err := GenerateCircuit(CircuitSpec{Name: "chaoscor", Cells: 300, Nets: 340, Pins: 1100, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	h := c.H
	opt := Options{
		Seed:       63,
		Starts:     1,
		MaxRetries: -1, // no reseeded retry: surface the first attempt's fate
		Audit:      true,
		Inject: &FaultPlan{
			Entries: []FaultEntry{faultinject.On(faultinject.SiteFMPass, FaultCorrupt, 1)},
		},
	}
	p, _, err := Bipartition(h, opt)
	if err != nil {
		var aerr *AuditError
		var ierr *InternalError
		if !errors.As(err, &aerr) && !errors.As(err, &ierr) {
			t.Fatalf("corruption surfaced as untyped error: %v", err)
		}
		return
	}
	// The corruption was absorbed by later passes; the result must be
	// fully valid.
	if p == nil {
		t.Fatal("nil partition with nil error")
	}
	if verr := p.Validate(h.NumCells()); verr != nil {
		t.Fatalf("invalid partition: %v", verr)
	}
	if !p.IsBalanced(h, Balance(h, 2, 0.1)) {
		t.Fatal("unbalanced partition")
	}
}
