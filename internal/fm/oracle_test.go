package fm

// Differential "Oracle" tests for the workspace-reusing refinement
// paths: a Config.WS threaded through many runs must change nothing —
// not the RNG stream, not a single block assignment — and every
// reported cut must survive internal/oracle's from-scratch recount.

import (
	"math/rand"
	"testing"

	"mlpart/internal/gainbucket"
	"mlpart/internal/oracle"
)

// TestOracleWorkspaceReuseBitIdentical runs every engine × bucket
// order over a sequence of random instances twice: once allocating
// per run (WS nil), once reusing a single Workspace across the whole
// sequence (so every buffer arrives dirty from the previous instance,
// including instances of different sizes). The partitions and results
// must be bit-identical, and the cuts must match the oracle.
func TestOracleWorkspaceReuseBitIdentical(t *testing.T) {
	engines := []Engine{EngineFM, EngineCLIP, EnginePROP, EngineCLIPPROP}
	orders := []gainbucket.Order{gainbucket.LIFO, gainbucket.FIFO, gainbucket.Random}
	for _, eng := range engines {
		for _, order := range orders {
			ws := &Workspace{}
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(900 + seed))
				// Alternate sizes so reuse shrinks and regrows buffers.
				n := 80 + int(seed%3)*70
				h := randomH(rng, n, n+20, 6)

				cfgFresh := Config{Engine: eng, Order: order}
				pFresh, resFresh, err := Partition(h, nil, cfgFresh, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}

				cfgWS := Config{Engine: eng, Order: order, WS: ws}
				pWS, resWS, err := Partition(h, nil, cfgWS, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}

				if resFresh != resWS {
					t.Fatalf("engine %v order %v seed %d: results diverge: %+v vs %+v",
						eng, order, seed, resFresh, resWS)
				}
				for v := range pFresh.Part {
					if pFresh.Part[v] != pWS.Part[v] {
						t.Fatalf("engine %v order %v seed %d: partitions diverge at cell %d",
							eng, order, seed, v)
					}
				}
				if want := oracle.WeightedCut(h, pWS); resWS.Cut != want {
					t.Fatalf("engine %v order %v seed %d: reported cut %d, oracle %d",
						eng, order, seed, resWS.Cut, want)
				}
			}
		}
	}
}
