package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"mlpart"
	"mlpart/internal/journal"
)

// tolerance is the balance tolerance r of the default mlpart.Options,
// which is what every workload runs.
const tolerance = 0.1

// netSpec pins the size of a generated netgen netlist.
type netSpec struct {
	Cells, Nets, Pins int
}

// spec scales a per-cell net and pin ratio to a cell count.
func ratioSpec(cells int) netSpec {
	return netSpec{Cells: cells, Nets: cells, Pins: cells * 33 / 10}
}

// genNetlist generates one netlist and returns it parsed and as the
// hMETIS text the program receives.
func genNetlist(ns netSpec, seed int64) (*mlpart.Hypergraph, []byte, error) {
	c, err := mlpart.GenerateCircuit(mlpart.CircuitSpec{
		Name: "e2ebench", Cells: ns.Cells, Nets: ns.Nets, Pins: ns.Pins, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := mlpart.WriteHGR(&buf, c.H); err != nil {
		return nil, nil, err
	}
	return c.H, buf.Bytes(), nil
}

// libOp is one library operation: parse netlist Net, partition it with
// Seed, write the partition.
type libOp struct {
	Net  int   `json:"net"`
	Seed int64 `json:"seed"`
}

// libPlan is the seeded input of a lib-* run. Nets holds the seeded
// netlists and, last, the warm-up netlist.
type libPlan struct {
	K    int      `json:"k"`
	Nets [][]byte `json:"-"`
	Ops  []libOp  `json:"ops"`
	Warm libOp    `json:"warm"`
}

// warmSeed generates the warm-up netlist and seed of lib-* set-ups. It
// does not follow --seed, so that set-up does the same work on every
// run and setup_s varies only with the program and the machine.
const warmSeed = 1997

// makeLibPlan generates one netlist per operation, so that a run
// averages over as many netlists as it does operations and the op rate
// varies little from seed to seed.
func makeLibPlan(w *workload, seed int64, nOps int) (*libPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &libPlan{K: w.K}
	for i := 0; i < nOps; i++ {
		_, hgr, err := genNetlist(w.LibSpec, rng.Int63())
		if err != nil {
			return nil, err
		}
		p.Nets = append(p.Nets, hgr)
		p.Ops = append(p.Ops, libOp{Net: i, Seed: rng.Int63n(1 << 31)})
	}
	_, hgr, err := genNetlist(w.LibSpec, warmSeed)
	if err != nil {
		return nil, err
	}
	p.Nets = append(p.Nets, hgr)
	p.Warm = libOp{Net: nOps, Seed: warmSeed}
	return p, nil
}

// svcJob is one mlpartd job of a client's sequence.
type svcJob struct {
	Net    int    // index into svcPlan.Nets
	K      int    // 2 or 4
	Seed   int64  // Options.Seed of the job
	Repeat int    // index of the earlier job of the same client this repeats exactly, or -1
	Body   []byte // the POST /v1/jobs body
}

// svcPlan is the seeded input of a svc-* run.
type svcPlan struct {
	Nets    [][]byte
	Clients [][]svcJob // the timed sequence of each client
	Warm    [][]svcJob // untimed warm-up jobs of each client
	Seeded  []journal.Record
}

const (
	svcClients    = 2    // closed-loop clients; at most nproc on the reference machine
	svcWarmJobs   = 8    // warm-up jobs per client, before the clock starts
	svcSeededJobs = 2000 // closed jobs in the journal every set-up replays
	smallMin      = 150  // small-job cell range
	smallMax      = 350
	largeMin      = 1000 // large-job cell range (svc-mixed only)
	largeMax      = 2000
)

// The job mixes, one letter per job, repeated over a client's whole
// sequence: S a fresh small job (k=2), L a fresh large one (k=2 and k=4
// in equal numbers), r an exact repeat of one of the client's last 32
// fresh small jobs, R one of its last 4 fresh large jobs. svc-mixed has,
// per 20 jobs, 13 small, 2 large, 4 small repeats and 1 large repeat:
// about 1 in 10 large and 1 in 4 repeats. The mix is pinned rather than
// drawn per job, so that every seed runs the same composition; the seed
// picks the netlists, the job seeds, the order of sizes and which
// earlier job a repeat copies.
const (
	smallMix      = "S"
	mixedMix      = "SSLSrSSrSSLSrSSRSSrS"
	smallWindow   = 32
	largeWindow   = 4
	mixedRotation = 10 // client c starts the mix at c*mixedRotation, so large jobs of the two clients interleave
)

// stratified returns n cell counts spread evenly over [lo, hi], in an
// order shuffled by rng.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int((float64(hi-lo)*(float64(i)+0.5))/float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// jobBody renders a POST /v1/jobs body. traced asks the job for its
// telemetry report; the server's cache key ignores it, so a traced
// repeat still hits the entry its untraced original filled.
func jobBody(hgr []byte, k int, seed int64, traced bool) ([]byte, error) {
	return json.Marshal(struct {
		HGR     string         `json:"hgr"`
		K       int            `json:"k"`
		Options map[string]any `json:"options"`
		Stats   bool           `json:"stats,omitempty"`
	}{string(hgr), k, map[string]any{"seed": seed}, traced})
}

// makeSvcPlan generates every client's job sequence from seed. When
// tracedFrom >= 0, the jobs at and after that index of each sequence
// ask for telemetry. The sequences (netlists, k, seeds and repeat
// positions) do not depend on tracedFrom.
func makeSvcPlan(w *workload, seed int64, perClient, tracedFrom int) (*svcPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &svcPlan{}
	newNet := func(rng *rand.Rand, cells int) (int, error) {
		_, hgr, err := genNetlist(ratioSpec(cells), rng.Int63())
		if err != nil {
			return 0, err
		}
		p.Nets = append(p.Nets, hgr)
		return len(p.Nets) - 1, nil
	}
	clientSeeds := make([]int64, svcClients)
	for c := range clientSeeds {
		clientSeeds[c] = rng.Int63()
	}
	mix := smallMix
	if w.Mixed {
		mix = mixedMix
	}
	for c := 0; c < svcClients; c++ {
		crng := rand.New(rand.NewSource(clientSeeds[c]))
		var warm []svcJob
		for i := 0; i < svcWarmJobs; i++ {
			n, err := newNet(crng, smallMin+crng.Intn(smallMax-smallMin+1))
			if err != nil {
				return nil, err
			}
			warm = append(warm, svcJob{Net: n, K: 2, Seed: crng.Int63n(1 << 31), Repeat: -1})
		}
		slots := make([]byte, perClient)
		nSmall, nLarge := 0, 0
		for i := range slots {
			slots[i] = mix[(i+c*mixedRotation)%len(mix)]
			switch slots[i] {
			case 'S':
				nSmall++
			case 'L':
				nLarge++
			}
		}
		smallSizes := stratified(crng, nSmall, smallMin, smallMax)
		largeSizes := stratified(crng, nLarge, largeMin, largeMax)
		largeK := make([]int, nLarge)
		for i := range largeK {
			largeK[i] = 2 + 2*(i%2)
		}
		crng.Shuffle(nLarge, func(i, j int) { largeK[i], largeK[j] = largeK[j], largeK[i] })
		var seq []svcJob
		var smalls, larges []int // indices of this client's fresh jobs by size class
		for i, slot := range slots {
			win := smalls[max(0, len(smalls)-smallWindow):]
			if slot == 'R' {
				win = larges[max(0, len(larges)-largeWindow):]
			}
			if (slot == 'r' || slot == 'R') && len(win) > 0 {
				src := win[crng.Intn(len(win))]
				j := seq[src]
				j.Repeat = src
				seq = append(seq, j)
				continue
			}
			var cells, k int
			switch slot {
			case 'L':
				cells, k = largeSizes[0], largeK[0]
				largeSizes, largeK = largeSizes[1:], largeK[1:]
			case 'R': // a large repeat with no large job before it
				cells, k = largeMin+crng.Intn(largeMax-largeMin+1), 2
			case 'S':
				cells, k = smallSizes[0], 2
				smallSizes = smallSizes[1:]
			default: // a small repeat with no small job before it
				cells, k = smallMin+crng.Intn(smallMax-smallMin+1), 2
			}
			if cells >= largeMin {
				larges = append(larges, i)
			} else {
				smalls = append(smalls, i)
			}
			n, err := newNet(crng, cells)
			if err != nil {
				return nil, err
			}
			seq = append(seq, svcJob{Net: n, K: k, Seed: crng.Int63n(1 << 31), Repeat: -1})
		}
		p.Clients = append(p.Clients, seq)
		p.Warm = append(p.Warm, warm)
	}
	for c := range p.Clients {
		for i := range p.Clients[c] {
			j := &p.Clients[c][i]
			b, err := jobBody(p.Nets[j.Net], j.K, j.Seed, tracedFrom >= 0 && i >= tracedFrom)
			if err != nil {
				return nil, err
			}
			j.Body = b
		}
		for i := range p.Warm[c] {
			j := &p.Warm[c][i]
			b, err := jobBody(p.Nets[j.Net], j.K, j.Seed, false)
			if err != nil {
				return nil, err
			}
			j.Body = b
		}
	}
	seeded, err := seededJournal(rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	p.Seeded = seeded
	return p, nil
}

// seededJournal builds the journal of svcSeededJobs closed jobs that
// every svc-* set-up replays and compacts: for each job the accepted
// record with its full request, then started, then terminal, as the
// daemon itself appends them.
func seededJournal(rng *rand.Rand) ([]journal.Record, error) {
	fp, err := mlpart.Options{}.Fingerprint()
	if err != nil {
		return nil, err
	}
	recs := make([]journal.Record, 0, 3*svcSeededJobs)
	for i := 0; i < svcSeededJobs; i++ {
		h, hgr, err := genNetlist(ratioSpec(smallMin+rng.Intn(smallMax-smallMin+1)), rng.Int63())
		if err != nil {
			return nil, err
		}
		req, err := json.Marshal(struct {
			HGR string `json:"hgr"`
			K   int    `json:"k"`
		}{string(hgr), 2})
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("j-%06d", i)
		recs = append(recs,
			journal.Record{Type: journal.TypeAccepted, ID: id, Seq: i, ContentHash: h.ContentHash(), Fingerprint: fp, K: 2, Request: req},
			journal.Record{Type: journal.TypeStarted, ID: id, Seq: i},
			journal.Record{Type: journal.TypeTerminal, ID: id, Seq: i, Status: "completed"})
	}
	return recs, nil
}
