package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail latency is chosen
// from: the highest one that still has minBeyond samples above it.
var tailLadder = []float64{50, 75, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to
// count as measured rather than as a single unlucky sample.
const minBeyond = 10

// tailStat is a tail percentile with the sample counts behind it.
type tailStat struct {
	Pct    float64 // the ladder percentile used
	Value  float64 // the sample at its nearest rank
	N      int     // samples
	Beyond int     // samples strictly above the nearest rank
}

// nearestRank is the 1-based nearest-rank position of percentile p
// among n sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailOf picks the highest ladder percentile with at least minBeyond
// samples beyond it. With too few samples for even the median to
// qualify it reports the median and says how many lie beyond it.
func tailOf(xs []float64) tailStat {
	s := sortedCopy(xs)
	t := tailStat{N: len(s)}
	if len(s) == 0 {
		return t
	}
	for _, p := range tailLadder {
		rank := nearestRank(p, len(s))
		if len(s)-rank < minBeyond {
			break
		}
		t.Pct, t.Value, t.Beyond = p, s[rank-1], len(s)-rank
	}
	if t.Pct == 0 {
		rank := nearestRank(50, len(s))
		t.Pct, t.Value, t.Beyond = 50, s[rank-1], len(s)-rank
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive"
// method), so the spread printed here is the one a Python check of the
// same values computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// span is one traced interval. Spans of one operation share Op; a
// root span has Parent 0. Times are nanoseconds from the start of the
// traced phase.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its direct children cover.
// Overlapping children count once, and a child reaching outside its
// parent counts only inside it.
func selfTimes(spans []span) map[string]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		var cs []iv
		for _, c := range kids[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if lo < hi {
				cs = append(cs, iv{lo, hi})
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo := max(c.lo, reach)
			if c.hi > lo {
				covered += c.hi - lo
			}
			reach = max(reach, c.hi)
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// spanLog hands out span ids for one traced phase.
type spanLog struct {
	spans []span
}

// add records a span and returns its id for use as a parent.
func (l *spanLog) add(parent, op int, name string, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}
