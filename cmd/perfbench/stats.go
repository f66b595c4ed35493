package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minSamples is the fewest latency samples a measured window may yield; a
// p99 needs at least ten samples beyond it.
const minSamples = 1000

// errFewSamples aborts a run whose window collected too few samples.
var errFewSamples = errors.New("too few latency samples")

// summarizeLatency applies the percentile rule of the end-to-end metrics
// to the successful latencies (ms): failed requests count as +Inf, and a
// window with fewer than minSamples successes is an error.
func summarizeLatency(ms []float64, failed int) (p50, p99 float64, err error) {
	if len(ms) < minSamples {
		return 0, 0, fmt.Errorf("%w: %d < %d", errFewSamples, len(ms), minSamples)
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	return percentile(sorted, failed, 0.50), percentile(sorted, failed, 0.99), nil
}

// percentile is the nearest-rank p-quantile of sorted successes plus failed
// +Inf values appended after them.
func percentile(sorted []float64, failed int, p float64) float64 {
	n := len(sorted) + failed
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return math.Inf(1)
	}
	return sorted[rank-1]
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mean of v, 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median of a non-empty slice (mean of the middle pair for even lengths).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one traced layer call. Times are nanoseconds since the replay
// started; parent 0 marks a root span.
type span struct {
	ID, Req    int64
	Name       string
	Parent     int64
	Start, End int64
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Calls      int     `json:"calls"`
	MeanUs     float64 `json:"us_mean"`
	P99Us      float64 `json:"us_p99"`
	SelfMeanUs float64 `json:"self_us_mean"`
}

// spanStats groups spans by name: call count, mean and p99 duration, and
// mean self time, in microseconds.
func spanStats(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfSum := make(map[string]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfSum[s.Name] += float64(self[s.ID]) / 1e3
	}
	out := make(map[string]spanStat, len(durs))
	for name, d := range durs {
		sort.Float64s(d)
		var sum float64
		for _, v := range d {
			sum += v
		}
		out[name] = spanStat{
			Calls:      len(d),
			MeanUs:     sum / float64(len(d)),
			P99Us:      percentile(d, 0, 0.99),
			SelfMeanUs: selfSum[name] / float64(len(d)),
		}
	}
	return out
}
