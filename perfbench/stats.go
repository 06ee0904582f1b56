package main

import (
	"math"
	"sort"
	"time"
)

// windowed collects per-request latencies into fixed-width windows of
// the timed interval. Percentiles are computed per window and reported
// as the median over windows, so one stalled second (a GC cycle, a noisy
// neighbour) moves a run's figure less than whole-run percentiles
// would. Throughput is the plain rate over the interval: over runs on
// the reference host it spread less than the median window rate, which
// snaps to one level when the host changes speed mid-run.
type windowed struct {
	t0    time.Time
	width time.Duration
	wins  [][]uint32 // latency in ns, clamped to 2^32-1
	// sparse marks an interval shared with another tally (traced runs
	// alternate slices): its empty windows belong to the other one and
	// are left out of the summary.
	sparse bool
}

// windowsFor splits a timed interval of the given length into about
// one-second windows, never fewer than four.
func windowsFor(d time.Duration) (int, time.Duration) {
	n := int(math.Round(d.Seconds()))
	if n < 4 {
		n = 4
	}
	return n, d / time.Duration(n)
}

func newWindowed(t0 time.Time, d time.Duration) *windowed {
	n, width := windowsFor(d)
	return &windowed{t0: t0, width: width, wins: make([][]uint32, n)}
}

// add records one request that completed at end after lat. Requests
// completing outside the interval are dropped.
func (w *windowed) add(end time.Time, lat time.Duration) { w.addAt(end.Sub(w.t0), lat) }

// addAt is add with the completion time given as an offset from the
// interval's start.
func (w *windowed) addAt(end, lat time.Duration) {
	i := int(end / w.width)
	if i < 0 || i >= len(w.wins) {
		return
	}
	ns := lat.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	w.wins[i] = append(w.wins[i], uint32(ns))
}

// merge folds other (same interval) into w.
func (w *windowed) merge(other *windowed) {
	for i := range w.wins {
		w.wins[i] = append(w.wins[i], other.wins[i]...)
	}
}

// windowSummary is a run's throughput and latency percentiles.
type windowSummary struct {
	qps, p50us, p99us float64
	samples           int
}

func (w *windowed) summary() windowSummary {
	var p50, p99 []float64
	total, active := 0, 0
	for _, win := range w.wins {
		total += len(win)
		if len(win) == 0 {
			if !w.sparse {
				active++ // a stalled window still counts its time
			}
			continue
		}
		active++
		s := append([]uint32(nil), win...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		p50 = append(p50, float64(s[rank(len(s), 0.50)])/1e3)
		p99 = append(p99, float64(s[rank(len(s), 0.99)])/1e3)
	}
	qps := ratio(float64(total), float64(active)*w.width.Seconds())
	return windowSummary{qps: qps, p50us: median(p50), p99us: median(p99), samples: total}
}

// rank is the nearest-rank index of quantile q in a sorted slice of n.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank quantile of xs (unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// durationsMedian returns the median of ds in seconds.
func durationsMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}
