package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation. at is the instant that places it in
// a time slice, as an offset from the start of the measured window: the
// completion time in a closed loop, the intended send time in an open one.
type sample struct {
	at    time.Duration
	lat   time.Duration
	items int
}

// percentile returns the p-quantile (0..1) of sorted by the nearest-rank
// rule; NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(vals, n=4) (the exclusive method) gives them, which
// is the rule the acceptance check applies to ten runs.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// cutSlices cuts [0, window) into equal slices of about the given width (at
// least one) and returns each slice's samples. Samples outside the window
// are dropped.
func cutSlices(samples []sample, window, width time.Duration) [][]sample {
	n := max(int(window/width), 1)
	width = window / time.Duration(n)
	out := make([][]sample, n)
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := min(int(s.at/width), n-1)
		out[i] = append(out[i], s)
	}
	return out
}

// sliceRate is items per second in each slice, median over slices.
func sliceRate(samples []sample, window, width time.Duration) float64 {
	cut := cutSlices(samples, window, width)
	per := window.Seconds() / float64(len(cut))
	rates := make([]float64, len(cut))
	for i, sl := range cut {
		var items int
		for _, s := range sl {
			items += s.items
		}
		rates[i] = float64(items) / per
	}
	return median(rates)
}

// sliceQuantileMs is the p-quantile of latency within each slice, median
// over the slices that hold a sample, in milliseconds.
func sliceQuantileMs(samples []sample, window, width time.Duration, p float64) float64 {
	var qs []float64
	for _, sl := range cutSlices(samples, window, width) {
		if len(sl) == 0 {
			continue
		}
		lat := make([]float64, len(sl))
		for i, s := range sl {
			lat[i] = float64(s.lat) / float64(time.Millisecond)
		}
		sort.Float64s(lat)
		qs = append(qs, percentile(lat, p))
	}
	return median(qs)
}

func inWindow(samples []sample, window time.Duration) (n, items int) {
	for _, s := range samples {
		if s.at >= 0 && s.at < window {
			n++
			items += s.items
		}
	}
	return n, items
}

func medianDuration(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}
