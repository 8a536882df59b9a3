package main

import (
	"slices"
	"sync"
	"time"
)

// opRecord is one issued operation, times as offsets from the schedule's
// start. status 0 means the transport failed.
type opRecord struct {
	intended, issued, done time.Duration
	kind, status, items    int
}

// openLoop issues operations 0..total-1 on a fixed schedule: operation i
// is due at start + i/rate whatever the server does. Worker w owns
// operations w, w+workers, …; it sleeps until the next one is due and,
// when it is late, works through its backlog back to back. Latency is
// taken from the intended time, so a stall is charged to every operation
// it delays, not only to the one that hit it.
func openLoop(start time.Time, rate float64, total, workers int,
	issue func(worker, i int) (kind, status, items int)) [][]opRecord {
	perOp := float64(time.Second) / rate
	out := make([][]opRecord, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			recs := make([]opRecord, 0, total/workers+1)
			for i := w; i < total; i += workers {
				intended := time.Duration(float64(i) * perOp)
				if d := time.Until(start.Add(intended)); d > 0 {
					time.Sleep(d)
				}
				issued := time.Since(start)
				kind, status, items := issue(w, i)
				recs = append(recs, opRecord{
					intended: intended, issued: issued, done: time.Since(start),
					kind: kind, status: status, items: items,
				})
			}
			out[w] = recs
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs workers that each issue their next operation as soon as
// the previous one is answered, until stop is closed. Worker w issues
// operations w, w+workers, …
func closedLoop(start time.Time, workers int, stop <-chan struct{},
	issue func(worker, i int) (kind, status, items int)) [][]opRecord {
	out := make([][]opRecord, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var recs []opRecord
			for i := w; ; i += workers {
				select {
				case <-stop:
					out[w] = recs
					return
				default:
				}
				issued := time.Since(start)
				kind, status, items := issue(w, i)
				recs = append(recs, opRecord{
					intended: issued, issued: issued, done: time.Since(start),
					kind: kind, status: status, items: items,
				})
			}
		}(w)
	}
	wg.Wait()
	return out
}

// opLog is every operation of a run, with the reductions the metrics need.
type opLog struct {
	recs         []opRecord
	measureStart time.Duration // offset of the measured window in the schedule
	window       time.Duration
}

func newOpLog(parts [][]opRecord, measureStart, window time.Duration) *opLog {
	l := &opLog{measureStart: measureStart, window: window}
	for _, p := range parts {
		l.recs = append(l.recs, p...)
	}
	return l
}

// samples selects the successful operations keep accepts. byIntended
// places each by its intended time (latency, open loop) instead of its
// completion (throughput). Latency always runs from the intended time.
func (l *opLog) samples(keep func(kind int) bool, byIntended bool) []sample {
	var out []sample
	for _, r := range l.recs {
		if !keep(r.kind) || !ok2xx(r.status) {
			continue
		}
		at := r.done
		if byIntended {
			at = r.intended
		}
		out = append(out, sample{at: at - l.measureStart, lat: r.done - r.intended, items: r.items})
	}
	return out
}

func (l *opLog) tally() tally {
	var t tally
	for _, r := range l.recs {
		t.note(r.status)
	}
	return t
}

// stallMax is the longest any operation of the whole run took, warm-up
// included and unfiltered: one bad second shows here even when the
// slice-medians hide it.
func (l *opLog) stallMax() time.Duration {
	var m time.Duration
	for _, r := range l.recs {
		m = max(m, r.done-r.intended)
	}
	return m
}

// lateP99 is how late the generator itself ran: issue time minus intended
// time, 99th percentile, in the measured window.
func (l *opLog) lateP99Ms() float64 {
	var late []sample
	for _, r := range l.recs {
		late = append(late, sample{at: r.intended - l.measureStart, lat: r.issued - r.intended})
	}
	return sliceQuantileMs(late, l.window, l.window, 0.99)
}

func isKind(kinds ...int) func(int) bool {
	return func(k int) bool { return slices.Contains(kinds, k) }
}
