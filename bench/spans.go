package main

import "time"

// span is one timed call from bench code into a layer's public function.
// Spans of one replayed request share a trace; parent is the span that
// contains the same work one layer up (0 for a root).
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// recorder keeps spans in memory until the run ends. Switched off it
// only calls through, which is how the tracing overhead is measured.
type recorder struct {
	t0    time.Time
	spans []span
	off   bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its ID, so calls made before it closes
// can name it as their parent.
func (r *recorder) open(name string, trace, parent, items int) int {
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: len(r.spans) + 1, Parent: parent,
		Start: int64(time.Since(r.t0)), Items: items})
	return len(r.spans)
}

func (r *recorder) close(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// call times f as one span and returns the span's ID.
func (r *recorder) call(name string, trace, parent, items int, f func()) int {
	if r.off {
		f()
		return 0
	}
	id := r.open(name, trace, parent, items)
	f()
	r.close(id)
	return id
}

// spanStats reduces the spans of one name.
type spanStats struct {
	calls, items int
	total, self  time.Duration // self: total minus the time child spans cover
	durs         []float64     // per call, ns
}

func (s spanStats) nsPerItem() float64 {
	if s.items == 0 {
		return 0
	}
	return float64(s.total) / float64(s.items)
}

func (s spanStats) selfNsPerItem() float64 {
	if s.items == 0 {
		return 0
	}
	return float64(s.self) / float64(s.items)
}

func (s spanStats) medianNs() float64 {
	if len(s.durs) == 0 {
		return 0
	}
	return median(s.durs)
}

// stats groups spans by name; a span's self time is its duration minus
// its children's.
func (r *recorder) stats() map[string]*spanStats {
	children := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.calls++
		st.items += s.Items
		st.total += d
		st.self += d - children[s.ID]
		st.durs = append(st.durs, float64(d))
	}
	return out
}
