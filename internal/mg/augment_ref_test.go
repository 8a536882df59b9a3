package mg

import (
	"math/rand"
	"testing"

	"repro/internal/hist"
	"repro/internal/parallel"
)

// refAugment is MGaugment as it was written before the index lookup: the
// paper's sort-based formulation (hist.Combine over counters ++ batch,
// parallel rank selection, parallel pack). It is the reference the table
// path must agree with on ϕ and on the kept counters.
func refAugment(capS int, entries, h []hist.Entry, seed int64) (phi int64, kept []hist.Entry) {
	combined := hist.Combine(append(append([]hist.Entry(nil), entries...), h...), seed)
	if len(combined) > capS {
		freqs := parallel.Map(len(combined), func(i int) int64 { return combined[i].Freq })
		phi = parallel.KthLargest(freqs, capS+1)
	}
	kept = parallel.Pack(combined, func(i int) bool { return combined[i].Freq > phi })
	for i := range kept {
		kept[i].Freq -= phi
	}
	return phi, kept
}

func asMap(t *testing.T, es []hist.Entry) map[uint64]int64 {
	t.Helper()
	m := make(map[uint64]int64, len(es))
	for _, e := range es {
		if _, dup := m[e.Item]; dup {
			t.Fatalf("item %d has two counters", e.Item)
		}
		m[e.Item] = e.Freq
	}
	return m
}

// stepBoth applies h to g and to the reference counters, and requires
// the same ϕ, the same kept set, and an index that answers for exactly
// that set.
func stepBoth(t *testing.T, g *Summary, ref []hist.Entry, h []hist.Entry, seed int64) []hist.Entry {
	t.Helper()
	before := asMap(t, g.Entries())
	phi, want := refAugment(g.Capacity(), ref, h, seed)
	g.AugmentHist(h)
	got, wantMap := asMap(t, g.Entries()), asMap(t, want)
	if len(got) != len(wantMap) {
		t.Fatalf("kept %d counters, reference keeps %d (ϕ=%d)", len(got), len(wantMap), phi)
	}
	if len(got) > g.Capacity() {
		t.Fatalf("kept %d > S=%d counters", len(got), g.Capacity())
	}
	batch := asMap(t, h)
	for item, f := range wantMap {
		if got[item] != f {
			t.Fatalf("item %d: counter %d, reference %d (ϕ=%d)", item, got[item], f, phi)
		}
		if g.Estimate(item) != f {
			t.Fatalf("item %d: Estimate %d, counter %d", item, g.Estimate(item), f)
		}
		// The ϕ the table path subtracted, recovered from any survivor.
		if gotPhi := before[item] + batch[item] - got[item]; gotPhi != phi {
			t.Fatalf("item %d: ϕ=%d, reference ϕ=%d", item, gotPhi, phi)
		}
	}
	for item := range before {
		if _, ok := wantMap[item]; !ok && g.Estimate(item) != 0 {
			t.Fatalf("dropped item %d still answers %d", item, g.Estimate(item))
		}
	}
	for item := range batch {
		if _, ok := wantMap[item]; !ok && g.Estimate(item) != 0 {
			t.Fatalf("rejected item %d answers %d", item, g.Estimate(item))
		}
	}
	return want
}

func TestAugmentHistMatchesSortBasedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16)
	for _, capS := range []int{1, 7, 100, 1000} {
		g := NewWithCapacity(capS)
		var ref []hist.Entry
		for step := 0; step < 40; step++ {
			n := []int{0, 1, 63, 700, 8192}[rng.Intn(5)]
			items := make([]uint64, n)
			for i := range items {
				if step%2 == 0 {
					items[i] = zipf.Uint64()
				} else {
					items[i] = uint64(rng.Intn(4 * capS))
				}
			}
			ref = stepBoth(t, g, ref, hist.Build(items, int64(step)), int64(step))
		}
	}
}

// TestAugmentHistCapacityBoundaries walks the combined size across S:
// exactly S distinct items must prune nothing (ϕ = 0), S+1 must prune by
// the smallest count, and ties at the cutoff must all go.
func TestAugmentHistCapacityBoundaries(t *testing.T) {
	const capS = 8
	entries := func(lo, n int, freq int64) []hist.Entry {
		es := make([]hist.Entry, n)
		for i := range es {
			es[i] = hist.Entry{Item: uint64(lo + i), Freq: freq + int64(i)}
		}
		return es
	}
	for _, tc := range []struct {
		name        string
		first, next []hist.Entry
		wantKept    int
	}{
		{"below-S", entries(0, 3, 5), entries(10, 4, 2), 7},
		{"exactly-S", entries(0, 5, 5), entries(10, 3, 2), 8},
		{"S-plus-one", entries(0, 5, 5), entries(10, 4, 2), 8},
		{"full-plus-one-new", entries(0, 8, 5), entries(7, 2, 1), 8},
		{"ties-at-cutoff", entries(0, 8, 5), []hist.Entry{{Item: 100, Freq: 5}, {Item: 101, Freq: 5}}, 7},
		{"all-tracked", entries(0, 8, 5), entries(0, 8, 1), 8},
		{"empty-batch", entries(0, 8, 5), nil, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewWithCapacity(capS)
			ref := stepBoth(t, g, nil, tc.first, 1)
			stepBoth(t, g, ref, tc.next, 2)
			if len(g.Entries()) != tc.wantKept {
				t.Fatalf("kept %d counters, want %d", len(g.Entries()), tc.wantKept)
			}
		})
	}
}

func TestProcessBatchSteadyStateAllocs(t *testing.T) {
	g := New(0.001)
	rng := rand.New(rand.NewSource(29))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<18)
	items := make([]uint64, 8192)
	for i := range items {
		items[i] = zipf.Uint64()
	}
	for i := 0; i < 3; i++ {
		g.ProcessBatch(items) // grow the table, the candidate tail, the index
	}
	if allocs := testing.AllocsPerRun(20, func() { g.ProcessBatch(items) }); allocs != 0 {
		t.Fatalf("steady-state ProcessBatch allocates %.1f times per batch, want 0", allocs)
	}
}
