package swfreq

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sbbc"
)

func TestStateRoundTripInternal(t *testing.T) {
	e := New(1024, 0.05)
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 10; batch++ {
		items := make([]uint64, 200)
		for i := range items {
			items[i] = uint64(rng.Intn(50))
		}
		e.ProcessBatch(items)
	}
	st := e.State()
	if st.Variant != variantWorkEfficient {
		t.Fatalf("state variant %d, want %d", st.Variant, variantWorkEfficient)
	}
	// A space-efficient state has the same S and γ, so it restores as
	// the work-efficient estimator.
	for _, v := range []int{variantWorkEfficient, variantSpaceEfficient} {
		st.Variant = v
		r, err := FromState(st)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if r.StreamLen() != e.StreamLen() || r.NumCounters() != e.NumCounters() {
			t.Fatalf("variant %d: state round trip lost counters", v)
		}
		for it := uint64(0); it < 50; it++ {
			if r.Estimate(it) != e.Estimate(it) {
				t.Fatalf("variant %d: estimate diverged for %d", v, it)
			}
		}
	}
}

func TestFromStateRejectsBad(t *testing.T) {
	good := New(100, 0.1).State()
	cases := []State{
		{Variant: 99, N: good.N, Epsilon: good.Epsilon},
		{Variant: good.Variant, N: 0, Epsilon: good.Epsilon},
		{Variant: good.Variant, N: good.N, Epsilon: 0},
		{Variant: good.Variant, N: good.N, Epsilon: good.Epsilon,
			Items: []uint64{1}, Counters: nil}, // length mismatch
		{Variant: good.Variant, N: good.N, Epsilon: good.Epsilon,
			Items: []uint64{1, 1}, Counters: make([]sbbc.State, 2)}, // dup + invalid counter
	}

	// Counters must have been built for the state's (n, ε). A counter
	// forged to a 16-item window with exact blocks restores, then
	// forgets 2 048 copies of item 7 after one small batch.
	const n, eps = 4096, 0.05
	e := New(n, eps)
	heavy := make([]uint64, 2048)
	for i := range heavy {
		heavy[i] = 7
	}
	e.ProcessBatch(heavy)
	withCounter := func(forge func(*sbbc.State)) State {
		st := e.State()
		st.Counters = append([]sbbc.State(nil), st.Counters...)
		forge(&st.Counters[0])
		return st
	}
	if _, err := FromState(withCounter(func(*sbbc.State) {})); err != nil {
		t.Fatalf("unforged state refused: %v", err)
	}
	cases = append(cases,
		withCounter(func(c *sbbc.State) { c.N, c.R, c.Snap.Gamma, c.Snap.Tail = 16, 16, 1, 0 }),
		withCounter(func(c *sbbc.State) { c.N = n / 2 }),
		withCounter(func(c *sbbc.State) { c.Snap.Gamma++ }),
		withCounter(func(c *sbbc.State) { c.Sigma = 8 }),
	)
	for i, st := range cases {
		if _, err := FromState(st); err == nil {
			t.Fatalf("case %d: bad state accepted", i)
		}
	}

	basic := good
	basic.Variant = variantBasic
	if _, err := FromState(basic); err == nil || !strings.Contains(err.Error(), "basic") {
		t.Fatalf("basic state: err = %v, want a refusal naming the variant", err)
	}
}
