package hashfn

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulMod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	check := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := mulMod61(a, b)
		want := new(big.Int).Mul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Edge cases.
	for _, pair := range [][2]uint64{
		{0, 0}, {1, 1}, {MersennePrime61 - 1, MersennePrime61 - 1},
		{MersennePrime61 - 1, 2}, {1 << 60, 1 << 60},
	} {
		if !check(pair[0], pair[1]) {
			t.Fatalf("mulMod61(%d,%d) wrong", pair[0], pair[1])
		}
	}
}

func TestAddMod61(t *testing.T) {
	if got := addMod61(MersennePrime61-1, 1); got != 0 {
		t.Fatalf("addMod61 wrap = %d", got)
	}
	if got := addMod61(5, 7); got != 12 {
		t.Fatalf("addMod61(5,7) = %d", got)
	}
}

func TestPolyRange(t *testing.T) {
	h := NewPoly(4, 1000, 42)
	for x := uint64(0); x < 100000; x += 37 {
		if v := h.Hash(x); v >= 1000 {
			t.Fatalf("Hash(%d) = %d out of range", x, v)
		}
	}
	if h.K() != 4 || h.Range() != 1000 {
		t.Fatalf("K=%d Range=%d", h.K(), h.Range())
	}
}

func TestPolyDeterministic(t *testing.T) {
	h1 := NewPoly(8, 1<<20, 7)
	h2 := NewPoly(8, 1<<20, 7)
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatal("same seed produced different hash functions")
		}
	}
	h3 := NewPoly(8, 1<<20, 8)
	diff := 0
	for x := uint64(0); x < 1000; x++ {
		if h1.Hash(x) != h3.Hash(x) {
			diff++
		}
	}
	if diff < 900 {
		t.Fatalf("different seeds nearly identical: only %d/1000 differ", diff)
	}
}

func TestPolyUniformity(t *testing.T) {
	// Chi-squared style sanity check: bucket counts should be near uniform
	// for random inputs.
	const buckets = 64
	const samples = 64 * 1024
	h := NewPoly(5, buckets, 99)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[h.Hash(rng.Uint64())]++
	}
	mean := samples / buckets
	for b, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("bucket %d count %d far from mean %d", b, c, mean)
		}
	}
}

func TestPolyPanics(t *testing.T) {
	mustPanic(t, func() { NewPoly(0, 10, 1) })
	mustPanic(t, func() { NewPoly(2, 0, 1) })
}

// TestMersenneAliasingFixed is the regression test for the hash-domain
// aliasing bug: before the Mix64 pre-mixing, x and x+(2^61-1) were
// folded to the same field element and therefore collided in *every*
// function of the Poly family — a cross-row correlation the sketch
// error analyses assume cannot happen. After the fix the two keys must
// land in different cells in at least one of a handful of independently
// drawn rows; the Derived family must separate them too.
func TestMersenneAliasingFixed(t *testing.T) {
	const rows = 8
	keys := []uint64{0, 1, 12345, 1 << 40, MersennePrime61 - 1}
	check := func(name string, hash func(row int, x uint64) uint64) {
		for _, x := range keys {
			y := x + MersennePrime61 // aliased mod 2^61-1 before the fix
			separated := false
			for i := 0; i < rows && !separated; i++ {
				separated = hash(i, x) != hash(i, y)
			}
			if !separated {
				t.Errorf("%s: %d and %d collide in all %d rows (Mersenne aliasing)", name, x, y, rows)
			}
		}
	}
	polys := make([]*Poly, rows)
	st := uint64(41)
	for i := range polys {
		polys[i] = NewPoly(4, 1<<16, int64(SplitMix64(&st)))
	}
	check("Poly", func(i int, x uint64) uint64 { return polys[i].Hash(x) })
	d := NewDerived(1<<16, 97)
	check("Derived", func(i int, x uint64) uint64 { return d.Hash(x, i) })

}

func TestDerivedRangeAndDeterminism(t *testing.T) {
	d := NewDerived(977, 5)
	d2 := NewDerived(977, 5)
	for x := uint64(0); x < 20000; x += 7 {
		g1, g2 := d.Base(x)
		for i := 0; i < 6; i++ {
			v := d.Row(g1, g2, i)
			if v >= 977 {
				t.Fatalf("Row(%d, row %d) = %d out of range", x, i, v)
			}
			if v != d2.Hash(x, i) {
				t.Fatal("same seed, different derived hash")
			}
		}
	}
	if d.Range() != 977 {
		t.Fatalf("Range = %d", d.Range())
	}
	d3 := NewDerived(977, 6)
	diff := 0
	for x := uint64(0); x < 1000; x++ {
		if d.Hash(x, 0) != d3.Hash(x, 0) {
			diff++
		}
	}
	if diff < 900 {
		t.Fatalf("adjacent seeds nearly identical: only %d/1000 differ", diff)
	}
}

// TestDerivedCrossRowIndependence checks that collisions between two
// keys are independent across derived rows: the per-row collision rate
// should be about 1/w, and with w >> 1 no random pair should collide in
// every row (the failure mode both the aliasing bug and correlated row
// seeds produce).
func TestDerivedCrossRowIndependence(t *testing.T) {
	const (
		w      = 1 << 10
		rows   = 6
		trials = 20000
	)
	d := NewDerived(w, 23)
	rng := rand.New(rand.NewSource(29))
	rowCollisions := 0
	for i := 0; i < trials; i++ {
		x, y := rng.Uint64(), rng.Uint64()
		if x == y {
			continue
		}
		xg1, xg2 := d.Base(x)
		yg1, yg2 := d.Base(y)
		all := true
		for r := 0; r < rows; r++ {
			if d.Row(xg1, xg2, r) == d.Row(yg1, yg2, r) {
				rowCollisions++
			} else {
				all = false
			}
		}
		if all {
			t.Fatalf("pair (%d, %d) collides in all %d rows", x, y, rows)
		}
	}
	// Expected rowCollisions ~ trials*rows/w ~= 117; generous slack.
	if expect := trials * rows / w; rowCollisions > 5*expect+20 {
		t.Fatalf("per-row collision rate too high: %d collisions, expected ~%d", rowCollisions, expect)
	}
}

func TestDerivedSignWordBalance(t *testing.T) {
	d := NewDerived(1<<10, 11)
	const samples = 1 << 14
	ones := 0
	for x := uint64(0); x < samples; x++ {
		g1, g2 := d.Base(x)
		if d.SignWord(g1, g2)&1 == 1 {
			ones++
		}
	}
	if ones < samples*45/100 || ones > samples*55/100 {
		t.Fatalf("sign bit 0 unbalanced: %d/%d ones", ones, samples)
	}
}

func TestDerivedPanics(t *testing.T) {
	mustPanic(t, func() { NewDerived(0, 1) })
}

func TestSplitMix64(t *testing.T) {
	st := uint64(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		v := SplitMix64(&st)
		if seen[v] {
			t.Fatalf("SplitMix64 repeated a value after %d draws", i)
		}
		seen[v] = true
	}
	// Restarting from the same state must reproduce the sequence.
	a, b := uint64(77), uint64(77)
	for i := 0; i < 100; i++ {
		if SplitMix64(&a) != SplitMix64(&b) {
			t.Fatal("SplitMix64 not deterministic")
		}
	}
}

func TestMix64(t *testing.T) {
	seen := make(map[uint64]bool)
	for x := uint64(0); x < 10000; x++ {
		v := Mix64(x)
		if seen[v] {
			t.Fatalf("Mix64 collision at %d", x)
		}
		seen[v] = true
	}
	if Mix64(0) == 0 && Mix64(1) == 1 {
		t.Fatal("Mix64 looks like identity")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
