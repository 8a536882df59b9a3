// Package hashfn implements the hash families the paper's algorithms rely
// on: k-wise independent polynomial hashing over the Mersenne prime field
// GF(2^61 - 1) (Theorem 2.3 asks for an O(log mu)-wise independent family
// for the linear-work histogram), and the derived-row family that
// addresses the rows of the count-min and count-sketch tables
// (Section 6).
package hashfn

import (
	"math/bits"
	"math/rand"
)

// MersennePrime61 is 2^61 - 1, a Mersenne prime enabling fast modular
// reduction without division.
const MersennePrime61 = (1 << 61) - 1

// mulMod61 returns a*b mod 2^61-1 using 128-bit intermediate arithmetic.
// With p = 2^61-1, 2^61 === 1 (mod p), so the 122-bit product folds into
// two 61-bit chunks that are added mod p. A single fold suffices because
// both chunks are < 2^61 and their sum is < 2^62 < 2p + p.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	res := (lo & MersennePrime61) + (hi<<3 | lo>>61)
	if res >= MersennePrime61 {
		res -= MersennePrime61
	}
	if res >= MersennePrime61 { // the fold sum can reach 2p exactly
		res -= MersennePrime61
	}
	return res
}

// addMod61 returns a+b mod 2^61-1 for a, b < 2^61-1.
func addMod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Poly is a degree-(k-1) polynomial hash over GF(2^61-1), giving a k-wise
// independent family. Hash values are reduced to a caller-chosen range.
type Poly struct {
	coef []uint64 // coefficients, all < MersennePrime61; len(coef) == k
	r    uint64   // output range
}

// NewPoly draws a hash function from the k-wise independent polynomial
// family with output range [0, r) using the given seed. k must be >= 1 and
// r >= 1.
func NewPoly(k int, r uint64, seed int64) *Poly {
	if k < 1 {
		panic("hashfn: NewPoly requires k >= 1")
	}
	if r < 1 {
		panic("hashfn: NewPoly requires r >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = uint64(rng.Int63()) % MersennePrime61
	}
	// The leading coefficient should be non-zero so the polynomial has full
	// degree; this only improves the family and keeps hashes non-constant.
	if k > 1 && coef[k-1] == 0 {
		coef[k-1] = 1
	}
	return &Poly{coef: coef, r: r}
}

// Hash returns the hash of x in [0, Range()). Horner evaluation, O(k).
//
// The key is pre-mixed with Mix64 before the field reduction: folding the
// raw key mod 2^61-1 would alias x and x+(2^61-1) deterministically in
// every function drawn from the family, a cross-input correlation the
// independence analysis assumes away. After mixing, keys that collide mod
// the prime share no structure with each other.
func (p *Poly) Hash(x uint64) uint64 {
	x = Mix64(x) % MersennePrime61
	acc := p.coef[len(p.coef)-1]
	for i := len(p.coef) - 2; i >= 0; i-- {
		acc = addMod61(mulMod61(acc, x), p.coef[i])
	}
	return acc % p.r
}

// Range returns the size of the hash output range.
func (p *Poly) Range() uint64 { return p.r }

// K returns the independence of the family the function was drawn from.
func (p *Poly) K() int { return len(p.coef) }

// Mix64 is a fast non-cryptographic bit mixer (splitmix64 finalizer) used
// to decorrelate adversarially regular item identifiers before bucketing.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SplitMix64 advances a splitmix64 state and returns the next value of
// the sequence — the recommended way to derive any number of independent
// sub-seeds from one base seed. Unlike feeding seed, seed+1, seed+2 ...
// to an LCG, consecutive outputs share no affine structure.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	return Mix64(*state)
}

// Derived is the Kirsch–Mitzenmacher derived-row family used by the
// multi-row sketches: one base hash per key yields a pair (g1, g2), and
// row i addresses column (g1 + i*g2) reduced to [0, w). Evaluating d
// rows therefore costs one hash plus d multiply-adds instead of d
// modular polynomial evaluations, and the count-min/count-sketch error
// bounds are preserved asymptotically [KM08]. The base hash covers the
// full 64-bit key domain (no Mersenne folding), so keys that differ by
// 2^61-1 cannot alias here by construction.
type Derived struct {
	s1, s2 uint64
	w      uint64
}

// NewDerived draws a derived-row family with output range [0, w). The
// per-function salts come from splitmixing the seed, so families drawn
// from adjacent seeds (per-level dyadic stacks, per-shard instances) are
// decorrelated.
func NewDerived(w uint64, seed int64) Derived {
	if w < 1 {
		panic("hashfn: NewDerived requires w >= 1")
	}
	st := uint64(seed)
	s1 := SplitMix64(&st)
	s2 := SplitMix64(&st)
	return Derived{s1: s1, s2: s2, w: w}
}

// Base computes the per-key base hash pair. g2 is forced odd so the row
// stride g2 is a unit mod 2^64 and distinct rows cannot share a column
// sequence. Callers on the batch path compute Base once per item and
// reuse it across all rows.
func (d Derived) Base(x uint64) (g1, g2 uint64) {
	g1 = Mix64(x ^ d.s1)
	g2 = Mix64(g1^d.s2) | 1
	return g1, g2
}

// Row derives row i's column from the base pair: (g1 + i*g2) mapped to
// [0, w) by the multiply-shift range reduction (Lemire), which replaces
// the modulo division with one widening multiply.
func (d Derived) Row(g1, g2 uint64, i int) uint64 {
	hi, _ := bits.Mul64(g1+uint64(i)*g2, d.w)
	return hi
}

// SignWord derives 64 per-row ±1 sign bits from the base pair through an
// extra mix, decorrelating signs from the column sequence; bit (i mod
// 64) drives row i's sign. Count-sketch uses it for the unbiased
// estimator.
func (d Derived) SignWord(g1, g2 uint64) uint64 {
	return Mix64(g1 ^ bits.RotateLeft64(g2, 31) ^ d.s2)
}

// Hash returns row i's column for key x — the convenience form; hot
// paths use Base once and Row per row.
func (d Derived) Hash(x uint64, i int) uint64 {
	g1, g2 := d.Base(x)
	return d.Row(g1, g2, i)
}

// Range returns the size of the hash output range.
func (d Derived) Range() uint64 { return d.w }
