package streamagg

// Differential-oracle suite: every aggregate is driven against an exact
// brute-force oracle (exact counts, window sums, net frequencies) and
// the paper's ε-error bounds are asserted across adversarial
// distributions — zipf, all-distinct, single-key, uniform, and (for the
// turnstile CountSketch) deletion-heavy. The four mergeable kinds run in
// both unsharded and sharded modes; the sliding-window kinds cannot be
// sharded (a hashed subsequence has no "last n elements"), so their
// oracle checks run unsharded only.

import (
	"math"
	"testing"

	"repro/internal/workload"
)

const oracleStreamLen = 20000

// exactCounts is the brute-force frequency oracle.
func exactCounts(stream []uint64) map[uint64]int64 {
	counts := make(map[uint64]int64)
	for _, it := range stream {
		counts[it]++
	}
	return counts
}

// oracleDist is one adversarial input distribution.
type oracleDist struct {
	name   string
	stream []uint64
}

func oracleDists() []oracleDist {
	return []oracleDist{
		{"zipf", workload.Zipf(101, oracleStreamLen, 1.4, 1<<14)},
		{"all-distinct", workload.Distinct(1, oracleStreamLen)},
		{"single-key", workload.SingleKey(42, oracleStreamLen)},
		{"uniform", workload.Uniform(7, oracleStreamLen, 1<<12)},
	}
}

// aggMode builds the aggregate under test either plain or sharded.
type aggMode struct {
	name string
	opts []Option
}

// oracleModes returns the modes to exercise: always unsharded, plus a
// 4-way sharded instance for the mergeable kinds.
func oracleModes(kind Kind) []aggMode {
	modes := []aggMode{{name: "unsharded"}}
	if shardable[kind] {
		modes = append(modes, aggMode{name: "sharded-4", opts: []Option{WithShards(4)}})
	}
	return modes
}

// oracleIngest drives the aggregate through minibatches of mixed sizes
// (including size-1 and odd tails) to exercise batch-boundary handling.
func oracleIngest(t *testing.T, agg Aggregate, stream []uint64) {
	t.Helper()
	for _, size := range []int{1, 7, 997} {
		if len(stream) == 0 {
			break
		}
		n := size
		if n > len(stream) {
			n = len(stream)
		}
		if err := agg.ProcessBatch(stream[:n]); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
	}
	for _, b := range workload.Batches(stream, 1024) {
		if err := agg.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	}
}

// oracleProbes returns the keys to cross-check: every key the oracle
// saw plus keys guaranteed absent.
func oracleProbes(counts map[uint64]int64) []uint64 {
	probes := make([]uint64, 0, len(counts)+4)
	for k := range counts {
		probes = append(probes, k)
	}
	return append(probes, 1<<40, 1<<40+1, 1<<50, math.MaxUint64)
}

// TestOracleFreqEstimator: f_e - εm <= Estimate(e) <= f_e, a
// deterministic guarantee (Theorem 5.2; sharding only shortens the
// per-shard stream, tightening the bound).
func TestOracleFreqEstimator(t *testing.T) {
	const eps = 0.01
	for _, d := range oracleDists() {
		counts := exactCounts(d.stream)
		slack := int64(math.Ceil(eps * float64(len(d.stream))))
		for _, mode := range oracleModes(KindFreq) {
			t.Run(d.name+"/"+mode.name, func(t *testing.T) {
				agg, err := New(KindFreq, append([]Option{WithEpsilon(eps)}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				oracleIngest(t, agg, d.stream)
				pe := agg.(PointEstimator)
				for _, item := range oracleProbes(counts) {
					f, est := counts[item], pe.Estimate(item)
					if est > f || est < f-slack {
						t.Fatalf("item %d: estimate %d outside [%d, %d]", item, est, f-slack, f)
					}
				}
			})
		}
	}
}

// TestOracleFreqHeavyHitters checks the heavy-hitter reduction on the
// skewed stream: every item with f >= φm is reported and nothing below
// (φ-2ε)m can be, in both modes (sharded answers via merged snapshot).
func TestOracleFreqHeavyHitters(t *testing.T) {
	const (
		eps = 0.01
		phi = 0.05
	)
	stream := workload.Zipf(101, oracleStreamLen, 1.4, 1<<14)
	counts := exactCounts(stream)
	m := float64(len(stream))
	for _, mode := range oracleModes(KindFreq) {
		t.Run(mode.name, func(t *testing.T) {
			agg, err := New(KindFreq, append([]Option{WithEpsilon(eps)}, mode.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			oracleIngest(t, agg, stream)
			reported := make(map[uint64]bool)
			for _, hh := range agg.(HeavyHitterSource).HeavyHitters(phi) {
				reported[hh.Item] = true
			}
			for item, f := range counts {
				if float64(f) >= phi*m && !reported[item] {
					t.Fatalf("true heavy hitter %d (f=%d) not reported", item, f)
				}
			}
			for item := range reported {
				if float64(counts[item]) < (phi-2*eps)*m {
					t.Fatalf("false positive %d (f=%d < %g)", item, counts[item], (phi-2*eps)*m)
				}
			}
		})
	}
}

// TestOracleSlidingFreq: within the count-based window of the last n
// items, f_e - εn <= Estimate(e) <= f_e. Each subtest keeps the name it
// had when three algorithms ran: variant-2 is the work-efficient one,
// the tag every sliding-freq checkpoint still carries.
func TestOracleSlidingFreq(t *testing.T) {
	const (
		window = 4096
		eps    = 0.02
	)
	for _, d := range []oracleDist{
		{"zipf", workload.Zipf(101, oracleStreamLen, 1.4, 1<<14)},
		{"uniform", workload.Uniform(7, oracleStreamLen, 1<<12)},
		{"single-key", workload.SingleKey(42, oracleStreamLen)},
	} {
		windowed := exactCounts(d.stream[len(d.stream)-window:])
		slack := int64(math.Ceil(eps * window))
		t.Run(d.name+"/variant-2", func(t *testing.T) {
			agg, err := New(KindSlidingFreq, WithWindow(window), WithEpsilon(eps))
			if err != nil {
				t.Fatal(err)
			}
			oracleIngest(t, agg, d.stream)
			pe := agg.(PointEstimator)
			for _, item := range oracleProbes(windowed) {
				f, est := windowed[item], pe.Estimate(item)
				if est > f || est < f-slack {
					t.Fatalf("item %d: estimate %d outside [%d, %d]", item, est, f-slack, f)
				}
			}
		})
	}
}

// TestOracleBasicCounter: true <= Estimate <= (1+ε)·true against the
// exact sliding count of 1s, checked at every minibatch boundary.
func TestOracleBasicCounter(t *testing.T) {
	const (
		window = 2048
		eps    = 0.05
	)
	for _, tc := range []struct {
		name string
		bits []bool
	}{
		{"bursty", workload.BurstyBits(11, oracleStreamLen, 300, 0.05, 0.9)},
		{"dense", workload.Bits(12, oracleStreamLen, 0.98)},
		{"sparse", workload.Bits(13, oracleStreamLen, 0.01)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewBasicCounter(window, eps)
			if err != nil {
				t.Fatal(err)
			}
			prefix := make([]int64, len(tc.bits)+1)
			for i, b := range tc.bits {
				prefix[i+1] = prefix[i]
				if b {
					prefix[i+1]++
				}
			}
			pos := 0
			for _, batch := range workload.BitBatches(tc.bits, 512) {
				c.ProcessBits(batch)
				pos += len(batch)
				lo := pos - window
				if lo < 0 {
					lo = 0
				}
				truth := prefix[pos] - prefix[lo]
				est := c.Estimate()
				if est < truth || float64(est) > (1+eps)*float64(truth) {
					t.Fatalf("at %d: estimate %d outside [%d, %g]", pos, est, truth, (1+eps)*float64(truth))
				}
			}
		})
	}
}

// TestOracleWindowSum: true <= Estimate <= (1+ε)·true against the exact
// sliding sum, checked at every minibatch boundary.
func TestOracleWindowSum(t *testing.T) {
	const (
		window = 2048
		maxVal = 1023
		eps    = 0.05
	)
	for _, tc := range []struct {
		name   string
		values []uint64
	}{
		{"skewed", workload.Values(21, oracleStreamLen, maxVal, 3)},
		{"uniform", workload.Values(22, oracleStreamLen, maxVal, 1)},
		{"constant", workload.SingleKey(maxVal, oracleStreamLen)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewWindowSum(window, maxVal, eps)
			if err != nil {
				t.Fatal(err)
			}
			prefix := make([]int64, len(tc.values)+1)
			for i, v := range tc.values {
				prefix[i+1] = prefix[i] + int64(v)
			}
			pos := 0
			for _, batch := range workload.Batches(tc.values, 512) {
				if err := s.ProcessBatch(batch); err != nil {
					t.Fatal(err)
				}
				pos += len(batch)
				lo := pos - window
				if lo < 0 {
					lo = 0
				}
				truth := prefix[pos] - prefix[lo]
				est := s.Estimate()
				if est < truth || float64(est) > (1+eps)*float64(truth) {
					t.Fatalf("at %d: estimate %d outside [%d, %g]", pos, est, truth, (1+eps)*float64(truth))
				}
			}
		})
	}
}

// TestOracleCountMin: f_e <= Estimate(e) (deterministic) and
// Estimate(e) <= f_e + εm with probability 1-δ per probe; a small
// failure fraction is tolerated for the probabilistic side.
func TestOracleCountMin(t *testing.T) {
	const (
		eps   = 0.005
		delta = 0.01
	)
	for _, d := range oracleDists() {
		counts := exactCounts(d.stream)
		slack := int64(math.Ceil(eps * float64(len(d.stream))))
		for _, mode := range oracleModes(KindCountMin) {
			t.Run(d.name+"/"+mode.name, func(t *testing.T) {
				agg, err := New(KindCountMin,
					append([]Option{WithEpsilon(eps), WithDelta(delta), WithSeed(7)}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				oracleIngest(t, agg, d.stream)
				pe := agg.(PointEstimator)
				probes := oracleProbes(counts)
				overshoots := 0
				for _, item := range probes {
					f, est := counts[item], pe.Estimate(item)
					if est < f {
						t.Fatalf("item %d: estimate %d undercounts %d", item, est, f)
					}
					if est > f+slack {
						overshoots++
					}
				}
				if allowed := 3 + int(5*delta*float64(len(probes))); overshoots > allowed {
					t.Fatalf("%d/%d probes above f+εm (allowed %d)", overshoots, len(probes), allowed)
				}
			})
		}
	}
}

// TestOracleCountSketch: |Estimate(e) - f_e| <= ε·‖f‖₂ with probability
// 1-δ per probe, against the exact (net) frequency vector.
func TestOracleCountSketch(t *testing.T) {
	const (
		eps   = 0.05
		delta = 0.01
	)
	l2 := func(counts map[uint64]int64) float64 {
		var sum float64
		for _, f := range counts {
			sum += float64(f) * float64(f)
		}
		return math.Sqrt(sum)
	}
	check := func(t *testing.T, pe PointEstimator, counts map[uint64]int64) {
		t.Helper()
		bound := int64(math.Ceil(eps * l2(counts)))
		probes := oracleProbes(counts)
		misses := 0
		for _, item := range probes {
			f, est := counts[item], pe.Estimate(item)
			if est > f+bound || est < f-bound {
				misses++
			}
		}
		if allowed := 3 + int(5*delta*float64(len(probes))); misses > allowed {
			t.Fatalf("%d/%d probes outside ±ε‖f‖₂=±%d (allowed %d)", misses, len(probes), bound, allowed)
		}
	}
	for _, d := range oracleDists() {
		counts := exactCounts(d.stream)
		for _, mode := range oracleModes(KindCountSketch) {
			t.Run(d.name+"/"+mode.name, func(t *testing.T) {
				agg, err := New(KindCountSketch,
					append([]Option{WithEpsilon(eps), WithDelta(delta), WithSeed(9)}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				oracleIngest(t, agg, d.stream)
				check(t, agg.(PointEstimator), counts)
			})
		}
	}
	// Deletion-heavy turnstile stream through the sequential Update path:
	// nearly half the updates retract an earlier insert, so the sketch
	// must track the net frequency vector.
	t.Run("deletion-heavy", func(t *testing.T) {
		cs, err := NewCountSketch(eps, delta, 9)
		if err != nil {
			t.Fatal(err)
		}
		counts := make(map[uint64]int64)
		for _, u := range workload.Turnstile(31, oracleStreamLen, 1.3, 1<<12, 0.45) {
			cs.Update(u.Item, u.Delta)
			counts[u.Item] += u.Delta
			if counts[u.Item] == 0 {
				delete(counts, u.Item)
			}
		}
		check(t, cs, counts)
	})
}

// TestOracleCountMinRange: range counts never undercount, overshoot at
// most ~2(bits+1)·εm with high probability, and quantiles land within
// the rank slack of the dyadic decomposition.
func TestOracleCountMinRange(t *testing.T) {
	const (
		bits     = 12
		universe = 1 << bits
		eps      = 0.002
		delta    = 0.01
	)
	for _, d := range []oracleDist{
		{"zipf", workload.Zipf(101, oracleStreamLen, 1.4, universe-1)},
		{"uniform", workload.Uniform(7, oracleStreamLen, universe)},
		{"single-key", workload.SingleKey(42, oracleStreamLen)},
	} {
		m := float64(len(d.stream))
		slack := int64(math.Ceil(2 * (bits + 1) * eps * m))
		// Exact prefix oracle over the bounded universe.
		cum := make([]int64, universe+1)
		for _, it := range d.stream {
			cum[it+1]++
		}
		for i := 1; i <= universe; i++ {
			cum[i] += cum[i-1]
		}
		rangeTruth := func(lo, hi uint64) int64 { return cum[hi+1] - cum[lo] }
		for _, mode := range oracleModes(KindCountMinRange) {
			t.Run(d.name+"/"+mode.name, func(t *testing.T) {
				agg, err := New(KindCountMinRange,
					append([]Option{WithUniverseBits(bits), WithEpsilon(eps), WithDelta(delta), WithSeed(3)}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				oracleIngest(t, agg, d.stream)
				re := agg.(RangeEstimator)
				ranges := [][2]uint64{{0, universe - 1}, {0, 0}, {42, 42}, {100, 1000}, {1, universe / 2}}
				for w := uint64(1); w < universe; w *= 3 {
					ranges = append(ranges, [2]uint64{universe / 3, universe/3 + w - 1})
				}
				overshoots := 0
				for _, r := range ranges {
					truth, est := rangeTruth(r[0], r[1]), re.RangeCount(r[0], r[1])
					if est < truth {
						t.Fatalf("range [%d,%d]: estimate %d undercounts %d", r[0], r[1], est, truth)
					}
					if est > truth+slack {
						overshoots++
					}
				}
				if allowed := 1 + int(5*delta*float64(len(ranges))); overshoots > allowed {
					t.Fatalf("%d/%d ranges above truth+slack (allowed %d)", overshoots, len(ranges), allowed)
				}
				// Quantile rank check: v = Quantile(q) must straddle the
				// target rank within the dyadic overcount slack.
				for _, q := range []float64{0.1, 0.5, 0.9} {
					v := re.Quantile(q)
					target := int64(q * m)
					if v > 0 && cum[v] >= target {
						t.Fatalf("q=%g: prefix below %d already holds %d >= target %d", q, v, cum[v], target)
					}
					if cum[v+1] < target-slack {
						t.Fatalf("q=%g: prefix through %d holds %d < target-slack %d", q, v, cum[v+1], target-slack)
					}
				}
			})
		}
	}
}
