package streamagg

import (
	"errors"
	"testing"
)

// Every option validator rejects out-of-range values with ErrBadParam.
func TestOptionValueValidation(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		opt  Option
	}{
		{"window zero", KindSlidingFreq, WithWindow(0)},
		{"window negative", KindSlidingFreq, WithWindow(-5)},
		{"epsilon zero", KindFreq, WithEpsilon(0)},
		{"epsilon negative", KindFreq, WithEpsilon(-0.1)},
		{"epsilon above one", KindFreq, WithEpsilon(1.5)},
		{"delta zero", KindCountMin, WithDelta(0)},
		{"delta one", KindCountMin, WithDelta(1)},
		{"delta above one", KindCountMin, WithDelta(2)},
		{"bits zero", KindCountMinRange, WithUniverseBits(0)},
		{"bits sixty-four", KindCountMinRange, WithUniverseBits(64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.kind, tc.opt); !errors.Is(err, ErrBadParam) {
				t.Fatalf("New(%s, %s) = %v, want ErrBadParam", tc.kind, tc.name, err)
			}
		})
	}
}

// Options that do not apply to a kind are rejected, not silently
// ignored.
func TestOptionApplicability(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		opt  Option
	}{
		{"window on freq", KindFreq, WithWindow(10)},
		{"window on count-min", KindCountMin, WithWindow(10)},
		{"delta on sliding-freq", KindSlidingFreq, WithDelta(0.1)},
		{"delta on basic-counter", KindBasicCounter, WithDelta(0.1)},
		{"seed on freq", KindFreq, WithSeed(3)},
		{"seed on window-sum", KindWindowSum, WithSeed(3)},
		{"max-value on basic-counter", KindBasicCounter, WithMaxValue(100)},
		{"max-value on count-sketch", KindCountSketch, WithMaxValue(100)},
		{"bits on count-min", KindCountMin, WithUniverseBits(12)},
		{"bits on count-sketch", KindCountSketch, WithUniverseBits(12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{tc.opt}
			// Satisfy the kind's own requirements so only the
			// inapplicable option can fail.
			switch tc.kind {
			case KindBasicCounter:
				opts = append(opts, WithWindow(10))
			case KindWindowSum:
				opts = append(opts, WithWindow(10), WithMaxValue(5))
			case KindSlidingFreq:
				opts = append(opts, WithWindow(10))
			case KindCountMinRange:
				opts = append(opts, WithUniverseBits(12))
			}
			if _, err := New(tc.kind, opts...); !errors.Is(err, ErrBadParam) {
				t.Fatalf("New(%s, %s) = %v, want ErrBadParam", tc.kind, tc.name, err)
			}
		})
	}
}

// Missing required options are rejected per kind.
func TestOptionRequired(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		opts []Option
	}{
		{"basic-counter without window", KindBasicCounter, nil},
		{"window-sum without window", KindWindowSum, []Option{WithMaxValue(5)}},
		{"window-sum without max-value", KindWindowSum, []Option{WithWindow(10)}},
		{"sliding-freq without window", KindSlidingFreq, nil},
		{"count-min-range without bits", KindCountMinRange, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.kind, tc.opts...); !errors.Is(err, ErrBadParam) {
				t.Fatalf("New(%s) = %v, want ErrBadParam", tc.kind, err)
			}
		})
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind("bloom-filter")); !errors.Is(err, ErrBadParam) {
		t.Fatalf("unknown kind accepted: %v", err)
	}
}

// New returns the right concrete type, self-reporting its kind, for
// every aggregate.
func TestNewAllKinds(t *testing.T) {
	cases := []struct {
		kind Kind
		opts []Option
	}{
		{KindBasicCounter, []Option{WithWindow(1 << 10), WithEpsilon(0.1)}},
		{KindWindowSum, []Option{WithWindow(1 << 10), WithMaxValue(255)}},
		{KindFreq, nil},
		{KindSlidingFreq, []Option{WithWindow(1 << 10)}},
		{KindCountMin, []Option{WithEpsilon(0.001), WithDelta(0.01), WithSeed(7)}},
		{KindCountMinRange, []Option{WithUniverseBits(12)}},
		{KindCountSketch, []Option{WithSeed(5)}},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			agg, err := New(tc.kind, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if agg.Kind() != tc.kind {
				t.Fatalf("Kind() = %s, want %s", agg.Kind(), tc.kind)
			}
			if err := agg.ProcessBatch([]uint64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if agg.StreamLen() != 3 {
				t.Fatalf("StreamLen = %d, want 3", agg.StreamLen())
			}
			if agg.SpaceWords() <= 0 {
				t.Fatal("SpaceWords not positive")
			}
		})
	}
}

// The thin legacy constructors still route through the central
// validation.
func TestLegacyConstructorsValidateCentrally(t *testing.T) {
	if _, err := NewFreqEstimator(0); !errors.Is(err, ErrBadParam) {
		t.Fatal("NewFreqEstimator(0) accepted")
	}
	if _, err := NewBasicCounter(0, 0.1); !errors.Is(err, ErrBadParam) {
		t.Fatal("NewBasicCounter(0, ·) accepted")
	}
	if _, err := NewSlidingFreqEstimator(0, 0.1); !errors.Is(err, ErrBadParam) {
		t.Fatal("NewSlidingFreqEstimator(0, ·) accepted")
	}
	if _, err := NewCountMinRange(64, 0.1, 0.1, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("bits=64 accepted")
	}
	sw, err := NewSlidingFreqEstimator(16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if sw.WindowSize() != 16 {
		t.Fatal("legacy constructor misconfigured the estimator")
	}
}
