package streamagg

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

func TestBasicCounterEndToEnd(t *testing.T) {
	n := int64(4096)
	eps := 0.05
	c, err := NewBasicCounter(n, eps)
	if err != nil {
		t.Fatal(err)
	}
	bits := workload.BurstyBits(1, 1<<16, 1000, 0.02, 0.9)
	var window []bool
	for _, batch := range workload.BitBatches(bits, 2048) {
		c.ProcessBits(batch)
		window = append(window, batch...)
		if int64(len(window)) > n {
			window = window[int64(len(window))-n:]
		}
	}
	var m int64
	for _, b := range window {
		if b {
			m++
		}
	}
	est := c.Estimate()
	if est < m || float64(est) > (1+eps)*float64(m) {
		t.Fatalf("est %d outside [%d, %g]", est, m, (1+eps)*float64(m))
	}
	if c.WindowSize() != n || c.Epsilon() != eps || c.SpaceWords() <= 0 {
		t.Fatal("accessors wrong")
	}
}

func TestBasicCounterParamErrors(t *testing.T) {
	if _, err := NewBasicCounter(0, 0.1); !errors.Is(err, ErrBadParam) {
		t.Fatal("want ErrBadParam for n=0")
	}
	if _, err := NewBasicCounter(10, 0); !errors.Is(err, ErrBadParam) {
		t.Fatal("want ErrBadParam for eps=0")
	}
	if _, err := NewBasicCounter(10, 1.1); !errors.Is(err, ErrBadParam) {
		t.Fatal("want ErrBadParam for eps>1")
	}
}

func TestWindowSumEndToEnd(t *testing.T) {
	n := int64(1000)
	R := uint64(1023)
	eps := 0.1
	s, err := NewWindowSum(n, R, eps)
	if err != nil {
		t.Fatal(err)
	}
	vals := workload.Values(2, 20000, R, 2)
	var window []uint64
	for _, batch := range workload.Batches(vals, 500) {
		if err := s.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
		window = append(window, batch...)
		if int64(len(window)) > n {
			window = window[int64(len(window))-n:]
		}
	}
	var want int64
	for _, v := range window {
		want += int64(v)
	}
	est := s.Estimate()
	if est < want || float64(est) > (1+eps)*float64(want) {
		t.Fatalf("sum est %d outside [%d, %g]", est, want, (1+eps)*float64(want))
	}
	if s.MaxValue() != R || s.WindowSize() != n {
		t.Fatal("accessors wrong")
	}
}

func TestWindowSumRejectsOutOfRange(t *testing.T) {
	s, _ := NewWindowSum(10, 5, 0.1)
	if err := s.ProcessBatch([]uint64{1, 6}); !errors.Is(err, ErrBadParam) {
		t.Fatal("want ErrBadParam for value > R")
	}
	// Nothing must have been ingested.
	if est := s.Estimate(); est != 0 {
		t.Fatalf("partial ingest: est %d", est)
	}
}

func TestFreqEstimatorEndToEnd(t *testing.T) {
	eps := 0.01
	f, err := NewFreqEstimator(eps)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Zipf(3, 200000, 1.2, 1<<18)
	exact := map[uint64]int64{}
	for _, batch := range workload.Batches(stream, 1024) {
		f.ProcessBatch(batch)
		for _, it := range batch {
			exact[it]++
		}
	}
	m := f.StreamLen()
	if m != int64(len(stream)) {
		t.Fatalf("StreamLen %d", m)
	}
	for it, fe := range exact {
		est := f.Estimate(it)
		if est > fe || float64(fe-est) > eps*float64(m)+1e-9 {
			t.Fatalf("item %d: est %d true %d", it, est, fe)
		}
	}
	top := f.TopK(5)
	if len(top) != 5 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Count < top[i].Count {
			t.Fatal("TopK not sorted")
		}
	}
	hh := f.HeavyHitters(0.2)
	for _, h := range hh {
		if float64(exact[h.Item]) < (0.2-2*eps)*float64(m) {
			t.Fatalf("false positive heavy hitter %d", h.Item)
		}
	}
}

func TestSlidingFreqEstimatorAllVariants(t *testing.T) {
	for _, v := range []SlidingVariant{VariantBasic, VariantSpaceEfficient, VariantWorkEfficient} {
		n := int64(4000)
		eps := 0.05
		s, err := NewSlidingFreqEstimator(n, eps, v)
		if err != nil {
			t.Fatal(err)
		}
		stream := workload.Zipf(int64(v)+10, 40000, 1.3, 1<<12)
		var window []uint64
		for _, batch := range workload.Batches(stream, 1024) {
			s.ProcessBatch(batch)
			window = append(window, batch...)
			if int64(len(window)) > n {
				window = window[int64(len(window))-n:]
			}
		}
		exact := map[uint64]int64{}
		for _, it := range window {
			exact[it]++
		}
		for it, fe := range exact {
			est := s.Estimate(it)
			if est > fe || float64(fe-est) > eps*float64(n)+1e-9 {
				t.Fatalf("%v item %d: est %d true %d", v, it, est, fe)
			}
		}
		if s.Variant() != v || s.WindowSize() != n {
			t.Fatal("accessors wrong")
		}
		if v != VariantBasic && s.TrackedItems() > int(8/eps)+2 {
			t.Fatalf("%v tracks %d items", v, s.TrackedItems())
		}
	}
}

func TestSlidingFreqParamErrors(t *testing.T) {
	if _, err := NewSlidingFreqEstimator(0, 0.1, VariantBasic); !errors.Is(err, ErrBadParam) {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewSlidingFreqEstimator(10, 0, VariantBasic); !errors.Is(err, ErrBadParam) {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewSlidingFreqEstimator(10, 0.1, SlidingVariant(9)); !errors.Is(err, ErrBadParam) {
		t.Fatal("bad variant accepted")
	}
}

func TestCountMinEndToEnd(t *testing.T) {
	eps, delta := 0.001, 0.01
	c, err := NewCountMin(eps, delta, 7)
	if err != nil {
		t.Fatal(err)
	}
	stream := workload.Zipf(5, 100000, 1.1, 1<<16)
	exact := map[uint64]int64{}
	for _, batch := range workload.Batches(stream, 1024) {
		c.ProcessBatch(batch)
		for _, it := range batch {
			exact[it]++
		}
	}
	if c.TotalCount() != int64(len(stream)) {
		t.Fatalf("TotalCount %d", c.TotalCount())
	}
	m := float64(c.TotalCount())
	bad := 0
	for it, fe := range exact {
		q := c.Query(it)
		if q < fe {
			t.Fatalf("undercount item %d", it)
		}
		if float64(q-fe) > eps*m {
			bad++
		}
	}
	if bad > len(exact)/50 {
		t.Fatalf("%d/%d queries beyond εm", bad, len(exact))
	}
	d, w := c.Dims()
	if d < 1 || w < int(1/eps) {
		t.Fatalf("dims %dx%d", d, w)
	}
}

func TestCountMinRangeEndToEnd(t *testing.T) {
	c, err := NewCountMinRange(12, 0.001, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	items := make([]uint64, 50000)
	for i := range items {
		items[i] = uint64(rng.Intn(4096))
	}
	c.ProcessBatch(items)
	var inFirstHalf int64
	for _, v := range items {
		if v < 2048 {
			inFirstHalf++
		}
	}
	got := c.RangeCount(0, 2047)
	if got < inFirstHalf {
		t.Fatalf("range undercount: %d < %d", got, inFirstHalf)
	}
	if float64(got) > float64(inFirstHalf)*1.2+100 {
		t.Fatalf("range overcount: %d vs %d", got, inFirstHalf)
	}
	med := c.Quantile(0.5)
	if med < 1500 || med > 2600 {
		t.Fatalf("median %d want ~2048", med)
	}
	if c.TotalCount() != 50000 || c.SpaceWords() <= 0 {
		t.Fatal("accessors wrong")
	}
}

func TestCountMinParamErrors(t *testing.T) {
	if _, err := NewCountMin(0, 0.1, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewCountMin(0.1, 1, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("delta=1 accepted")
	}
	if _, err := NewCountMinRange(0, 0.1, 0.1, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("bits=0 accepted")
	}
	if _, err := NewCountMinRange(12, 0.1, 0, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("delta=0 accepted")
	}
}

func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	// Every exported reader of every kind, MarshalBinary, and Merge into
	// a second instance must be safe to run concurrently with batch
	// updates and checkpoint restores through the reader-writer gate
	// (run under -race in CI).
	for _, tc := range []struct {
		kind Kind
		opts []Option
		read func(a Aggregate)
	}{
		{KindFreq, []Option{WithEpsilon(0.01)}, func(a Aggregate) {
			f := a.(*FreqEstimator)
			_, _, _ = f.Estimate(0), f.TopK(3), f.HeavyHitters(0.1)
		}},
		{KindSlidingFreq, []Option{WithWindow(1 << 14), WithEpsilon(0.05)}, func(a Aggregate) {
			s := a.(*SlidingFreqEstimator)
			_, _, _ = s.Estimate(0), s.TopK(3), s.HeavyHitters(0.1)
			_, _, _ = s.WindowSize(), s.Variant(), s.TrackedItems()
		}},
		{KindCountMin, []Option{WithEpsilon(0.01)}, func(a Aggregate) {
			c := a.(*CountMin)
			_, _, _ = c.Estimate(0), c.Query(1), c.TotalCount()
			_, _ = c.Dims()
		}},
		{KindCountSketch, []Option{WithEpsilon(0.01)}, func(a Aggregate) {
			c := a.(*CountSketch)
			_, _, _ = c.Estimate(0), c.Query(1), c.TotalCount()
			_, _ = c.Dims()
		}},
		{KindCountMinRange, []Option{WithUniverseBits(16), WithEpsilon(0.01)}, func(a Aggregate) {
			c := a.(*CountMinRange)
			_, _, _ = c.RangeCount(10, 1000), c.Quantile(0.5), c.TotalCount()
		}},
		{KindBasicCounter, []Option{WithWindow(1 << 14), WithEpsilon(0.05)}, func(a Aggregate) {
			c := a.(*BasicCounter)
			_, _, _ = c.Estimate(), c.WindowSize(), c.Epsilon()
		}},
		{KindWindowSum, []Option{WithWindow(1 << 14), WithMaxValue(1 << 16), WithEpsilon(0.05)}, func(a Aggregate) {
			s := a.(*WindowSum)
			_, _, _ = s.Estimate(), s.WindowSize(), s.MaxValue()
		}},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			agg, err := New(tc.kind, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			into, err := New(tc.kind, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			merger, _ := into.(Merger)
			// One reader loops over the accessors alone, so an ungated
			// one spends much of its time outside the gate; the other
			// checkpoints and merges.
			var wg, ready sync.WaitGroup
			stop := make(chan struct{})
			defer func() { close(stop); wg.Wait() }()
			for _, step := range []func() error{
				func() error {
					tc.read(agg)
					_, _ = agg.SpaceWords(), agg.StreamLen()
					return nil
				},
				func() error {
					if _, err := agg.MarshalBinary(); err != nil || merger == nil {
						return err
					}
					return merger.Merge(agg)
				},
			} {
				wg.Add(1)
				ready.Add(1)
				go func() {
					defer wg.Done()
					ready.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := step(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			ready.Wait() // the readers run while the batches go in
			var ckpt []byte
			var want, ckptLen int64
			stream := workload.Zipf(11, 100000, 1.2, 1<<16-1)
			for i, batch := range workload.Batches(stream, 1024) {
				if err := agg.ProcessBatch(batch); err != nil {
					t.Fatal(err)
				}
				want += int64(len(batch))
				switch i % 8 {
				case 3:
					if ckpt, err = agg.MarshalBinary(); err != nil {
						t.Fatal(err)
					}
					ckptLen = want
				case 7:
					if err := agg.UnmarshalBinary(ckpt); err != nil {
						t.Fatal(err)
					}
					want = ckptLen
				}
			}
			if got := agg.StreamLen(); got != want {
				t.Fatalf("StreamLen %d, want %d", got, want)
			}
		})
	}
}

func TestSetParallelism(t *testing.T) {
	old := SetParallelism(2)
	if Parallelism() != 2 {
		t.Fatal("SetParallelism(2) not applied")
	}
	SetParallelism(old)
}

func TestHashString(t *testing.T) {
	if HashString("alpha") == HashString("beta") {
		t.Fatal("different strings collide")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("hash not deterministic")
	}
}
