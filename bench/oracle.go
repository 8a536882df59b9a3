package main

import (
	"fmt"
	"sort"
)

// oracle is the exact frequency table of everything the run ingested:
// the reference the sketches' guarantees are checked against.
type oracle struct {
	counts []int64 // indexed by key; every generated key is < keyUniverse
	total  int64
}

func newOracle() *oracle { return &oracle{counts: make([]int64, keyUniverse)} }

// add records keys ingested times over.
func (o *oracle) add(keys []uint64, times int64) {
	if times == 0 {
		return
	}
	for _, k := range keys {
		o.counts[k] += times
	}
	o.total += times * int64(len(keys))
}

// top returns the n heaviest keys, heaviest first, ties by key.
func (o *oracle) top(n int) []uint64 {
	keys := make([]uint64, 0, 1024)
	for k, c := range o.counts {
		if c > 0 {
			keys = append(keys, uint64(k))
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := o.counts[keys[i]], o.counts[keys[j]]
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	return keys[:min(n, len(keys))]
}

// observed is what the system under test answered after its final flush.
type observed struct {
	streamLen int64
	countMin  map[uint64]int64 // count-min estimates of the probed keys
	freq      map[uint64]int64 // freq-estimator estimates of the probed keys
	heavy     map[uint64]bool  // keys reported by heavyhitters(phi)
}

// check holds the answers to the paper's guarantees. maybeItems is the
// number of items in requests whose outcome is unknown (transport errors);
// with none, stream_len must match exactly.
func (o *oracle) check(obs observed, maybeItems int64) error {
	if obs.streamLen < o.total || obs.streamLen > o.total+maybeItems {
		return fmt.Errorf("stream_len = %d, want %d (items in acknowledged batches; %d more in unanswered requests)",
			obs.streamLen, o.total, maybeItems)
	}
	m := float64(obs.streamLen)
	for _, k := range o.top(oracleTop) {
		f := o.counts[k]
		if est, ok := obs.countMin[k]; !ok || est < f || float64(est) > float64(f+maybeItems)+cmEpsilon*m {
			return fmt.Errorf("count-min estimate of key %d = %d (present %v), want in [%d, %d + %g*%d]",
				k, est, ok, f, f, cmEpsilon, obs.streamLen)
		}
		if est, ok := obs.freq[k]; !ok || est > f+maybeItems || float64(est) < float64(f)-freqEpsilon*m {
			return fmt.Errorf("freq estimate of key %d = %d (present %v), want in [%d - %g*%d, %d]",
				k, est, ok, f, freqEpsilon, obs.streamLen, f)
		}
	}
	for k, f := range o.counts {
		if float64(f) > hhPhi*m && !obs.heavy[uint64(k)] {
			return fmt.Errorf("key %d has frequency %d > %g*%d but heavyhitters does not report it",
				k, f, hhPhi, obs.streamLen)
		}
	}
	return nil
}

// observeHTTP reads stream_len, the probed estimates and the heavy hitters
// from a server, after flushing its ingest queue. /v1/stats reports the
// local pipeline; viewLen reads the length of the federation view instead,
// as the count-min sketch's exact total.
func observeHTTP(cn *conn, keys []uint64, viewLen bool) (observed, error) {
	obs := observed{countMin: map[uint64]int64{}, freq: map[uint64]int64{}, heavy: map[uint64]bool{}}
	var flushed struct {
		StreamLen int64 `json:"stream_len"`
	}
	if err := cn.getJSON(postRequest("/v1/flush", "application/json", nil), &flushed); err != nil {
		return obs, fmt.Errorf("flush: %w", err)
	}
	var stats struct {
		StreamLen int64 `json:"stream_len"`
	}
	if err := cn.getJSON(getRequest("/v1/stats"), &stats); err != nil {
		return obs, fmt.Errorf("stats: %w", err)
	}
	obs.streamLen = stats.StreamLen
	if viewLen {
		var total struct {
			Value int64 `json:"value"`
		}
		if err := cn.getJSON(getRequest("/v1/sketch/value"), &total); err != nil {
			return obs, fmt.Errorf("value: %w", err)
		}
		obs.streamLen = total.Value
	}
	for _, k := range keys {
		for _, q := range []struct {
			agg string
			dst map[uint64]int64
		}{{"sketch", obs.countMin}, {"hot", obs.freq}} {
			var r struct {
				Estimate int64 `json:"estimate"`
			}
			if err := cn.getJSON(getRequest(fmt.Sprintf("/v1/%s/estimate?item=%d", q.agg, k)), &r); err != nil {
				return obs, fmt.Errorf("estimate %s/%d: %w", q.agg, k, err)
			}
			q.dst[k] = r.Estimate
		}
	}
	var hh struct {
		Items []struct {
			Item uint64 `json:"item"`
		} `json:"items"`
	}
	if err := cn.getJSON(getRequest(fmt.Sprintf("/v1/hot/heavyhitters?phi=%g", hhPhi)), &hh); err != nil {
		return obs, fmt.Errorf("heavyhitters: %w", err)
	}
	for _, it := range hh.Items {
		obs.heavy[it.Item] = true
	}
	return obs, nil
}
