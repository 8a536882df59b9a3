package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// rng is splitmix64: tiny, fast, and fully determined by its seed, so the
// same -seed renders byte-identical requests on every machine.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// streamSeed derives an independent generator for one named input stream,
// so adding a stream never shifts the keys of another.
func streamSeed(seed int64, stream string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return &rng{s: h.Sum64()}
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^s by Vose's alias method:
// O(n) to build, one table probe per draw.
type zipf struct {
	prob  []float64
	alias []uint32
}

func newZipf(n int, s float64) *zipf {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	z := &zipf{prob: make([]float64, n), alias: make([]uint32, n)}
	small := make([]uint32, 0, n)
	large := make([]uint32, 0, n)
	for k := range w {
		w[k] *= float64(n) / sum
		if w[k] < 1 {
			small = append(small, uint32(k))
		} else {
			large = append(large, uint32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		lo, hi := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		z.prob[lo], z.alias[lo] = w[lo], hi
		w[hi] -= 1 - w[lo]
		if w[hi] < 1 {
			small = append(small, hi)
		} else {
			large = append(large, hi)
		}
	}
	for _, k := range append(small, large...) {
		z.prob[k], z.alias[k] = 1, k
	}
	return z
}

func (z *zipf) draw(r *rng) uint64 {
	k := r.intn(len(z.prob))
	if r.float() < z.prob[k] {
		return uint64(k)
	}
	return uint64(z.alias[k])
}

func (z *zipf) keys(r *rng, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.draw(r)
	}
	return out
}

// distinctKeys returns n all-different keys: the input on which a
// histogram dedups nothing.
func distinctKeys(start uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = start + uint64(i)
	}
	return out
}

// Requests are rendered to raw HTTP/1.1 bytes before the timed window, so
// issuing one costs the generator a socket write, not strconv. The Host
// header is a constant: the server ignores it and the port is not known
// until the child is spawned.

func appendKeyArray(b []byte, keys []uint64) []byte {
	b = append(b, '[')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, k, 10)
	}
	return append(b, ']')
}

// ingestBody renders the JSON body of one ingest request: a bare array, or
// the object form when the request must be flushed before it is answered.
func ingestBody(keys []uint64, sync bool) []byte {
	if !sync {
		return appendKeyArray(nil, keys)
	}
	b := appendKeyArray([]byte(`{"items":`), keys)
	return append(b, `,"sync":true}`...)
}

func postRequest(path, contentType string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, contentType, len(body))
	return append([]byte(head), body...)
}

func ingestRequest(keys []uint64, sync bool) []byte {
	return postRequest("/v1/ingest", "application/json", ingestBody(keys, sync))
}

func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// queryRequest renders one query of the given verb against the demo trio.
// key parameterises estimate and rangecount; quantile cycles three ranks.
func queryRequest(op int, key uint64) []byte {
	switch op {
	case opEstimate:
		return getRequest("/v1/sketch/estimate?item=" + strconv.FormatUint(key, 10))
	case opHeavyHitters:
		return getRequest("/v1/hot/heavyhitters?phi=0.01")
	case opTopK:
		return getRequest("/v1/hot/topk?k=10")
	case opRangeCount:
		lo := key &^ 4095
		return getRequest(fmt.Sprintf("/v1/dist/rangecount?lo=%d&hi=%d", lo, lo+4095))
	case opQuantile:
		return getRequest("/v1/dist/quantile?q=" + [...]string{"0.5", "0.9", "0.99"}[key%3])
	}
	panic(fmt.Sprintf("bench: no query request for op %d", op))
}

var opNames = [numOps]string{"ingest", "estimate", "heavyhitters", "topk", "rangecount", "quantile", "merge"}
