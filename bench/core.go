package main

import (
	"fmt"
	"os"
	"time"

	streamagg "repro"
	"repro/server"
)

// newDemoPipeline builds aggserve's default trio in this process, through
// the same spec parser the server uses.
func newDemoPipeline() (*streamagg.Pipeline, error) {
	pipe := streamagg.NewPipeline()
	if err := server.AddSpecs(pipe, demoSpecs); err != nil {
		return nil, fmt.Errorf("bench: building the demo pipeline: %w", err)
	}
	return pipe, nil
}

// processAll feeds keys to pipe directly, in minibatches of coreBatch.
func processAll(pipe *streamagg.Pipeline, keys []uint64) error {
	for i := 0; i < len(keys); i += coreBatch {
		if err := pipe.ProcessBatch(keys[i:min(i+coreBatch, len(keys))]); err != nil {
			return err
		}
	}
	return nil
}

// runIngestCore drives the library path with no HTTP: one producer calling
// PutBatch on an Ingestor with default options in front of the demo trio.
// The process under test is this process, producer included.
func runIngestCore(e *env) (*runResult, error) {
	preKeys := e.zipf.keys(streamSeed(e.seed, "preload"), preloadKeys)
	ring := e.zipf.keys(streamSeed(e.seed, "ingest-core"), coreRing)
	const batches = coreRing / coreBatch

	var pipe *streamagg.Pipeline
	var ing *streamagg.Ingestor
	var setups []time.Duration
	for round := 0; round < setupRepeats; round++ {
		if ing != nil {
			if err := ing.Close(); err != nil {
				return nil, err
			}
		}
		begin := time.Now()
		var err error
		if pipe, err = newDemoPipeline(); err != nil {
			return nil, err
		}
		if ing, err = streamagg.NewIngestor(pipe); err != nil {
			return nil, err
		}
		for i := 0; i < len(preKeys); i += preloadBatch {
			if _, err := ing.PutBatch(preKeys[i : i+preloadBatch]); err != nil {
				return nil, err
			}
		}
		if err := ing.Flush(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin))
	}

	start := time.Now()
	stop := make(chan struct{})
	var parts [][]opRecord
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		parts = closedLoop(start, 1, stop, func(_, i int) (int, int, int) {
			b := i % batches
			n, err := ing.PutBatch(ring[b*coreBatch : (b+1)*coreBatch])
			if err != nil || n != coreBatch {
				return opIngest, 500, n
			}
			return opIngest, 200, n
		})
	}()
	time.Sleep(time.Until(start.Add(warmup)))
	cpu0, st0 := selfCPU(), ing.Stats()
	time.Sleep(time.Until(start.Add(warmup + e.window)))
	cpu, st1 := selfCPU()-cpu0, ing.Stats()
	rss, err := procPeakRSSMiB(os.Getpid())
	close(stop)
	<-loopDone
	if err != nil {
		return nil, err
	}
	if err := ing.Flush(); err != nil {
		return nil, err
	}
	log := newOpLog(parts, warmup, e.window)

	// Latency on this path is how long a batch handed over takes to be
	// applied: PutBatch then Flush, one batch in flight. (The call time of
	// PutBatch alone in the saturated loop above is either a 64 KiB copy or
	// a wait for the worker, and its median flips between the two.)
	syncLat := make([]sample, coreSyncBatches)
	for i := range syncLat {
		b := i % batches
		begin := time.Now()
		if _, err := ing.PutBatch(ring[b*coreBatch : (b+1)*coreBatch]); err != nil {
			return nil, err
		}
		if err := ing.Flush(); err != nil {
			return nil, err
		}
		syncLat[i] = sample{lat: time.Since(begin), items: coreBatch}
	}

	o := newOracle()
	o.add(preKeys, 1)
	acks := make([]int64, batches)
	for j, r := range parts[0] {
		if ok2xx(r.status) {
			acks[j%batches]++
		} else {
			return nil, fmt.Errorf("bench: PutBatch %d accepted %d of %d keys", j, r.items, coreBatch)
		}
	}
	for i := range syncLat {
		acks[i%batches]++
	}
	for b, n := range acks {
		o.add(ring[b*coreBatch:(b+1)*coreBatch], n)
	}
	obs, err := observePipeline(pipe, o.top(oracleTop))
	if err != nil {
		return nil, err
	}
	if err := o.check(obs, 0); err != nil {
		return nil, fmt.Errorf("bench: INCORRECT: %w", err)
	}

	// An embedder recovers by restoring its last checkpoint into a fresh
	// pipeline and putting a new Ingestor in front of it.
	var recoveries []time.Duration
	for round := 0; round < restartRoundsCore; round++ {
		ckpt, err := ing.Checkpoint()
		if err != nil {
			return nil, err
		}
		if err := ing.Close(); err != nil {
			return nil, err
		}
		begin := time.Now()
		if pipe, err = streamagg.UnmarshalPipeline(ckpt); err != nil {
			return nil, err
		}
		if ing, err = streamagg.NewIngestor(pipe); err != nil {
			return nil, err
		}
		recoveries = append(recoveries, time.Since(begin))
		if pipe.StreamLen() != o.total {
			return nil, fmt.Errorf("bench: INCORRECT: stream_len %d after restore, want %d", pipe.StreamLen(), o.total)
		}
	}
	if err := ing.Close(); err != nil {
		return nil, err
	}

	r := newResult()
	r.e2e["setup_s"] = medianDuration(setups).Seconds()
	r.e2e["rss_mb"] = rss
	r.e2e["recovery_s"] = medianDuration(recoveries).Seconds()
	ingestMetrics(r, log, cpu, opIngest, syncLat)
	t := log.tally()
	r.attempted, r.failed = t.requests+coreSyncBatches, t.failed()
	tallyCounts(t, r.layer)
	window{before: statsOf(st0), after: statsOf(st1), selfCPU: cpu}.layerCounts(r.layer)
	r.layer["client.cpu_share"] = 1 // the producer runs inside the process under test
	return r, nil
}

func statsOf(s streamagg.IngestorStats) serverStats {
	var st serverStats
	st.Ingest.Processed = s.Processed
	st.Ingest.Dropped, st.Ingest.Rejected = s.Dropped, s.Rejected
	st.Ingest.Batches, st.Ingest.SizeFlushes = s.Batches, s.SizeFlushes
	st.Ingest.QueueDepth = s.QueueDepth
	return st
}

// observePipeline reads the same answers observeHTTP does, in-process.
func observePipeline(pipe *streamagg.Pipeline, keys []uint64) (observed, error) {
	obs := observed{streamLen: pipe.StreamLen(),
		countMin: map[uint64]int64{}, freq: map[uint64]int64{}, heavy: map[uint64]bool{}}
	for _, k := range keys {
		var err error
		if obs.countMin[k], err = pipe.Estimate("sketch", k); err != nil {
			return obs, err
		}
		if obs.freq[k], err = pipe.Estimate("hot", k); err != nil {
			return obs, err
		}
	}
	hh, err := pipe.HeavyHitters("hot", hhPhi)
	if err != nil {
		return obs, err
	}
	for _, it := range hh {
		obs.heavy[it.Item] = true
	}
	return obs, nil
}
