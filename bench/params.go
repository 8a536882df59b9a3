package main

import "time"

// Every rate and size the workloads use is a constant here, never derived
// from a measurement at run time, so two runs of one commit offer the
// server the same work. (BENCHMARK.json's schema has no room for them.)
const (
	keyUniverse = 1 << 18 // zipf ranks; rank 0 is the heaviest key
	zipfSkew    = 1.1

	// Set-up preloads every server (and the ingest-core pipeline) so no
	// workload measures a cold, empty sketch.
	preloadKeys  = 1 << 20
	preloadBatch = 8192

	// ingest-http: closed loop, nproc connections, 512-key bodies.
	httpBatch = 512
	httpRing  = 4096 // pre-rendered request bodies per run

	// ingest-core: one producer, 8192-key PutBatch calls from a key ring.
	coreBatch = 8192
	coreRing  = 1 << 22

	// mixed-durable phase A: open loop at a fixed rate, E19's verb mix.
	mixedRate       = 800 // ops/s over all connections
	mixedIngestKeys = 64
	mixedRing       = 2048 // pre-rendered ingest bodies
	// Phase B (recovery): exactly this many sync'd WAL records, then SIGKILL.
	recoveryRecords = 512
	recoveryBatch   = 8192
	recoveryBodies  = 64 // distinct bodies, cycled

	// federation-fanin: 8 edges push full-mode envelopes to one root.
	faninEdges     = 8
	faninEdgeKeys  = 1 << 18
	faninQueryRate = 100 // queries/s, open loop, second connection

	// Estimator slices: throughput per 1 s slice, latency per 3 s slice,
	// median over slices, so a few seconds of host steal do not decide a run.
	throughputSlice = time.Second
	latencySlice    = 3 * time.Second

	warmup       = 2 * time.Second
	setupRepeats = 5 // setup_s is the median of this many set-ups
	// recovery_s is the median of this many kill/restart rounds: many where a
	// round takes milliseconds, fewer where it replays 2^22 items. A restore
	// on ingest-core takes 2 to 6 ms within one run, so it gets the most.
	restartRoundsCore    = 75
	restartRoundsMemory  = 40
	restartRoundsDurable = 5
	// ingest-core times this many PutBatch+Flush pairs for its latency.
	coreSyncBatches = 400

	readyDeadline  = 20 * time.Second
	requestTimeout = 30 * time.Second

	// Accuracy parameters of the demo trio, restated for the oracle check.
	cmEpsilon   = 1e-4
	freqEpsilon = 1e-3
	hhPhi       = 0.01
	oracleTop   = 20
)

// demoSpecs is aggserve's default trio, spelled out so the in-process
// workloads build exactly what the child process serves by default.
var demoSpecs = []string{
	"hot=freq,eps=0.001",
	"sketch=count-min,eps=1e-4,seed=7",
	"dist=count-min-range,bits=20",
}

// mixedWeights is E19's operation mix for mixed-durable phase A.
var mixedWeights = []struct {
	op     int
	weight int
}{
	{opIngest, 80}, {opEstimate, 8}, {opHeavyHitters, 3}, {opTopK, 3}, {opRangeCount, 3}, {opQuantile, 3},
}

// Operation kinds the generators draw from.
const (
	opIngest = iota
	opEstimate
	opHeavyHitters
	opTopK
	opRangeCount
	opQuantile
	opMerge
	numOps
)

var queryOps = []int{opEstimate, opHeavyHitters, opTopK, opRangeCount, opQuantile}
