package server

// Aggregate specs: the flag syntax cmd/aggserve and streamtool push use
// to build a Pipeline, mapping straight onto New/Pipeline.Add with the
// same functional options (and therefore the same centralized
// ErrBadParam validation):
//
//	-agg name=kind[,opt=value]...
//
// e.g. -agg hot=freq,eps=0.001 -agg dist=count-min-range,bits=20,shards=4

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	streamagg "repro"
	"repro/persist"
)

// kindAlias maps flag-friendly kind names (plus the canonical Kind
// strings) to kinds.
var kindAlias = map[string]streamagg.Kind{
	"basic-counter":          streamagg.KindBasicCounter,
	"counter":                streamagg.KindBasicCounter,
	"window-sum":             streamagg.KindWindowSum,
	"sum":                    streamagg.KindWindowSum,
	"freq-estimator":         streamagg.KindFreq,
	"freq":                   streamagg.KindFreq,
	"sliding-freq-estimator": streamagg.KindSlidingFreq,
	"sliding-freq":           streamagg.KindSlidingFreq,
	"count-min":              streamagg.KindCountMin,
	"cm":                     streamagg.KindCountMin,
	"count-min-range":        streamagg.KindCountMinRange,
	"range":                  streamagg.KindCountMinRange,
	"count-sketch":           streamagg.KindCountSketch,
	"cs":                     streamagg.KindCountSketch,
}

// ParseSpec parses one aggregate spec into its name, kind, and options.
func ParseSpec(spec string) (name string, kind streamagg.Kind, opts []streamagg.Option, err error) {
	head, rest, _ := strings.Cut(spec, ",")
	name, kindStr, ok := strings.Cut(head, "=")
	if !ok || name == "" || kindStr == "" {
		return "", "", nil, fmt.Errorf("bad aggregate spec %q (want name=kind[,opt=value]...)", spec)
	}
	kind, ok = kindAlias[kindStr]
	if !ok {
		return "", "", nil, fmt.Errorf("bad aggregate spec %q: unknown kind %q", spec, kindStr)
	}
	if rest == "" {
		return name, kind, nil, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return "", "", nil, fmt.Errorf("bad aggregate spec %q: option %q (want opt=value)", spec, kv)
		}
		opt, err := parseOption(key, val)
		if err != nil {
			return "", "", nil, fmt.Errorf("bad aggregate spec %q: %w", spec, err)
		}
		opts = append(opts, opt)
	}
	return name, kind, opts, nil
}

func parseOption(key, val string) (streamagg.Option, error) {
	switch key {
	case "eps", "epsilon":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithEpsilon(f), nil
	case "delta":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithDelta(f), nil
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithSeed(n), nil
	case "window":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithWindow(n), nil
	case "max":
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithMaxValue(n), nil
	case "bits":
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithUniverseBits(n), nil
	case "shards":
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("option %s=%q: %w", key, val, err)
		}
		return streamagg.WithShards(n), nil
	}
	return nil, fmt.Errorf("unknown option %q (want eps, delta, seed, window, max, bits, or shards)", key)
}

// AddSpecs parses each spec and registers the aggregates on p.
func AddSpecs(p *streamagg.Pipeline, specs []string) error {
	for _, spec := range specs {
		name, kind, opts, err := ParseSpec(spec)
		if err != nil {
			return err
		}
		if _, err := p.Add(name, kind, opts...); err != nil {
			return fmt.Errorf("aggregate spec %q: %w", spec, err)
		}
	}
	return nil
}

// IngestOptions turns the serving flag values into the Ingestor's option
// list. Zero batchSize/queueCap and empty policy mean "use the default";
// maxLatency's unset sentinel is negative, because zero is a meaningful
// setting (flush as fast as the worker turns around).
func IngestOptions(batchSize int, maxLatency time.Duration, queueCap int, policy string) ([]streamagg.Option, error) {
	var opts []streamagg.Option
	if batchSize > 0 {
		opts = append(opts, streamagg.WithBatchSize(batchSize))
	}
	if maxLatency >= 0 {
		opts = append(opts, streamagg.WithMaxLatency(maxLatency))
	}
	if queueCap > 0 {
		opts = append(opts, streamagg.WithQueueCap(queueCap))
	}
	if policy != "" {
		p, err := streamagg.ParseBackpressure(policy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, streamagg.WithBackpressure(p))
	}
	return opts, nil
}

// DurabilityOptions turns the -data-dir/-fsync/-snapshot-every flag
// values into Ingestor options. An empty dataDir means no durability
// (fsync and snapshotEvery must then be unset too — NewIngestor rejects
// them); empty fsync and zero snapshotEvery mean "use the default".
func DurabilityOptions(dataDir, fsync string, snapshotEvery int) ([]streamagg.Option, error) {
	var opts []streamagg.Option
	if dataDir != "" {
		opts = append(opts, streamagg.WithDataDir(dataDir))
	}
	if fsync != "" {
		p, err := persist.ParseFsync(fsync)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", streamagg.ErrBadParam, err)
		}
		opts = append(opts, streamagg.WithFsync(p))
	}
	if snapshotEvery > 0 {
		opts = append(opts, streamagg.WithSnapshotEvery(snapshotEvery))
	}
	return opts, nil
}
