package federation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	streamagg "repro"
	"repro/metrics"
)

// StaleError reports a push the root has already superseded: the node's
// last-applied (Epoch, Seq) is at or past the envelope's. Duplicate
// marks an exact replay (same epoch and seq) as opposed to an
// out-of-order straggler. It wraps ErrStale; the server maps it to 409
// and the Pusher treats it as delivered.
type StaleError struct {
	Duplicate bool
	Epoch     uint64 // the node's last applied epoch
	Seq       uint64 // the node's last applied seq
}

func (e *StaleError) Error() string {
	kind := "stale"
	if e.Duplicate {
		kind = "duplicate"
	}
	return fmt.Sprintf("federation: %s push (last applied epoch=%d seq=%d)", kind, e.Epoch, e.Seq)
}

// Unwrap makes errors.Is(err, ErrStale) hold.
func (e *StaleError) Unwrap() error { return ErrStale }

// Reason returns the metric/HTTP label for the error ("duplicate" or
// "stale").
func (e *StaleError) Reason() string {
	if e.Duplicate {
		return "duplicate"
	}
	return "stale"
}

// nodeState is the root's per-edge bookkeeping: dedup watermark, the
// node's latest full-mode contribution, and per-node instruments. It
// exists from the node's first applied push on.
type nodeState struct {
	epoch, seq uint64
	lastSeen   atomic.Int64 // unix nanos of the last applied push

	// contrib holds the node's latest ModeFull pipeline, also held as
	// the node's part of the overlay; replaced wholesale on each full
	// push, nil for delta-only nodes (their pushes merge destructively
	// into the base).
	contrib *streamagg.Pipeline

	lastSeq *metrics.Gauge
}

// Root folds federation pushes into a base pipeline and serves a merged
// global view. Full-mode contributions are kept per node and overlaid
// on the base (latest-wins, so resends are idempotent); delta-mode
// pushes, from edges running an older binary, merge directly into the
// base. At most MaxNodes node IDs are held. A full push costs the same
// whatever the number of nodes: the overlay keeps the running sum of the
// contributions' linear members, and the view is built from it lazily,
// at most once per change. Safe for concurrent use; the base may keep
// ingesting local traffic throughout.
type Root struct {
	base *streamagg.Pipeline
	now  func() time.Time

	mu      sync.Mutex
	nodes   map[string]*nodeState
	overlay *streamagg.Overlay // base ⊕ every node's contribution
	ver     uint64             // bumped whenever a push lands

	// Cached merged view, replaced (never modified) on rebuild, so a
	// reader keeps an immutable snapshot. Valid while no push landed
	// (ver) and the base absorbed nothing since the clone it was built
	// from (viewBaseLen, that clone's own StreamLen).
	view        *streamagg.Pipeline
	viewVer     uint64
	viewBaseLen int64

	reg          *metrics.Registry
	applied      *metrics.Counter
	duplicate    *metrics.Counter
	stale        *metrics.Counter
	incompatible *metrics.Counter
	malformed    *metrics.Counter
	capacity     *metrics.Counter
	nodeCount    *metrics.Gauge
	payloadBytes *metrics.Histogram
	viewHits     *metrics.Counter
	viewRebuilds *metrics.Counter
}

// NewRoot wraps base as a federation merge target. Instruments land in
// reg (nil for a private registry); pass the serving layer's shared
// registry so the merge path shows up at /metrics.
func NewRoot(base *streamagg.Pipeline, reg *metrics.Registry) *Root {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Root{
		base:    base,
		now:     time.Now,
		nodes:   make(map[string]*nodeState),
		overlay: streamagg.NewOverlay(base),
		reg:     reg,
	}
	const mergesName = "streamagg_federation_merges_total"
	const mergesHelp = "Federation pushes received, by outcome."
	r.applied = reg.Counter(mergesName, mergesHelp, "result", "applied")
	r.duplicate = reg.Counter(mergesName, mergesHelp, "result", "duplicate")
	r.stale = reg.Counter(mergesName, mergesHelp, "result", "stale")
	r.incompatible = reg.Counter(mergesName, mergesHelp, "result", "incompatible")
	r.malformed = reg.Counter(mergesName, mergesHelp, "result", "malformed")
	r.capacity = reg.Counter(mergesName, mergesHelp, "result", "capacity")
	r.nodeCount = reg.Gauge("streamagg_federation_nodes",
		"Node IDs the root holds a watermark and part for.")
	r.payloadBytes = reg.Histogram("streamagg_federation_merge_payload_bytes",
		"Accepted merge payload sizes in bytes.", metrics.UnitItems)
	r.viewHits = reg.Counter("streamagg_federation_view_cache_hits_total",
		"Global-view queries served from the cached merge.")
	r.viewRebuilds = reg.Counter("streamagg_federation_view_rebuilds_total",
		"Global-view rebuilds (clone the base, merge the contributions' running sums).")
	return r
}

// maxNodeSeries caps how many distinct node IDs get their own metric
// series. Node IDs arrive off the wire, so without a cap any client
// POSTing /v1/merge with fresh IDs would grow /metrics forever; nodes
// past the cap keep full dedup bookkeeping but share one
// node="overflow" series.
const maxNodeSeries = 64

// overflowNodeLabel is the shared label value for nodes past the cap.
const overflowNodeLabel = "overflow"

// addNode creates the state for a node ID whose first push just landed,
// wiring its per-node instruments. Caller holds r.mu.
func (r *Root) addNode(id string) *nodeState {
	label := id
	if len(r.nodes) >= maxNodeSeries {
		label = overflowNodeLabel
	}
	ns := &nodeState{
		lastSeq: r.reg.Gauge("streamagg_federation_node_last_seq",
			"Last applied push seq per edge node.", "node", label),
	}
	if label == id {
		// Per-node staleness only below the cap: GetOrCreate keeps
		// the first registered fn, so a shared overflow series
		// would pin whichever node happened to arrive first.
		r.reg.GaugeFunc("streamagg_federation_node_staleness_seconds",
			"Seconds since the last applied push per edge node.", func() float64 {
				last := ns.lastSeen.Load()
				if last == 0 {
					return 0
				}
				return time.Duration(r.now().UnixNano() - last).Seconds()
			}, "node", label)
	}
	r.nodes[id] = ns
	r.nodeCount.Set(int64(len(r.nodes)))
	return ns
}

// decodeContribution turns an envelope payload into a pipeline to merge:
// either a whole-pipeline checkpoint, or a single aggregate wrapped in a
// one-member pipeline under the envelope's target name.
func decodeContribution(env *Envelope) (*streamagg.Pipeline, error) {
	if env.Agg != "" {
		agg, err := streamagg.UnmarshalAggregate(env.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
		}
		p := streamagg.NewPipeline()
		if err := p.Register(env.Agg, agg); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
		}
		return p, nil
	}
	p, err := streamagg.UnmarshalPipeline(env.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	return p, nil
}

// Apply lands one push. Outcomes: nil (applied); *StaleError wrapping
// ErrStale (duplicate or superseded — drop, 409); an error wrapping
// streamagg.ErrIncompatibleMerge (payload can never merge into this
// root — 409); an error wrapping ErrBadEnvelope (undecodable payload —
// 400); an error wrapping ErrCapacity (a new node ID while MaxNodes are
// held — 429, retried; known nodes always land). The dedup watermark
// advances only when a push actually lands, so a failed push may be
// retried under the same seq, and a node ID takes a slot only once one
// of its pushes lands.
func (r *Root) Apply(env *Envelope) error {
	if env == nil {
		return fmt.Errorf("%w: nil envelope", ErrBadEnvelope)
	}
	if err := env.validate(); err != nil {
		r.malformed.Inc()
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ns := r.nodes[env.Node]
	if ns == nil && len(r.nodes) >= MaxNodes {
		r.capacity.Inc()
		return fmt.Errorf("%w: %d nodes already push here; node %q refused",
			ErrCapacity, MaxNodes, env.Node)
	}
	if ns != nil &&
		(env.Epoch < ns.epoch || (env.Epoch == ns.epoch && env.Seq <= ns.seq)) {
		serr := &StaleError{
			Duplicate: env.Epoch == ns.epoch && env.Seq == ns.seq,
			Epoch:     ns.epoch,
			Seq:       ns.seq,
		}
		if serr.Duplicate {
			r.duplicate.Inc()
		} else {
			r.stale.Inc()
		}
		return serr
	}
	contrib, err := decodeContribution(env)
	if err != nil {
		r.malformed.Inc()
		return err
	}
	full := env.Mode == ModeFull
	if full {
		// Replace the node's contribution, latest wins. Put checks the
		// contribution against the base before anything changes, so a
		// rejected push leaves the overlay, the cached view and the
		// watermark as they were.
		err = r.overlay.Put(env.Node, contrib)
	} else {
		err = r.base.Merge(contrib)
	}
	if err != nil {
		r.incompatible.Inc()
		return err
	}
	r.ver++
	if ns == nil {
		ns = r.addNode(env.Node)
	}
	if full {
		ns.contrib = contrib
	}
	ns.epoch, ns.seq = env.Epoch, env.Seq
	ns.lastSeen.Store(r.now().UnixNano())
	ns.lastSeq.Set(int64(env.Seq))
	r.applied.Inc()
	r.payloadBytes.Observe(uint64(len(env.Payload)))
	return nil
}

// View returns the pipeline queries should read: the base itself while
// no full-mode contributions exist (delta pushes land in the base
// directly), otherwise the cached clone(base) ⊕ contributions, rebuilt
// when a push or local ingest invalidated it. The returned pipeline is
// read-only for the caller. The clone holds the base's batch lock, so
// the view is at one of the base's minibatch boundaries.
func (r *Root) View() *streamagg.Pipeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.overlay.Len() == 0 {
		return r.base
	}
	if r.view != nil && r.viewVer == r.ver && r.viewBaseLen == r.base.StreamLen() {
		r.viewHits.Inc()
		return r.view
	}
	view, baseLen, err := r.overlay.Build()
	if err != nil {
		// Every contribution merged cleanly when it landed; only an
		// out-of-band base replacement (restore) can break the overlay.
		// Serve local-only state rather than failing reads.
		return r.base
	}
	// baseLen is the length of the clone the view was built from, not
	// the base's now: a batch that lands mid-build must leave the view
	// stale, not be taken as already in it.
	r.view, r.viewVer, r.viewBaseLen = view, r.ver, baseLen
	r.viewRebuilds.Inc()
	return view
}

// Invalidate drops the cached view. The serving layer calls it after
// replacing the base pipeline's state out of band (restore), where the
// stream length alone might not betray the change.
func (r *Root) Invalidate() {
	r.mu.Lock()
	r.ver++
	r.mu.Unlock()
}

// NodeStatus is one edge node's federation state, as reported by the
// serving layer's /v1/stats.
type NodeStatus struct {
	Node            string    `json:"node"`
	Epoch           uint64    `json:"epoch"`
	Seq             uint64    `json:"seq"`
	LastSeen        time.Time `json:"last_seen"`
	HasContribution bool      `json:"has_contribution"`
	ContributionLen int64     `json:"contribution_stream_len,omitempty"`
}

// Nodes reports every edge node that has ever pushed, sorted by ID.
func (r *Root) Nodes() []NodeStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStatus, 0, len(r.nodes))
	for id, ns := range r.nodes {
		st := NodeStatus{Node: id, Epoch: ns.epoch, Seq: ns.seq}
		if last := ns.lastSeen.Load(); last != 0 {
			st.LastSeen = time.Unix(0, last).UTC()
		}
		if ns.contrib != nil {
			st.HasContribution = true
			st.ContributionLen = ns.contrib.StreamLen()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Incompatible reports whether err means the payload can never merge
// into this root (as opposed to transient or already-applied).
func Incompatible(err error) bool {
	return errors.Is(err, streamagg.ErrIncompatibleMerge)
}
