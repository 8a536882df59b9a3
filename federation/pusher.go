package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/metrics"
	"repro/trace"
)

// Source supplies the Pusher's payloads: Capture returns the node's
// complete current state as a pipeline checkpoint, taken at a minibatch
// boundary. An interior node's state is its whole view, its own
// pipeline ⊕ every child's latest part.
type Source interface {
	Capture() ([]byte, error)
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() ([]byte, error)

// Capture calls f.
func (f SourceFunc) Capture() ([]byte, error) { return f() }

// Pusher retry/backoff defaults.
const (
	DefaultInterval  = 10 * time.Second
	DefaultRetryBase = 200 * time.Millisecond
	DefaultRetryMax  = 5 * time.Second
	defaultAttempts  = 4 // tries per PushNow before deferring to the next tick
)

// PusherConfig configures a Pusher. URL, Node, and Source are required.
type PusherConfig struct {
	// URL is the root's merge endpoint, e.g. "http://root:8080/v1/merge".
	URL string
	// Node is this edge's stable identity at the root; pushes from the
	// same Node dedup by (epoch, seq). Two processes must never share
	// a Node ID.
	Node string
	// Source captures the payloads (see Source).
	Source Source
	// Interval between pushes for Run (default 10s).
	Interval time.Duration
	// Epoch tags this process lifetime; zero derives it from the start
	// time, which keeps (epoch, seq) strictly increasing across edge
	// restarts without persisting the counter.
	Epoch uint64
	// Client overrides http.DefaultClient.
	Client *http.Client
	// Registry receives the push-path instruments (nil: private).
	Registry *metrics.Registry
	// Logger receives one record per retry/failure, with the push's
	// trace and span IDs attached when the push is sampled (nil:
	// discard).
	Logger *slog.Logger
	// Tracer, when set, records a federation.push span per push and
	// propagates its context to the root via the traceparent header, so
	// the root's merge apply joins the same trace.
	Tracer *trace.Tracer
	// Parent, when set, supplies the span context each push span joins —
	// typically the serving layer's last sampled ingest — linking edge
	// capture, push, and root merge into one trace.
	Parent func() trace.SpanContext
	// RetryBase/RetryMax bound the exponential backoff between attempts
	// within one push (defaults 200ms / 5s).
	RetryBase, RetryMax time.Duration
}

// Pusher periodically captures a Source and ships it to a root's
// /v1/merge endpoint with retry, exponential backoff, and seq tagging.
// Methods are not safe for concurrent use; Run owns the Pusher until it
// returns, after which a final Push may flush the remainder.
type Pusher struct {
	cfg   PusherConfig
	epoch uint64
	seq   uint64
	sleep func(context.Context, time.Duration) error

	sent      *metrics.Counter
	failed    *metrics.Counter
	retried   *metrics.Counter
	dupes     *metrics.Counter
	pushBytes *metrics.Histogram
	lastSeq   *metrics.Gauge
}

// NewPusher validates cfg and builds a Pusher.
func NewPusher(cfg PusherConfig) (*Pusher, error) {
	if cfg.URL == "" {
		return nil, errors.New("federation: pusher needs a target URL")
	}
	if cfg.Node == "" || len(cfg.Node) > MaxNodeID {
		return nil, fmt.Errorf("federation: pusher needs a node ID (1..%d bytes)", MaxNodeID)
	}
	if cfg.Source == nil {
		return nil, errors.New("federation: pusher needs a Source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	cfg.Logger = cfg.Logger.With("node", cfg.Node)
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	epoch := cfg.Epoch
	if epoch == 0 {
		epoch = uint64(time.Now().UnixNano())
	}
	const pushesName = "streamagg_federation_pushes_total"
	const pushesHelp = "Federation push attempts by outcome."
	return &Pusher{
		cfg:   cfg,
		epoch: epoch,
		sleep: sleepCtx,
		sent:  reg.Counter(pushesName, pushesHelp, "result", "sent"),
		failed: reg.Counter(pushesName, pushesHelp,
			"result", "failed"),
		retried: reg.Counter(pushesName, pushesHelp,
			"result", "retried"),
		dupes: reg.Counter(pushesName, pushesHelp,
			"result", "duplicate"),
		pushBytes: reg.Histogram("streamagg_federation_push_payload_bytes",
			"Pushed payload sizes in bytes.", metrics.UnitItems),
		lastSeq: reg.Gauge("streamagg_federation_push_last_seq",
			"Seq of the last acknowledged push."),
	}, nil
}

// Epoch returns the epoch tagging this Pusher's envelopes.
func (p *Pusher) Epoch() uint64 { return p.epoch }

// Interval returns the effective push interval.
func (p *Pusher) Interval() time.Duration { return p.cfg.Interval }

// sleepCtx sleeps d or returns the context's error early.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Run pushes on every interval tick until ctx is canceled, then returns
// ctx's error. Push failures are logged and counted, never fatal — the
// next tick captures and pushes the whole state again.
func (p *Pusher) Run(ctx context.Context) error {
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			if err := p.Push(ctx); err != nil && ctx.Err() == nil {
				p.cfg.Logger.Warn("federation push failed", "url", p.cfg.URL, "err", err)
			}
		}
	}
}

// Push captures the source and ships one envelope, retrying transient
// failures with exponential backoff (a bounded number of attempts; a
// push that still fails is superseded by the next one, which carries
// everything).
func (p *Pusher) Push(ctx context.Context) error {
	// The push span covers capture through acknowledgment. It joins the
	// Parent-supplied context (a sampled ingest at this edge) when one
	// exists, otherwise the tracer's own sampling decides; its context
	// travels to the root in the traceparent header.
	var parent trace.SpanContext
	if p.cfg.Parent != nil {
		parent = p.cfg.Parent()
	}
	span := p.cfg.Tracer.Start("federation.push", parent)
	span.SetAttr("node", p.cfg.Node)
	err := p.push(ctx, span)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return err
}

func (p *Pusher) push(ctx context.Context, span *trace.Span) error {
	payload, err := p.cfg.Source.Capture()
	if err != nil {
		p.failed.Inc()
		return fmt.Errorf("federation: capturing push payload: %w", err)
	}
	// Seq gaps are fine: each payload carries everything.
	p.seq++
	seq := p.seq
	span.SetInt("seq", int64(seq))
	span.SetInt("bytes", int64(len(payload)))
	body, err := EncodeEnvelope(&Envelope{
		Node:    p.cfg.Node,
		Epoch:   p.epoch,
		Seq:     seq,
		Payload: payload,
	})
	if err != nil {
		p.failed.Inc()
		return err
	}
	backoff := p.cfg.RetryBase
	for attempt := 1; ; attempt++ {
		landed, err := p.send(ctx, body, span.Context())
		if err == nil {
			if landed {
				p.sent.Inc()
				p.pushBytes.Observe(uint64(len(payload)))
				span.SetAttr("result", "sent")
			} else {
				p.dupes.Inc()
				span.SetAttr("result", "duplicate")
			}
			p.lastSeq.Set(int64(seq))
			return nil
		}
		if permanent := new(permanentError); errors.As(err, &permanent) {
			// The root will never accept this payload; retrying cannot
			// help.
			p.failed.Inc()
			return err
		}
		if attempt >= defaultAttempts || ctx.Err() != nil {
			p.failed.Inc()
			return err
		}
		p.retried.Inc()
		args := append(span.LogArgs(),
			"seq", seq, "attempt", attempt, "err", err, "backoff", backoff)
		p.cfg.Logger.Warn("federation push retrying", args...)
		if serr := p.sleep(ctx, backoff); serr != nil {
			p.failed.Inc()
			return err
		}
		if backoff *= 2; backoff > p.cfg.RetryMax {
			backoff = p.cfg.RetryMax
		}
	}
}

// Final makes one last push for graceful shutdown: the current state,
// once more.
func (p *Pusher) Final(ctx context.Context) error { return p.Push(ctx) }

// permanentError marks a response that retrying the same payload cannot
// fix (400, or 409 incompatible).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// mergeReject is the JSON body the server returns with 4xx on
// /v1/merge; Reason distinguishes already-landed ("duplicate",
// "stale") from never-landing ("incompatible", "cycle").
type mergeReject struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// send POSTs one envelope. Returns (true, nil) when the root applied
// it, (false, nil) when the root had already applied it (duplicate or
// superseded — the payload's information is at the root either way), a
// *permanentError when the root permanently rejected it, or a plain
// error for transient failures worth retrying.
func (p *Pusher) send(ctx context.Context, body []byte, sc trace.SpanContext) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.cfg.URL, bytes.NewReader(body))
	if err != nil {
		return false, &permanentError{msg: fmt.Sprintf("federation: building request: %v", err)}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if sc.IsValid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		return true, nil
	case resp.StatusCode == http.StatusConflict:
		var rej mergeReject
		if json.Unmarshal(reply, &rej) == nil &&
			(rej.Reason == "duplicate" || rej.Reason == "stale") {
			return false, nil
		}
		return false, &permanentError{msg: fmt.Sprintf(
			"federation: root rejected push: %s", strings.TrimSpace(string(reply)))}
	case resp.StatusCode == http.StatusBadRequest:
		return false, &permanentError{msg: fmt.Sprintf(
			"federation: root rejected push: %s", strings.TrimSpace(string(reply)))}
	default:
		// 429 (overload, or "capacity": the root holds MaxNodes other
		// nodes), 5xx, and anything unexpected: worth retrying.
		return false, fmt.Errorf("federation: root returned %s: %s",
			resp.Status, strings.TrimSpace(string(reply)))
	}
}
