package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	streamagg "repro"
)

func TestParseSpec(t *testing.T) {
	name, kind, opts, err := ParseSpec("hot=freq,eps=0.001")
	if err != nil || name != "hot" || kind != streamagg.KindFreq || len(opts) != 1 {
		t.Fatalf("ParseSpec: %q %q %d opts, %v", name, kind, len(opts), err)
	}
	p := streamagg.NewPipeline()
	if err := AddSpecs(p, []string{
		"hot=freq,eps=0.001",
		"recent=sliding-freq,window=65536",
		"sketch=cm,eps=1e-4,delta=0.001,seed=7,shards=4",
		"dist=count-min-range,bits=20",
		"ones=counter,window=4096",
		"load=sum,window=4096,max=1000",
		"cs=count-sketch",
	}); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
	if agg, _ := p.Get("sketch"); agg.Kind() != streamagg.KindSharded {
		t.Fatalf("shards option ignored: %s", agg.Kind())
	}

	for _, bad := range []string{
		"",                // no name=kind
		"justname",        // no kind
		"x=unknown-kind",  // unknown kind
		"x=freq,eps",      // option without value
		"x=freq,nope=1",   // unknown option
		"x=freq,eps=abc",  // malformed value
		"x=freq,window=1", // inapplicable option (library rejects)
		"hot=freq",        // duplicate name (library rejects)
	} {
		if err := AddSpecs(p, []string{bad}); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}

	// One sliding-window algorithm ships; the key that chose among three
	// is an unknown option now.
	if _, _, _, err := ParseSpec("x=sliding-freq,window=64,variant=work"); err == nil ||
		!strings.Contains(err.Error(), `unknown option "variant"`) {
		t.Fatalf("variant= spec: %v", err)
	}

	opts, err = IngestOptions(1024, 2*time.Millisecond, 8192, "reject")
	if err != nil || len(opts) != 4 {
		t.Fatalf("IngestOptions: %d opts, %v", len(opts), err)
	}
	if _, err := IngestOptions(0, -1, 0, "bogus"); !errors.Is(err, streamagg.ErrBadParam) {
		t.Fatalf("bogus policy: %v", err)
	}
	if opts, err := IngestOptions(0, -1, 0, ""); err != nil || len(opts) != 0 {
		t.Fatalf("all-defaults: %d opts, %v", len(opts), err)
	}
	// Zero latency is a real setting (flush immediately), not "unset".
	if opts, err := IngestOptions(0, 0, 0, ""); err != nil || len(opts) != 1 {
		t.Fatalf("latency 0: %d opts, %v", len(opts), err)
	}
}
