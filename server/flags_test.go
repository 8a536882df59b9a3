package server

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

func parseRunFlags(t *testing.T, args ...string) RunConfig {
	t.Helper()
	fs := flag.NewFlagSet("aggserve", flag.ContinueOnError)
	config := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return config()
}

// TestRegisterFlagsDefaults pins what an empty command line serves with:
// an omitted -latency stays negative (unset; 0 means flush immediately)
// and every other knob is left to the library default.
func TestRegisterFlagsDefaults(t *testing.T) {
	want := RunConfig{Addr: ":8080", Backpressure: "block", MaxLatency: -1}
	if got := parseRunFlags(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
}

// TestRegisterFlagsReachEveryField sets every flag to a non-default
// value: each RunConfig field but Logger must change, so a field added
// without a flag fails here.
func TestRegisterFlagsReachEveryField(t *testing.T) {
	def := parseRunFlags(t)
	got := parseRunFlags(t,
		"-addr", "127.0.0.1:9", "-agg", "hot=freq", "-agg", "cm=count-min",
		"-batch", "64", "-latency", "0", "-queue", "256", "-backpressure", "drop",
		"-data-dir", "dir", "-fsync", "never", "-snapshot-every", "3",
		"-parallelism", "2", "-metrics=false", "-trace-sample", "0.5",
		"-debug-addr", "localhost:6060", "-push-to", "root:8080",
		"-push-every", "1s", "-node-id", "edge")
	dv, gv := reflect.ValueOf(def), reflect.ValueOf(got)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		if name == "Logger" {
			continue
		}
		if reflect.DeepEqual(dv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("RunConfig.%s: no flag changes it", name)
		}
	}
	if !got.NoMetrics {
		t.Error("-metrics=false did not set NoMetrics")
	}
	if want := []string{"hot=freq", "cm=count-min"}; !reflect.DeepEqual(got.Specs, want) {
		t.Errorf("two -agg flags: Specs = %q, want %q", got.Specs, want)
	}
}

func TestRegisterFlagsDocumented(t *testing.T) {
	fs := flag.NewFlagSet("aggserve", flag.ContinueOnError)
	RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if f.Usage == "" {
			t.Errorf("-%s has no usage string", f.Name)
		}
	})
}

// TestLatencyFlag: -h prints no negative sentinel for -latency, an
// omitted -latency still means the library default (-1) and -latency 0
// still means flush immediately.
func TestLatencyFlag(t *testing.T) {
	fs := flag.NewFlagSet("aggserve", flag.ContinueOnError)
	RegisterFlags(fs)
	var help strings.Builder
	fs.SetOutput(&help)
	fs.PrintDefaults()
	if strings.Contains(help.String(), "-1ns") {
		t.Errorf("-h shows the unset sentinel:\n%s", help.String())
	}
	if got := parseRunFlags(t).MaxLatency; got != -1 {
		t.Errorf("omitted -latency: MaxLatency = %v, want -1", got)
	}
	if got := parseRunFlags(t, "-latency", "0").MaxLatency; got != 0 {
		t.Errorf("-latency 0: MaxLatency = %v, want 0", got)
	}
}
