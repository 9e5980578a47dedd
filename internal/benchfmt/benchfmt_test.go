package benchfmt

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

const sampleRun = `
goos: linux
goarch: amd64
pkg: molq
BenchmarkFig8/SSC/n=16-8         	    1652	    715032 ns/op	  327848 B/op	    4098 allocs/op
BenchmarkFig8/RRB/n=16-8         	    1420	    843000 ns/op	  388360 B/op	    3433 allocs/op
BenchmarkOverlap/RRB             	      40	  28094116 ns/op	      7454 OVRs	14244744 B/op	   88918 allocs/op
some stray test log line
PASS
ok  	molq	92.4s
`

func TestParse(t *testing.T) {
	res, err := Parse(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("parsed %d results", len(res))
	}
	r := res[0]
	if r.Name != "BenchmarkFig8/SSC/n=16" {
		t.Fatalf("name %q (GOMAXPROCS suffix must be stripped)", r.Name)
	}
	if r.Iterations != 1652 || r.Metrics["ns/op"] != 715032 || r.Metrics["allocs/op"] != 4098 {
		t.Fatalf("metrics %+v", r)
	}
	// Custom metric carried through.
	if res[2].Metrics["OVRs"] != 7454 {
		t.Fatalf("custom metric lost: %+v", res[2])
	}
}

func TestParseDuplicateKeepsLatest(t *testing.T) {
	in := `
BenchmarkX-4 	 10	 100 ns/op
BenchmarkX-4 	 10	 200 ns/op
`
	res, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Metrics["ns/op"] != 200 {
		t.Fatalf("duplicate handling: %+v", res)
	}
}

func TestParseBadValue(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-4 \t 10 \t zork ns/op\n")); err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestCompareAndRegressions(t *testing.T) {
	oldRun, err := Parse(strings.NewReader(`
BenchmarkA-8 	 100	 1000 ns/op	 50 B/op
BenchmarkB-8 	 100	 2000 ns/op
BenchmarkGone-8 	 10	 99 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	newRun, err := Parse(strings.NewReader(`
BenchmarkA-8 	 100	 1500 ns/op	 25 B/op
BenchmarkB-8 	 100	 1900 ns/op
BenchmarkNew-8 	 10	 7 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	deltas := Compare(oldRun, newRun)
	// A has 2 units, B has 1; Gone/New are unmatched.
	if len(deltas) != 3 {
		t.Fatalf("deltas: %+v", deltas)
	}
	// Worst ns/op regression first: A (1.5x) before B (0.95x).
	if deltas[0].Name != "BenchmarkA" {
		t.Fatalf("order: %+v", deltas)
	}
	regs := Regressions(deltas, "", 0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkA" || math.Abs(regs[0].Ratio-1.5) > 1e-12 {
		t.Fatalf("regressions: %+v", regs)
	}
	if got := Regressions(deltas, "B/op", 0.10); len(got) != 0 {
		t.Fatalf("B/op improved, not regressed: %+v", got)
	}
}

// TestRegressionsHigherIsBetter checks throughput-style units gate on drops:
// a qps decrease beyond threshold regresses, an increase never does — the
// mirror image of ns/op.
func TestRegressionsHigherIsBetter(t *testing.T) {
	for _, unit := range []string{"qps", "cache-hit-rate", "MB/s"} {
		if !HigherIsBetter(unit) {
			t.Fatalf("HigherIsBetter(%q) = false", unit)
		}
	}
	for _, unit := range []string{"ns/op", "B/op", "allocs/op", "p99-ms", "vd-ns/op"} {
		if HigherIsBetter(unit) {
			t.Fatalf("HigherIsBetter(%q) = true", unit)
		}
	}

	deltas := []Delta{
		{Name: "BenchmarkLoad/overall", Unit: "qps", Old: 100, New: 80, Ratio: 0.80},
		{Name: "BenchmarkLoad/engine-query", Unit: "qps", Old: 100, New: 150, Ratio: 1.50},
		{Name: "BenchmarkLoad/warm-solve", Unit: "qps", Old: 100, New: 95, Ratio: 0.95},
		{Name: "BenchmarkLoad/overall", Unit: "p99-ms", Old: 10, New: 20, Ratio: 2.0},
	}
	regs := Regressions(deltas, "qps", 0.10)
	if len(regs) != 1 || regs[0].Name != "BenchmarkLoad/overall" {
		t.Fatalf("qps regressions: %+v", regs)
	}
	// Latency on the same deltas still gates on increases.
	regs = Regressions(deltas, "p99-ms", 0.10)
	if len(regs) != 1 || regs[0].Ratio != 2.0 {
		t.Fatalf("p99-ms regressions: %+v", regs)
	}
	// A hit-rate drop within threshold passes.
	hr := []Delta{{Name: "BenchmarkCacheRepeatedSolve/warm", Unit: "cache-hit-rate", Old: 1.0, New: 0.95, Ratio: 0.95}}
	if got := Regressions(hr, "cache-hit-rate", 0.10); len(got) != 0 {
		t.Fatalf("within-threshold drop flagged: %+v", got)
	}
	hr[0].New, hr[0].Ratio = 0.5, 0.5
	if got := Regressions(hr, "cache-hit-rate", 0.10); len(got) != 1 {
		t.Fatalf("hit-rate collapse not flagged: %+v", got)
	}
}

// TestJSONRoundTrip checks EncodeJSON/DecodeJSON preserve results exactly and
// ParseAny sniffs both formats (including leading whitespace before the '[').
func TestJSONRoundTrip(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkA/n=10", Iterations: 1234, Metrics: map[string]float64{
			"ns/op": 456.5, "allocs/op": 7, "cache-hit-rate": 0.875,
		}},
		{Name: "BenchmarkB", Iterations: 1, Metrics: map[string]float64{"ns/op": 9}},
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, results) {
		t.Fatalf("round trip changed results:\n%+v\n%+v", decoded, results)
	}

	sniffed, err := ParseAny(strings.NewReader("\n  " + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sniffed, results) {
		t.Fatalf("ParseAny(json) = %+v", sniffed)
	}

	text, err := ParseAny(strings.NewReader("BenchmarkT-8 \t 50 \t 20 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(text) != 1 || text[0].Name != "BenchmarkT" || text[0].Metrics["ns/op"] != 20 {
		t.Fatalf("ParseAny(text) = %+v", text)
	}

	// JSON and text runs must be comparable against each other.
	deltas := Compare(text, []Result{{Name: "BenchmarkT", Iterations: 50,
		Metrics: map[string]float64{"ns/op": 30}}})
	if len(deltas) != 1 || deltas[0].Ratio != 1.5 {
		t.Fatalf("cross-format compare: %+v", deltas)
	}

	if _, err := DecodeJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	empty, err := ParseAny(strings.NewReader("   \n\t "))
	if err != nil || empty != nil {
		t.Fatalf("whitespace-only input: %v, %+v", err, empty)
	}
}
