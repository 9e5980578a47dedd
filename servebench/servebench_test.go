package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// Short measured phases: long enough for every workload to complete
// requests in each phase, short enough to run all five, traced and not.
const (
	testMeasure = 1500 * time.Millisecond
	testWarmup  = 300 * time.Millisecond
)

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code measures %d by default", bf.RunSeconds, defaultSeconds)
	}
	if want := []string{"servebench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	var names, whys []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantNames, wantWhys []string
	for _, w := range workloads {
		wantNames = append(wantNames, w.name)
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %v differ from the code's %v (names or why text)", names, wantNames)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, code emits %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer = %+v, code emits %+v", bf.PerLayer, perLayer)
	}
}

func TestREADMECarriesEachWhy(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !strings.Contains(string(raw), w.why) {
			t.Errorf("README.md lacks the why of %s: %q", w.name, w.why)
		}
	}
}

// TestWorkloads runs every workload untraced and traced: each run must be
// correct with no failed request, and emit exactly the metrics
// BENCHMARK.json lists for its mode, with their units.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				out, err := run(w, config{seed: 7, measure: testMeasure, warmup: testWarmup, trace: traced}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				r := out.result
				// Under the race detector the fixed rates overload the stack,
				// so refused and dropped requests are expected; wrong answers
				// still fail the run through Correct.
				if !r.Correct || (r.Failed != 0 && !raceEnabled) || r.Attempted == 0 || len(out.problems) > 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%q", r.Correct, r.Attempted, r.Failed, out.problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want positive", d.Name, m.Value)
					}
				}
				if traced {
					checkSpans(t, out.spans)
				}
			})
		}
	}
}

// checkSpans requires a non-empty, well-formed span tree whose non-root
// names are per-layer metric names without their unit suffix.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for i, s := range spans {
		if s.ID != i || s.Parent >= i || s.EndUS < s.StartUS {
			t.Fatalf("malformed span %+v at %d", s, i)
		}
		if s.Parent < 0 {
			continue
		}
		named := false
		for _, d := range perLayer {
			named = named || strings.HasPrefix(d.Name, s.Name+"_")
		}
		if !named {
			t.Errorf("span %q matches no per-layer metric", s.Name)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method against values
// statistics.quantiles([...], n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{3.1, 2.9, 3.0, 3.3}, [3]float64{2.925, 3.05, 3.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.25}
	steady := func(med float64) []float64 {
		return []float64{med * 0.99, med, med * 1.01, med * 0.995, med * 1.005}
	}
	pairs := func(a, b []float64) [][2]float64 {
		var p [][2]float64
		for i := range a {
			p = append(p, [2]float64{a[i], b[i]})
		}
		return p
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(10), steady(10), "PASS"},
		{"within bound", lower, steady(10), steady(12), "PASS"},
		{"slower", lower, steady(10), steady(13), "REGRESSED"},
		{"faster", lower, steady(10), steady(8), "PASS"},
		{"higher is better, drop", higher, steady(100), steady(70), "REGRESSED"},
		{"noisy", lower, []float64{6, 10, 14, 8, 12}, []float64{6, 10, 14, 8, 12}, "UNRESOLVED"},
		{"noisy but all better", lower, []float64{30, 40, 50, 35, 45}, []float64{6, 10, 14, 8, 12}, "PASS"},
	} {
		j := judge(c.d, c.a, c.b, pairs(c.a, c.b))
		if j.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (worse %.3f, spreads %.3f/%.3f)",
				c.name, j.verdict, c.want, j.worse, j.a.spread(), j.b.spread())
		}
	}
}

// TestCompareSets writes two sets of records and checks the table flags the
// regressed metric.
func TestCompareSets(t *testing.T) {
	bf, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		for dir, p50 := range map[string]float64{dirA: 1.0, dirB: 1.3} {
			m := map[string]metric{}
			for _, d := range endToEnd {
				m[d.Name] = metric{Value: 1 + 0.001*float64(seed), Unit: d.Unit}
			}
			m["p50_ms"] = metric{Value: p50 + 0.001*float64(seed), Unit: "ms"}
			rec := record{Workload: "engine-query", Seed: seed, Result: result{Correct: true, Attempted: 1, Metrics: m}}
			if err := writeRecord(dir, rec, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sb strings.Builder
	regressed, err := compareSets(&sb, bf, dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("p50_ms rose 30%% but compare did not report a regression:\n%s", sb.String())
	}
	var verdicts []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "engine-query") {
			f := strings.Fields(line)
			verdicts = append(verdicts, f[1]+"="+f[len(f)-1])
		}
	}
	sort.Strings(verdicts)
	want := []string{"heap_mb=PASS", "p50_ms=REGRESSED", "setup_s=PASS"}
	if !reflect.DeepEqual(verdicts, want) {
		t.Errorf("verdicts %v, want %v\n%s", verdicts, want, sb.String())
	}
}

func TestResultLineShape(t *testing.T) {
	raw, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: map[string]metric{"p50_ms": {1.5, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("result keys %v, want %v", got, want)
	}
}
