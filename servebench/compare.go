package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the repository root, which is the
// working directory when run through run.sh and the parent directory when
// run from this package.
func loadBenchmark() (*benchmarkFile, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, errors.Join(errs...)
}

// record is one run as written to the -out directory.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  int                `json:"seconds"`
	Result   result             `json:"result"`
	Problems []string           `json:"problems,omitempty"`
	Notes    map[string]float64 `json:"notes,omitempty"`
}

// readRecords loads the untraced run records of dir, in file-name order.
func readRecords(dir string) ([]record, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []record
	for _, name := range names {
		if strings.HasSuffix(name, ".spans.json") {
			continue
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if r.Workload != "" && !r.Trace {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", dir)
	}
	return out, nil
}

// summary is one set's distribution of one metric.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{q1, med, q3}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// judgement compares set B against set A on one metric.
type judgement struct {
	a, b    summary
	worse   float64 // B's median worse than A's, as a share of A's (negative: better)
	wins    float64 // share of paired runs B wins; ties count for neither side
	pairs   int
	verdict string
}

// judge applies the no-regression rule: B's median may be worse than A's by
// at most the bound; where either set's own spread exceeds the bound the
// metric is UNRESOLVED, unless every run of B beats every run of A.
func judge(d metricDef, a, b []float64, pairs [][2]float64) judgement {
	j := judgement{a: summarize(a), b: summarize(b), pairs: len(pairs)}
	better := func(x, y float64) bool { // x better than y
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	j.worse = (j.b.med - j.a.med) / math.Abs(j.a.med)
	if d.Better == "higher" {
		j.worse = -j.worse
	}
	won := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			won++
		}
	}
	if len(pairs) > 0 {
		j.wins = float64(won) / float64(len(pairs))
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case math.Max(j.a.spread(), j.b.spread()) > d.Bound && !allBetter:
		j.verdict = "UNRESOLVED"
	case j.worse > d.Bound:
		j.verdict = "REGRESSED"
	default:
		j.verdict = "PASS"
	}
	return j
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, B's pairwise win share (runs paired by seed, in
// file order) and the verdict. It reports whether anything regressed.
func compareSets(w io.Writer, bf *benchmarkFile, dirA, dirB string) (bool, error) {
	recA, err := readRecords(dirA)
	if err != nil {
		return false, err
	}
	recB, err := readRecords(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-15s %28s %28s %8s %7s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "B wins", "verdict")
	regressed := false
	for _, wl := range bf.Workloads {
		byA, byB := bySeed(recA, wl.Name), bySeed(recB, wl.Name)
		if len(byA) == 0 || len(byB) == 0 {
			fmt.Fprintf(w, "%-15s (runs missing: A %d, B %d)\n", wl.Name, count(byA), count(byB))
			continue
		}
		for _, d := range bf.EndToEnd {
			var a, b []float64
			var pairs [][2]float64
			for seed, ra := range byA {
				for k, r := range ra {
					a = append(a, r.Result.Metrics[d.Name].Value)
					if rb := byB[seed]; k < len(rb) {
						pairs = append(pairs, [2]float64{r.Result.Metrics[d.Name].Value, rb[k].Result.Metrics[d.Name].Value})
					}
				}
			}
			for _, rb := range byB {
				for _, r := range rb {
					b = append(b, r.Result.Metrics[d.Name].Value)
				}
			}
			j := judge(d, a, b, pairs)
			regressed = regressed || j.verdict == "REGRESSED"
			fmt.Fprintf(w, "%-15s %-15s %28s %28s %+7.1f%% %3d/%-3d  %s\n",
				wl.Name, d.Name, j.a.String(), j.b.String(), 100*j.worse*sign(d),
				int(math.Round(j.wins*float64(j.pairs))), j.pairs, j.verdict)
		}
	}
	return regressed, nil
}

// sign turns a "worse" share back into the metric's own direction of change.
func sign(d metricDef) float64 {
	if d.Better == "higher" {
		return -1
	}
	return 1
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.med, s.q1, s.q3)
}

func bySeed(rs []record, workload string) map[int64][]record {
	out := map[int64][]record{}
	for _, r := range rs {
		if r.Workload == workload {
			out[r.Seed] = append(out[r.Seed], r)
		}
	}
	return out
}

func count(m map[int64][]record) int {
	n := 0
	for _, rs := range m {
		n += len(rs)
	}
	return n
}
