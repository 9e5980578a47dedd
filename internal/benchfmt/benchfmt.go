// Package benchfmt parses `go test -bench` output lines and compares two
// runs, flagging regressions — the tooling behind cmd/benchdiff. Only the
// standard benchmark line format is understood:
//
//	BenchmarkName-8  	 1000	 1234567 ns/op	 456 B/op	 7 allocs/op	 3.14 extra/op
//
// Custom metrics reported via b.ReportMetric are carried through verbatim.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string `json:"name"` // with the -GOMAXPROCS suffix stripped
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value ("ns/op", "B/op", "allocs/op", custom units).
	Metrics map[string]float64 `json:"metrics"`
}

// Parse reads benchmark lines from r, ignoring everything else (test output,
// pkg headers, PASS/ok trailers). Duplicate names keep the later result.
func Parse(r io.Reader) ([]Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []Result
	index := make(map[string]int)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -N GOMAXPROCS suffix.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header line like "BenchmarkX   \t" without data
		}
		res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q in %q", fields[i], line)
			}
			res.Metrics[fields[i+1]] = v
		}
		if j, dup := index[name]; dup {
			out[j] = res
		} else {
			index[name] = len(out)
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeJSON writes results as indented JSON — the machine-readable sibling
// of the text format (cmd/molqbench -benchout emits it, cmd/benchdiff accepts
// it interchangeably with `go test -bench` output).
func EncodeJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// DecodeJSON reads results written by EncodeJSON.
func DecodeJSON(r io.Reader) ([]Result, error) {
	var out []Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("benchfmt: bad JSON: %w", err)
	}
	return out, nil
}

// ParseAny sniffs the input format: a leading '[' means benchfmt JSON,
// anything else is treated as `go test -bench` text. Lets tools accept either
// without a format flag.
func ParseAny(r io.Reader) ([]Result, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return nil, err
		}
		if b == '[' {
			return DecodeJSON(br)
		}
		return Parse(br)
	}
}

// Delta is the comparison of one benchmark across two runs.
type Delta struct {
	Name     string
	Unit     string
	Old, New float64
	// Ratio is New/Old (1 = unchanged, >1 = slower/bigger).
	Ratio float64
}

// Compare joins two parsed runs on benchmark name and reports the per-metric
// ratios for every benchmark present in both, sorted by descending ns/op
// ratio (worst regression first).
func Compare(old, new []Result) []Delta {
	oldBy := make(map[string]Result, len(old))
	for _, r := range old {
		oldBy[r.Name] = r
	}
	var out []Delta
	for _, n := range new {
		o, ok := oldBy[n.Name]
		if !ok {
			continue
		}
		for unit, nv := range n.Metrics {
			ov, ok := o.Metrics[unit]
			if !ok || ov == 0 {
				continue
			}
			out = append(out, Delta{
				Name: n.Name, Unit: unit,
				Old: ov, New: nv, Ratio: nv / ov,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			// Group by worst ns/op regression per name.
			return worstFor(out, out[i].Name) > worstFor(out, out[j].Name)
		}
		return out[i].Unit < out[j].Unit
	})
	return out
}

func worstFor(ds []Delta, name string) float64 {
	worst := 0.0
	for _, d := range ds {
		if d.Name == name && d.Unit == "ns/op" && d.Ratio > worst {
			worst = d.Ratio
		}
	}
	return worst
}

// HigherIsBetter reports the regression direction of a metric unit. For
// most units (latency, bytes, allocations) smaller is better and a ratio
// above 1 regresses; for throughput and effectiveness units — QPS from the
// load harness, codec MB/s, cache hit rates — bigger is better and a ratio
// below 1 regresses.
func HigherIsBetter(unit string) bool {
	switch unit {
	case "qps", "cache-hit-rate", "OVRs", "ops/s", "MB/s":
		return true
	default:
		return false
	}
}

// Regressions filters deltas that moved the wrong way beyond threshold for
// the given unit (default ns/op when unit is empty): Ratio > 1+threshold
// for lower-is-better units, Ratio < 1-threshold for higher-is-better ones
// (see HigherIsBetter).
func Regressions(ds []Delta, unit string, threshold float64) []Delta {
	if unit == "" {
		unit = "ns/op"
	}
	higher := HigherIsBetter(unit)
	var out []Delta
	for _, d := range ds {
		if d.Unit != unit {
			continue
		}
		if higher && d.Ratio < 1-threshold {
			out = append(out, d)
		} else if !higher && d.Ratio > 1+threshold {
			out = append(out, d)
		}
	}
	return out
}
