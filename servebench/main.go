// Command servebench is the serving benchmark of the MOLQ stack. Each
// workload boots the real serving stack in-process on loopback — an
// httpapi.Server behind admission control, or a cluster.Router with two
// replicas — drives it over HTTP from the same process with at most
// GOMAXPROCS client connections, checks every answer, and prints every
// metric by name with its unit, as one JSON object on the last line of
// standard output:
//
//	{"correct":true,"attempted":12000,"failed":0,"metrics":{"p50_ms":{"value":0.91,"unit":"ms"},…}}
//
// Usage, from the repository root:
//
//	bash servebench/run.sh -workload NAME|all [-seed N] [-seconds S] [-trace 0|1]
//	bash servebench/run.sh -compare DIR_A DIR_B
//
// run.sh builds the command into .bench_build and passes its arguments on;
// from this directory, go run . takes the same flags.
//
// The workloads are engine-query, solve, mixed-rw, cluster-query and
// weighted-solve; README.md says why each exists. A run generates every
// request from -seed, boots the stack, warms up until the workload is
// steady, and then measures for -seconds: an open loop at the workload's
// fixed arrival rate, each request timed from its due time (weighted-solve:
// a closed loop over GOMAXPROCS connections). It reports p50_ms, heap_mb
// (the median live heap under load above the generator's inputs) and
// setup_s (the median of twelve timed set-up rounds in three groups across
// the run); the run record adds p90, p99 and the achieved rate.
//
// With -trace 1 the run reports per-layer metrics instead: it runs the load
// phase untraced and then traced (spans per request), and afterwards
// replays sampled requests one at a time, each over HTTP and in-process
// through the public calls of every layer. Spans are kept in memory and
// written once, at exit, next to the run record in -out.
//
// -workload all re-executes the command once per workload, so that each
// runs in its own process: the diagram cache and the metrics registry are
// process-global. -compare reads the run records two sets of runs wrote to
// -out and judges every workload × end-to-end metric against the bounds in
// BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for run records and spans")
		compare = flag.Bool("compare", false, "compare two directories of run records: -compare DIR_A DIR_B")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "servebench: -compare needs two directories")
			os.Exit(2)
		}
		bf, err := loadBenchmark()
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			os.Exit(1)
		}
		regressed, err := compareSets(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(3)
		}
		return
	case *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0:
		flag.Usage()
		os.Exit(2)
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (known: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		warmup:  warmupTime,
		trace:   *trace == 1,
	}
	res, err := run(w, cfg, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "servebench: %s: check failed: %s\n", w.name, p)
	}
	rec := record{
		Workload: w.name, Seed: *seed, Trace: cfg.trace, Seconds: *seconds,
		Result: res.result, Problems: res.problems, Notes: res.notes,
	}
	if err := writeRecord(*out, rec, res.spans); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// writeRecord stores the run record, and the spans of a traced run, in dir.
func writeRecord(dir string, rec record, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-%s", rec.Workload, rec.Seed, time.Now().UTC().Format("20060102T150405.000000000"))
	if rec.Trace {
		base += "-trace"
	}
	if err := writeJSON(filepath.Join(dir, base+".json"), rec); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, base+".spans.json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{rec.Workload, rec.Seed, spans})
}

func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own and prints each
// one's result line after its name. It fails when a child fails, reports a
// failed request or an incorrect answer.
func runAll(seed int64, seconds, trace int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		var stdout bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		line := lastLine(stdout.Bytes())
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: %s: bad result line: %v\n", w.name, err)
			status = 1
			continue
		}
		if !r.Correct || r.Failed > 0 {
			status = 1
		}
		fmt.Printf("%s %s\n", w.name, line)
	}
	return status
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}
