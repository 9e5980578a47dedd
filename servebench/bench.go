package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"molq/internal/obs"
	"molq/internal/query"
)

// scenario is one workload's inputs, serving stack and answer checks.
type scenario interface {
	// boot starts the serving stack on loopback and returns its base URL.
	boot() (string, error)
	// setupRound runs set-up round k against the booted stack and returns
	// how long it took.
	setupRound(c *conn, k int) (time.Duration, error)
	// prepare readies what the load needs, once, before the warm-up.
	prepare(c *conn) error
	// steady reports whether warm-up reached the workload's steady state.
	steady() bool
	// send issues request i of phase ph and checks what can be checked at
	// once.
	send(c *conn, ph, i int) (string, outcome)
	// verify runs the checks that need the whole run and returns how many
	// wrong answers they found. Facts worth keeping with the run record go
	// into notes.
	verify(c *conn, notes map[string]float64) (int, error)
	// replay sends n requests one at a time, each over HTTP and then
	// in-process through the public calls of each layer. setup is the
	// median set-up round. extra holds per-layer metrics that are not
	// per-request.
	replay(c *conn, n int, setup time.Duration) (items []replayItem, extra map[string]float64, err error)
	// close stops the stack and waits for its goroutines.
	close()
}

// config is one run's settings. Tests shorten measure and warmup through
// it; the command takes measure from -seconds.
type config struct {
	seed    int64
	measure time.Duration
	warmup  time.Duration
	trace   bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcomeOf is everything one run produced: the printed result plus the
// evidence behind it.
type outcomeOf struct {
	result result
	// problems lists failed checks; a run with any is not correct.
	problems []string
	// notes are facts about the run worth keeping with its record, such as
	// sample counts and generator lateness.
	notes map[string]float64
	spans []span
}

// serve starts an HTTP server for h on a loopback port and returns its base
// URL and a stop function that closes it and waits for Serve to return.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stopped
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// run executes one workload: inputs, stack, set-up, warm-up, measured
// phases, checks and, when tracing, the replay. Progress goes to logw.
func run(w *workload, cfg config, logw io.Writer) (outcomeOf, error) {
	var out outcomeOf
	// The cache is process-global; a run starts from an empty one.
	query.DefaultDiagramCache.Reset()
	sc, err := w.build(cfg.seed)
	if err != nil {
		return out, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	runtime.GC()
	heapBase := liveHeap()

	base, err := sc.boot()
	if err != nil {
		return out, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	defer sc.close()
	client := newClient(conns())
	defer client.CloseIdleConnections()
	cs := make([]*conn, conns())
	for i := range cs {
		cs[i] = newConn(client, base)
	}
	t0 := time.Now()

	// The set-up rounds run in three groups, before the warm-up, before the
	// measured phase and after it. The host's speed shifts by tens of percent
	// from one stretch of seconds to the next; the median of three stretches
	// follows the two that agree.
	var setups []float64
	setupGroup := func(g int) error {
		for k := g * setupRounds / 3; k < (g+1)*setupRounds/3; k++ {
			d, err := sc.setupRound(cs[0], k)
			if err != nil {
				return fmt.Errorf("%s: set-up round %d: %w", w.name, k, err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := setupGroup(0); err != nil {
		return out, err
	}
	if err := sc.prepare(cs[0]); err != nil {
		return out, fmt.Errorf("%s: prepare: %w", w.name, err)
	}

	load := func(ph int, d time.Duration, traced bool) phaseStats {
		if w.openRate > 0 {
			return openLoop(cs, w.openRate, d, ph, sc.send, traced, t0)
		}
		return closedLoop(cs, d, ph, sc.send, traced, t0)
	}
	warmStart := time.Now()
	for step := 0; ; step++ {
		load(phWarm+step, cfg.warmup, false)
		if sc.steady() && time.Since(warmStart) >= cfg.warmup {
			break
		}
		if time.Since(warmStart) >= maxWarmup {
			return out, fmt.Errorf("%s: not steady after %v of warm-up", w.name, maxWarmup)
		}
	}
	if err := setupGroup(1); err != nil {
		return out, err
	}

	// first gives the latency metrics; second is a traced run's traced half.
	var first, second phaseStats
	var gcBefore, gcAfter runtime.MemStats
	cacheBefore, evictBefore := query.DefaultDiagramCache.Stats(), evictions().Value()
	runtime.ReadMemStats(&gcBefore)
	heap := startHeapSampler()
	if cfg.trace {
		// The same load twice, untraced then traced: the untraced half gives
		// the generator, runtime and cache metrics, the pair gives the
		// tracing overhead.
		first = load(phMeasure, cfg.measure/2, false)
		runtime.ReadMemStats(&gcAfter)
		second = load(phTraced, cfg.measure/2, true)
	} else {
		first = load(phMeasure, cfg.measure, false)
	}
	heapSamples := heap.finish()
	cacheAfter, evictAfter := query.DefaultDiagramCache.Stats(), evictions().Value()
	phases := []*phaseStats{&first}
	if second.attempted > 0 {
		phases = append(phases, &second)
	}
	if err := setupGroup(2); err != nil {
		return out, err
	}
	setup := median(setups)

	out.notes = map[string]float64{"setup_s": setup}
	found, err := sc.verify(cs[0], out.notes)
	if err != nil {
		out.problems = append(out.problems, err.Error())
	}
	if found > 0 {
		out.result.Failed += found
		out.problems = append(out.problems, fmt.Sprintf("%d wrong answers found by end-of-run checks", found))
	}

	for _, p := range phases {
		out.result.Attempted += p.attempted
		out.result.Failed += p.failed
		fmt.Fprintf(logw, "load: %s: %d ok / %d attempted in %v (%.1f qps; rejected=%d errors=%d dropped=%d)\n",
			w.name, len(p.lat), p.attempted, p.elapsed.Round(time.Millisecond), p.throughput(),
			p.rejected, p.failed, p.dropped)
	}
	for _, p := range phases {
		if p.wrong > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d wrong answers", p.wrong))
		}
	}
	// The record keeps what the bounded metrics leave out: the sample count,
	// the tail and the achieved rate.
	out.notes["samples"] = float64(len(first.lat))
	out.notes["p90_ms"] = quantile(first.lat, 0.90)
	out.notes["p99_ms"] = quantile(first.lat, 0.99)
	out.notes["qps"] = first.throughput()
	late := quantile(first.late, 0.99)
	out.notes["dispatch_late_p99_ms"] = late
	if w.openRate > 0 && late > 1 {
		// Latency is timed from due time either way, so it stays honest; the
		// mark flags a generator that could not keep its schedule.
		fmt.Fprintf(logw, "load: %s: generator lateness p99 %.3f ms exceeds 1 ms; run marked invalid in its record\n", w.name, late)
		out.notes["invalid"] = 1
	}

	if !cfg.trace {
		out.result.Metrics = map[string]metric{
			"p50_ms":  {quantile(first.lat, 0.5), "ms"},
			"heap_mb": {(median(heapSamples) - float64(heapBase)) / 1e6, "MB"},
			"setup_s": {setup, "s"},
		}
		out.result.Correct = len(out.problems) == 0
		return out, nil
	}

	items, extra, err := sc.replay(cs[0], w.replays, time.Duration(setup*float64(time.Second)))
	if err != nil {
		return out, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	layers, problems := layerMetrics(items)
	out.problems = append(out.problems, problems...)
	for _, it := range items {
		if it.rtt > 0 {
			out.result.Attempted++
			if it.o != ok {
				out.result.Failed++
			}
		}
	}
	for k, v := range extra {
		layers[k] = v
	}
	n := float64(first.attempted)
	layers["loadgen.samples"] = float64(len(first.lat))
	layers["loadgen.dispatch_late_p99_ms"] = late
	layers["loadgen.queue_wait_p50_ms"] = quantile(first.wait, 0.5)
	layers["httpapi.rejected_per_k"] = 1000 * float64(first.rejected) / n
	lookups := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Misses - cacheBefore.Misses)
	if lookups > 0 {
		layers["query.cache_hit_rate"] = float64(cacheAfter.Hits-cacheBefore.Hits) / float64(lookups)
	}
	layers["query.cache_evictions_per_k"] = 1000 * float64(evictAfter-evictBefore) / n
	layers["cluster.failovers"] = float64(failovers().Value())
	layers["cluster.stale_refetches"] = float64(staleRefetches().Value())
	gcs, pauseP99 := gcDelta(&gcBefore, &gcAfter)
	layers["runtime.gc_per_k"] = 1000 * float64(gcs) / n
	layers["runtime.gc_pause_p99_ms"] = pauseP99
	untraced, traced := quantile(first.lat, 0.5), quantile(second.lat, 0.5)
	layers["trace.overhead_pct"] = 100 * (traced - untraced) / untraced

	out.result.Metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out.result.Metrics[d.Name] = metric{layers[d.Name], d.Unit}
	}
	replayed := spansOf(items, t0)
	second.spans.merge(&replayed)
	out.spans = second.spans.spans
	out.result.Correct = len(out.problems) == 0
	return out, nil
}

// evictions, failovers and staleRefetches read process-wide counters the
// stack registers in obs.Default (looking a counter up by name returns the
// registered one).
func evictions() *obs.Counter {
	return obs.Default.Counter("molq_diagram_cache_evictions_total", "")
}

func failovers() *obs.Counter {
	return obs.Default.Counter("molq_cluster_failovers_total", "")
}

func staleRefetches() *obs.Counter {
	return obs.Default.Counter("molq_cluster_stale_refetch_total", "")
}

// gcDelta returns the number of collections between two MemStats reads and
// the 99th percentile of their pauses in ms (from the exact pause ring,
// which holds the latest 256).
func gcDelta(before, after *runtime.MemStats) (int, float64) {
	n := after.NumGC - before.NumGC
	pauses := make([]float64, 0, min(n, 256))
	for j := uint32(0); j < min(n, 256); j++ {
		pauses = append(pauses, float64(after.PauseNs[(after.NumGC-1-j)%256])/1e6)
	}
	sort.Float64s(pauses)
	return int(n), quantile(pauses, 0.99)
}

const heapLiveMetric = "/gc/heap/live:bytes"

// liveHeap is the heap the last collection found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler reads the live heap every 10 ms while it runs. The median of
// its samples is the heap the stack holds under load; the peak of them is
// one collection's timing away from the next run's and repeats far worse.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			h.samples = append(h.samples, float64(liveHeap()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}
