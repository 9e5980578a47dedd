package main

import (
	"hash/fnv"
	"runtime"
	"time"
)

// defaultSeconds is how long one run measures unless -seconds says
// otherwise; BENCHMARK.json's run_seconds mirrors it.
const defaultSeconds = 15

// warmupTime is the unrecorded warm-up before any measured phase. A workload
// whose steady-state condition does not hold by then keeps warming up, in
// steps of warmupTime, up to maxWarmup.
const (
	warmupTime = 2 * time.Second
	maxWarmup  = 10 * time.Second
)

// setupRounds is how many set-up rounds setup_s takes the median of, run in
// three equal groups spread over the run.
const setupRounds = 12

// workload is one traffic mix. Rates and sizes are constants of the
// benchmark, not flags: a later change is measured against exactly these.
type workload struct {
	name string
	why  string
	// openRate is the open-loop arrival rate in requests per second; 0 means
	// a closed loop over GOMAXPROCS connections.
	openRate float64
	// replays is how many requests the traced run replays one at a time.
	replays int
	// build generates the workload's inputs from the seed.
	build func(seed int64) (scenario, error)
}

// The open-loop rates sit near a third of the capacity each workload
// reaches with GOMAXPROCS connections on a 2-CPU machine, so the stack's
// service time, not queueing behind a slow stretch of the host, sets the
// latency.
var workloads = []*workload{
	{
		name:     "engine-query",
		why:      "Optimizer-bound read path on a prepared engine: fermat flat drivers, query arenas and replicas, small-body httpapi. No voronoi, core or cache work, so a diagram or cache change must leave it flat.",
		openRate: 800,
		replays:  200,
		build:    func(seed int64) (scenario, error) { return newEngineScenario(seed, modeQuery) },
	},
	{
		name:     "solve",
		why:      "Inline solves where VD build, overlap sweep and large-body decode dominate. 4 in 5 requests miss a cache smaller than the cold stream; 1 in 5 repeat a warm set that fits in it.",
		openRate: 50,
		replays:  64,
		build:    func(seed int64) (scenario, error) { return newSolveScenario(seed, false) },
	},
	{
		name:     "mixed-rw",
		why:      "engine-query reads beside inserts and deletes (voronoi.Dynamic, core splice, version publish, replica refresh), so a write-path change that slows reads, or the reverse, shows here.",
		openRate: 350,
		replays:  200,
		build:    func(seed int64) (scenario, error) { return newEngineScenario(seed, modeMixed) },
	},
	{
		name:     "cluster-query",
		why:      "engine-query's compute behind a shard router with two replicas: decode, scatter, a JSON hop per shard and min-reduce. Its gap to engine-query is the router-hop cost.",
		openRate: 400,
		replays:  200,
		build:    func(seed int64) (scenario, error) { return newEngineScenario(seed, modeCluster) },
	},
	{
		name:     "weighted-solve",
		why:      "The only workload that reaches internal/mwvd: MBRB solves over 4,096 weighted sites, where approximate MWVD refinement dominates and every request misses the cache.",
		openRate: 0,
		replays:  8,
		build:    func(seed int64) (scenario, error) { return newSolveScenario(seed, true) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service sees, reported with tracing
// off. README.md says why failures, tail percentiles and closed-loop
// throughput are recorded per run but carry no bound.
var endToEnd = []metricDef{
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics the traced run reports, one set per layer of the
// serving stack. Times of layers that only some workloads reach are given as
// a share (%) of the replayed requests' round trips, so they read 0 where the
// layer is not on the path.
var perLayer = []metricDef{
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.dispatch_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.round_trip_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.decode_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.encode_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.wire_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.rejected_per_k", Unit: "1/k", Better: "lower"},
	{Name: "query.vd_us", Unit: "us", Better: "lower"},
	{Name: "query.overlap_us", Unit: "us", Better: "lower"},
	{Name: "query.optimize_us", Unit: "us", Better: "lower"},
	{Name: "query.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "query.cache_evictions_per_k", Unit: "1/k", Better: "lower"},
	{Name: "query.update_pct", Unit: "%", Better: "lower"},
	{Name: "query.update_vd_pct", Unit: "%", Better: "lower"},
	{Name: "query.update_splice_pct", Unit: "%", Better: "lower"},
	{Name: "query.update_reindex_pct", Unit: "%", Better: "lower"},
	{Name: "query.update_incremental_rate", Unit: "ratio", Better: "higher"},
	{Name: "query.dirty_cells", Unit: "count", Better: "lower"},
	{Name: "core.sweep_events", Unit: "count", Better: "lower"},
	{Name: "core.candidate_pairs", Unit: "count", Better: "lower"},
	{Name: "core.ovrs", Unit: "count", Better: "lower"},
	{Name: "core.pair_yield", Unit: "ratio", Better: "higher"},
	{Name: "fermat.groups", Unit: "count", Better: "lower"},
	{Name: "fermat.exact_rate", Unit: "ratio", Better: "higher"},
	{Name: "fermat.prefiltered_rate", Unit: "ratio", Better: "higher"},
	{Name: "fermat.iters", Unit: "count", Better: "lower"},
	{Name: "mwvd.filter_pct", Unit: "%", Better: "lower"},
	{Name: "mwvd.refine_pct", Unit: "%", Better: "lower"},
	{Name: "mwvd.emit_pct", Unit: "%", Better: "lower"},
	{Name: "mwvd.cells", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_rtt_pct", Unit: "%", Better: "lower"},
	{Name: "cluster.shard_compute_pct", Unit: "%", Better: "lower"},
	{Name: "cluster.router_pct", Unit: "%", Better: "lower"},
	{Name: "cluster.marshal_pct", Unit: "%", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.stale_refetches", Unit: "count", Better: "lower"},
	{Name: "store.shard_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.write_shard_pct", Unit: "%", Better: "lower"},
	{Name: "store.read_shard_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.gc_per_k", Unit: "1/k", Better: "lower"},
	{Name: "runtime.gc_pause_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// Phase identifiers. Every request input is a pure function of (seed,
// phase, index), and phases never share an index space, so cold requests
// stay cold across phases and the traced repeat of a load phase does not
// replay the untraced one's inputs.
const (
	phSetup = iota
	phReplay
	phInproc // the in-process half of a replayed mutation
	phBand   // mixed-rw's initial inserts
	phMeasure
	phTraced
	phWarm // warm-up step s uses phWarm+s
)

// dataSeed fixes the POI datasets the workloads serve, as a deployment's
// data stays put from one benchmark run to the next. Between seeds the
// clustered model's city layout moves query cost by more than any bound
// could absorb, so -seed drives the traffic instead: weight vectors,
// request order, moved-object offsets and inserted objects.
const dataSeed = 1

// derive mixes a label into the run seed, giving each generated input its
// own deterministic stream.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int64(mix(uint64(seed) ^ h.Sum64()))
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns a deterministic draw in [0, n) for request (ph, i).
func pick(seed int64, ph, i, n int) int {
	return int(mix(uint64(seed)^uint64(ph)<<48^uint64(i)) % uint64(n))
}

// unit returns a deterministic draw in [0, 1) for request (ph, i) and a
// salt distinguishing several draws of one request.
func unit(seed int64, ph, i, salt int) float64 {
	return float64(mix(uint64(seed)^uint64(ph)<<48^uint64(salt)<<40^uint64(i))>>11) / (1 << 53)
}

// conns is the number of client connections: one per CPU the Go runtime
// schedules on.
func conns() int { return runtime.GOMAXPROCS(0) }
