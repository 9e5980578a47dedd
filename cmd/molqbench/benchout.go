package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"molq/internal/benchfmt"
	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/geom"
	"molq/internal/mwvd"
	"molq/internal/query"
	"molq/internal/voronoi"
	"molq/internal/weighted"
)

// This file implements -benchout: a fixed microbenchmark suite over the
// Fig-family workloads, run through testing.Benchmark and written as benchfmt
// JSON (ns/op, B/op, allocs/op, plus cache-hit-rate for the cache
// benchmarks). The output is diffable against any earlier run — or against
// raw `go test -bench` text — with cmd/benchdiff, so a committed baseline
// (BENCH_PR2.json) gates performance the same way bench_output.txt does.

// benchSpec is one named benchmark in the suite.
type benchSpec struct {
	name string
	fn   func(b *testing.B)
}

// buildBenchMOVD prepares one basic diagram for the overlap benchmarks
// (mirrors the bench_test.go helper; setup happens outside the timed body).
func buildBenchMOVD(name string, n, ti int, mode core.Mode) (*core.MOVD, error) {
	pts := dataset.Generate(dataset.Config{Seed: int64(ti + 1)}, name, n)
	objs := make([]core.Object, n)
	for i, p := range pts {
		objs[i] = core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1}
	}
	d, err := voronoi.Compute(pts, dataset.DefaultBounds)
	if err != nil {
		return nil, err
	}
	return core.FromVoronoi(d, objs, ti, mode)
}

// benchSuiteInput builds the repeated-solve workload for the cache
// benchmarks: two object sets large enough that diagram generation dominates.
func benchSuiteInput(n int) query.Input {
	cfg := dataset.Config{Seed: 7}
	sets := make([][]core.Object, 2)
	for ti, name := range []string{dataset.STM, dataset.CH} {
		pts := dataset.Generate(cfg, name, n)
		set := make([]core.Object, n)
		for i, p := range pts {
			set[i] = core.Object{
				ID: i, Type: ti, Loc: p,
				TypeWeight: float64(ti + 1), ObjWeight: 1,
			}
		}
		sets[ti] = set
	}
	return query.Input{Sets: sets, Bounds: dataset.DefaultBounds, Epsilon: 1e-3}
}

// benchSuite assembles the suite; quick shrinks the workloads the same way
// -quick shrinks the figure sweeps.
func benchSuite(quick bool) ([]benchSpec, error) {
	overlapN := 2000
	ovrCountN := 4000
	cacheN := 2000
	if quick {
		overlapN, ovrCountN, cacheN = 500, 1000, 200
	}

	var specs []benchSpec
	for _, mc := range []struct {
		label string
		mode  core.Mode
	}{{"RRB", core.RRB}, {"MBRB", core.MBRB}} {
		for _, sz := range []struct {
			fig string
			n   int
		}{{"Fig11_OverlapTwoDiagrams", overlapN}, {"Fig12_OVRCounts", ovrCountN}} {
			x, err := buildBenchMOVD(dataset.STM, sz.n, 0, mc.mode)
			if err != nil {
				return nil, err
			}
			y, err := buildBenchMOVD(dataset.CH, sz.n, 1, mc.mode)
			if err != nil {
				return nil, err
			}
			specs = append(specs, benchSpec{
				name: fmt.Sprintf("Benchmark%s/%s/n=%d", sz.fig, mc.label, sz.n),
				fn: func(b *testing.B) {
					var ovrs int
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						m, _, err := core.Overlap(nil, 1, nil, x, y)
						if err != nil {
							b.Fatal(err)
						}
						ovrs = m.Len()
					}
					b.ReportMetric(float64(ovrs), "OVRs")
				},
			})
			// The sharded sweep at the Fig-11 size, so the SoA kernel work
			// is gated on its own baseline entry, not only via the
			// sequential figure benchmarks.
			if sz.fig == "Fig11_OverlapTwoDiagrams" {
				workers := runtime.GOMAXPROCS(0)
				specs = append(specs, benchSpec{
					name: fmt.Sprintf("BenchmarkOverlapParallel/%s/n=%d/workers=%d", mc.label, sz.n, workers),
					fn: func(b *testing.B) {
						var ovrs int
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							m, _, err := core.Overlap(nil, workers, nil, x, y)
							if err != nil {
								b.Fatal(err)
							}
							ovrs = m.Len()
						}
						b.ReportMetric(float64(ovrs), "OVRs")
					},
				})
			}
		}
	}

	// Repeated-solve pair: cold resets the diagram cache before every solve,
	// warm primes it once and then always hits. Combination pruning is on —
	// the cache stores the pruned diagram, so warm solves skip that work too.
	// The cache-hit-rate metric is computed from the cache's own counters
	// over the timed iterations.
	cold := benchSuiteInput(cacheN)
	cold.PruneOverlap = true
	cold.Cache = query.NewDiagramCache(0)
	specs = append(specs, benchSpec{
		name: fmt.Sprintf("BenchmarkCacheRepeatedSolve/cold/n=%d", cacheN),
		fn: func(b *testing.B) {
			b.ReportAllocs()
			cold.Cache.Reset()
			var phases phaseTotals
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cold.Cache.Reset()
				b.StartTimer()
				res, err := query.Solve(cold, query.RRB)
				if err != nil {
					b.Fatal(err)
				}
				phases.add(res.Stats)
			}
			b.ReportMetric(cold.Cache.Stats().HitRate(), "cache-hit-rate")
			phases.report(b)
		},
	})
	warm := benchSuiteInput(cacheN)
	warm.PruneOverlap = true
	warm.Cache = query.NewDiagramCache(0)
	specs = append(specs, benchSpec{
		name: fmt.Sprintf("BenchmarkCacheRepeatedSolve/warm/n=%d", cacheN),
		fn: func(b *testing.B) {
			b.ReportAllocs()
			warm.Cache.Reset()
			if _, err := query.Solve(warm, query.RRB); err != nil { // prime
				b.Fatal(err)
			}
			hm0 := warm.Cache.Stats()
			var phases phaseTotals
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := query.Solve(warm, query.RRB)
				if err != nil {
					b.Fatal(err)
				}
				phases.add(res.Stats)
			}
			st := warm.Cache.Stats()
			hits, misses := st.Hits-hm0.Hits, st.Misses-hm0.Misses
			b.ReportMetric(float64(hits)/float64(hits+misses), "cache-hit-rate")
			phases.report(b)
		},
	})
	// Batched-query pair: the same 16 weight vectors answered one Query at a
	// time vs one QueryBatch over a prepared engine — the serving-path
	// amortization this suite gates (batch16 must beat seq16).
	engineN := 600
	if quick {
		engineN = 150
	}
	engIn := benchSuiteInput(engineN)
	engIn.Workers = runtime.GOMAXPROCS(0)
	eng, err := query.NewEngine(engIn, query.RRB)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(61))
	vecs := make([][]float64, 16)
	for i := range vecs {
		vecs[i] = []float64{0.5 + 9.5*r.Float64(), 0.5 + 9.5*r.Float64()}
	}
	specs = append(specs,
		benchSpec{
			name: fmt.Sprintf("BenchmarkEngineQueryBatch/seq16/n=%d", engineN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, tw := range vecs {
						if _, err := eng.Query(tw); err != nil {
							b.Fatal(err)
						}
					}
				}
			},
		},
		benchSpec{
			name: fmt.Sprintf("BenchmarkEngineQueryBatch/batch16/n=%d", engineN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.QueryBatch(vecs); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	)
	// Single-vector query on the serving benchmark's engine shape: three
	// clustered paper types of 1,000 objects (~10.5k combinations), one read
	// replica per core. optimize-ns/op isolates the Algorithm-5 scan.
	paperEng, err := paperEngine(1000)
	if err != nil {
		return nil, err
	}
	paperVecs := make([][]float64, 256)
	for i := range paperVecs {
		paperVecs[i] = []float64{0.5 + 9.5*r.Float64(), 0.5 + 9.5*r.Float64(), 0.5 + 9.5*r.Float64()}
	}
	specs = append(specs, benchSpec{
		name: "BenchmarkEngineQuery/paper3x1000",
		fn: func(b *testing.B) {
			var optimize time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := paperEng.Query(paperVecs[i%len(paperVecs)])
				if err != nil {
					b.Fatal(err)
				}
				optimize += res.Stats.OptimizeTime
			}
			b.ReportMetric(float64(optimize.Nanoseconds())/float64(b.N), "optimize-ns/op")
		},
	})
	// Sixteen vectors in one QueryBatch on the same engine shape, pool
	// sized as served (Workers 0): a per-vector O(points) setup would pay
	// for every point of the snapshot sixteen times.
	paperBatch := make([][]float64, 16)
	for i := range paperBatch {
		paperBatch[i] = []float64{0.5 + 9.5*r.Float64(), 0.5 + 9.5*r.Float64(), 0.5 + 9.5*r.Float64()}
	}
	specs = append(specs, benchSpec{
		name: "BenchmarkEngineQueryBatch/batch16/paper3x1000",
		fn: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := paperEng.QueryBatch(paperBatch); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	// Update-vs-rebuild pair at maintenance scale: one insert+delete
	// round-trip on a prepared engine (incremental MOVD repair) against a
	// full Prepare of the same instance. The committed baseline gates the
	// point of the mutable-engine work: an update must stay well over an
	// order of magnitude cheaper than rebuilding.
	updateN := 10000
	if quick {
		updateN = 1000
	}
	updIn := benchSuiteInput(updateN)
	updIn.DisableDiagramCache = true
	updEng, err := query.NewEngine(updIn, query.RRB)
	if err != nil {
		return nil, err
	}
	ur := rand.New(rand.NewSource(73))
	bounds := updIn.Bounds
	nextID := 1 << 20
	specs = append(specs,
		benchSpec{
			name: fmt.Sprintf("BenchmarkEngineUpdate/incremental/n=%d", updateN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				var dirty, incremental int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := nextID
					nextID++
					loc := geom.Pt(
						bounds.Min.X+ur.Float64()*(bounds.Max.X-bounds.Min.X),
						bounds.Min.Y+ur.Float64()*(bounds.Max.Y-bounds.Min.Y),
					)
					ins, err := updEng.InsertObject(core.Object{
						ID: id, Type: 0, Loc: loc, TypeWeight: 1, ObjWeight: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					del, err := updEng.DeleteObject(0, id)
					if err != nil {
						b.Fatal(err)
					}
					dirty += ins.DirtyCells + del.DirtyCells
					if !ins.Rebuilt {
						incremental++
					}
					if !del.Rebuilt {
						incremental++
					}
				}
				// ns/op covers two updates (the insert and the delete); the
				// extra metrics let benchdiff watch repair quality too.
				b.ReportMetric(2, "updates/op")
				b.ReportMetric(float64(dirty)/float64(2*b.N), "dirty-cells/update")
				b.ReportMetric(float64(incremental)/float64(2*b.N), "incremental-rate")
			},
		},
		benchSpec{
			name: fmt.Sprintf("BenchmarkEngineUpdate/rebuild/n=%d", updateN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := query.NewEngine(updIn, query.RRB); err != nil {
						b.Fatal(err)
					}
				}
			},
		},
	)
	// Weighted-prepare pair: the exact O(n²) Apollonius pair construction
	// against the near-linear approximate MWVD refinement over the same
	// weighted site set. Both produce conservative MBRB boxes; the committed
	// baseline gates the approximate path's ns/op like any other benchmark
	// and keeps the exact path honest about its quadratic cost.
	weightedPairN := 10000
	weightedSweep := []int{12500, 50000}
	if quick {
		weightedPairN = 1500
		weightedSweep = []int{4000}
	}
	wsites := weightedBenchSites(weightedPairN)
	specs = append(specs,
		benchSpec{
			name: fmt.Sprintf("BenchmarkWeightedPrepare/exact/n=%d", weightedPairN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					weighted.DominanceMBRs(wsites, dataset.DefaultBounds)
				}
			},
		},
		benchSpec{
			name: fmt.Sprintf("BenchmarkWeightedPrepare/approx/n=%d", weightedPairN),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				var cells int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, st, err := mwvd.ApproxDominanceMBRs(wsites, dataset.DefaultBounds, mwvd.Options{})
					if err != nil {
						b.Fatal(err)
					}
					cells = st.Cells
				}
				b.ReportMetric(float64(cells), "cells")
			},
		},
	)
	// Scale rows: the adaptive task decomposition's target regime. The
	// exact pair construction is Θ(n²) and unrunnable at these sizes, so
	// only the approximate path is benchmarked, with its phase breakdown
	// (kd filter, refinement, accumulator emit) exported as extra metrics
	// for benchdiff. n=10⁶ rides only in full runs — quick keeps the suite
	// fast — and the committed BENCH_PR9.json pins both sizes so the
	// near-linear growth between them is checkable offline.
	weightedScale := []int{100000, 1000000}
	if quick {
		weightedScale = []int{100000}
	}
	for _, n := range weightedScale {
		n := n
		specs = append(specs, benchSpec{
			name: fmt.Sprintf("BenchmarkWeightedPrepare/approx/n=%d", n),
			fn: func(b *testing.B) {
				sites := weightedBenchSites(n)
				b.ReportAllocs()
				var st mwvd.Stats
				var filter, refine, emit time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					_, st, err = mwvd.ApproxDominanceMBRs(sites, dataset.DefaultBounds, mwvd.Options{})
					if err != nil {
						b.Fatal(err)
					}
					filter += st.Phases.Filter
					refine += st.Phases.Refine
					emit += st.Phases.Emit
				}
				b.ReportMetric(float64(filter.Nanoseconds())/float64(b.N), "filter-ns/op")
				b.ReportMetric(float64(refine.Nanoseconds())/float64(b.N), "refine-ns/op")
				b.ReportMetric(float64(emit.Nanoseconds())/float64(b.N), "emit-ns/op")
				b.ReportMetric(float64(st.Cells), "cells")
				b.ReportMetric(float64(st.AccPeak), "acc-peak")
			},
		})
	}
	// Weighted n-sweep through the full MBRB pipeline (automatic routing
	// picks the approximate construction at these sizes). A single weighted
	// type isolates the prepare cost: vd-ns/op is the weighted diagram
	// build, overlap is trivial, optimize is linear. Consecutive sweep sizes
	// in the committed baseline demonstrate near-linear growth.
	for _, n := range weightedSweep {
		in := weightedBenchInput(n)
		in.DisableDiagramCache = true
		specs = append(specs, benchSpec{
			name: fmt.Sprintf("BenchmarkWeightedSolve/MBRB/n=%d", n),
			fn: func(b *testing.B) {
				b.ReportAllocs()
				var phases phaseTotals
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := query.Solve(in, query.MBRB)
					if err != nil {
						b.Fatal(err)
					}
					phases.add(res.Stats)
				}
				phases.report(b)
			},
		})
	}
	return specs, nil
}

// paperEngine prepares the serving benchmark's engine shape: the STM, CH
// and SCH paper types with n clustered objects each, unit weights, and one
// read replica per core as the HTTP engine create configures.
func paperEngine(n int) (*query.Engine, error) {
	names := []string{dataset.STM, dataset.CH, dataset.SCH}
	in := query.Input{
		Sets:                make([][]core.Object, len(names)),
		Bounds:              dataset.DefaultBounds,
		DisableDiagramCache: true,
		Replicas:            runtime.GOMAXPROCS(0),
	}
	for ti, name := range names {
		for i, p := range dataset.Generate(dataset.Config{Seed: 1}, name, n) {
			in.Sets[ti] = append(in.Sets[ti], core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1})
		}
	}
	return query.NewEngine(in, query.RRB)
}

// weightedBenchSites draws one non-uniformly weighted site set for the
// weighted-prepare pair.
func weightedBenchSites(n int) []weighted.Site {
	pts := dataset.Generate(dataset.Config{Seed: 19}, dataset.STM, n)
	r := rand.New(rand.NewSource(43))
	sites := make([]weighted.Site, n)
	for i, p := range pts {
		sites[i] = weighted.Site{P: p, W: 0.5 + 2*r.Float64()}
	}
	return sites
}

// weightedBenchInput is the same workload as weightedBenchSites shaped as a
// one-type pipeline input.
func weightedBenchInput(n int) query.Input {
	pts := dataset.Generate(dataset.Config{Seed: 19}, dataset.STM, n)
	r := rand.New(rand.NewSource(43))
	set := make([]core.Object, n)
	for i, p := range pts {
		set[i] = core.Object{
			ID: i, Type: 0, Loc: p,
			TypeWeight: 1, ObjWeight: 0.5 + 2*r.Float64(),
		}
	}
	return query.Input{Sets: [][]core.Object{set}, Bounds: dataset.DefaultBounds, Epsilon: 1e-3}
}

// phaseTotals accumulates per-phase solve durations across benchmark
// iterations, so the emitted JSON attributes ns/op regressions to the
// responsible Fig-3 module (benchdiff then diffs vd-ns/op, overlap-ns/op
// and optimize-ns/op like any other metric).
type phaseTotals struct {
	vd, overlap, optimize time.Duration
	n                     int
}

func (p *phaseTotals) add(st query.Stats) {
	p.vd += st.VDTime
	p.overlap += st.OverlapTime
	p.optimize += st.OptimizeTime
	p.n++
}

func (p *phaseTotals) report(b *testing.B) {
	if p.n == 0 {
		return
	}
	b.ReportMetric(float64(p.vd.Nanoseconds())/float64(p.n), "vd-ns/op")
	b.ReportMetric(float64(p.overlap.Nanoseconds())/float64(p.n), "overlap-ns/op")
	b.ReportMetric(float64(p.optimize.Nanoseconds())/float64(p.n), "optimize-ns/op")
}

// collectBenchSuite executes the suite and returns its benchfmt results.
// Progress goes to progress when non-nil.
func collectBenchSuite(quick bool, progress io.Writer) ([]benchfmt.Result, error) {
	specs, err := benchSuite(quick)
	if err != nil {
		return nil, err
	}
	results := make([]benchfmt.Result, 0, len(specs))
	for _, spec := range specs {
		if progress != nil {
			fmt.Fprintf(progress, "benchout: running %s\n", spec.name)
		}
		// Collect the garbage the previous spec left behind, so a benchmark's
		// numbers reflect its own allocation behaviour, not its position in
		// the suite.
		runtime.GC()
		r := testing.Benchmark(spec.fn)
		metrics := map[string]float64{
			"ns/op":     float64(r.NsPerOp()),
			"B/op":      float64(r.AllocedBytesPerOp()),
			"allocs/op": float64(r.AllocsPerOp()),
		}
		for unit, v := range r.Extra {
			metrics[unit] = v
		}
		results = append(results, benchfmt.Result{
			Name:       spec.name,
			Iterations: int64(r.N),
			Metrics:    metrics,
		})
	}
	return results, nil
}

// writeBenchJSON writes results as benchfmt JSON to path ("-" for stdout).
func writeBenchJSON(path string, results []benchfmt.Result) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return benchfmt.EncodeJSON(out, results)
}
