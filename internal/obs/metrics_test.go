package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines; run under -race this doubles as the data-race check.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Errorf("gauge = %g, want %g", got, want)
	}
}

// TestHistogramConcurrent checks observation counts and sums survive
// concurrent Observe calls.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test histogram", []float64{1, 2})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), 1.5*workers*perWorker; got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

// TestHistogramBuckets pins the le semantics: bounds are inclusive upper
// bounds, buckets are cumulative, +Inf equals the total count.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	// le=1: 0.5, 1 → 2; le=2: +1.5, 2 → 4; le=5: +3 → 5; +Inf: 6.
	got := int64(0)
	for i, want := range []int64{2, 4, 5} {
		if got += h.counts[i].Load(); got != want {
			t.Errorf("bucket %d cumulative = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 18 {
		t.Errorf("sum = %g, want 18", got)
	}
}

// TestHistogramQuantile pins the interpolation: uniform observations over
// [0,10) in buckets {1..10} put the q-quantile at ≈ 10q, empty histograms
// answer NaN, and ranks beyond the last bound clamp to it.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "quantile test", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram should answer NaN")
	}
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 100) // uniform over [0, 10)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 9.5}, {0.99, 9.9}, {1, 10},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 0.15 {
			t.Errorf("Quantile(%g) = %g, want ≈ %g", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(h.Quantile(-0.1)) || !math.IsNaN(h.Quantile(1.1)) {
		t.Error("out-of-range q should answer NaN")
	}
	// Observations beyond every bound: the quantile clamps to the last one.
	h2 := r.Histogram("q2", "overflow test", []float64{1, 2})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflowed histogram Quantile = %g, want clamp to 2", got)
	}
}

// TestHistogramQuantileBoundaries pins the edge cases: ranks landing
// exactly on a bucket edge, q=0 and q=1, empty leading/middle buckets, and
// observations in the implicit +Inf bucket. Empty buckets must be skipped
// — a rank can only resolve against a bucket that holds observations.
func TestHistogramQuantileBoundaries(t *testing.T) {
	bounds := []float64{1, 2, 3}
	for _, tc := range []struct {
		name string
		obs  []float64
		q    float64
		want float64
	}{
		// All observations in the third bucket: every quantile must
		// interpolate inside (2,3], never touch the empty buckets below.
		{"leading empty q=0", []float64{2.5, 2.5, 2.5, 2.5}, 0, 2},
		{"leading empty q=0.5", []float64{2.5, 2.5, 2.5, 2.5}, 0.5, 2.5},
		{"leading empty q=1", []float64{2.5, 2.5, 2.5, 2.5}, 1, 3},
		// Rank exactly on the edge between buckets 1 and 3 (bucket 2 empty):
		// rank 2 of 4 is satisfied by the first bucket, at its upper bound.
		{"edge rank across gap", []float64{0.5, 0.5, 2.5, 2.5}, 0.5, 1},
		// Rank just past the edge lands in the third bucket's lower half.
		{"past edge across gap", []float64{0.5, 0.5, 2.5, 2.5}, 0.75, 2.5},
		// q=0 with a non-empty first bucket interpolates from zero.
		{"q=0 first bucket", []float64{0.5, 0.5}, 0, 0},
		// Everything beyond the last bound: any rank lands in the +Inf
		// bucket and answers the largest finite bound, not bounds[0].
		{"all +Inf q=0", []float64{99, 99}, 0, 3},
		{"all +Inf q=1", []float64{99, 99}, 1, 3},
		// q=1 with the top half in +Inf still clamps to the last bound.
		{"half +Inf q=1", []float64{0.5, 0.5, 99, 99}, 1, 3},
		// ...while ranks inside the finite buckets are unaffected by +Inf.
		{"half +Inf q=0.5", []float64{0.5, 0.5, 99, 99}, 0.5, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
			for _, v := range tc.obs {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
			}
		})
	}
}

// TestGetOrCreate pins the registration contract: same name returns the
// same instance; a kind mismatch panics.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Error("re-registering a counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

// TestPromExposition is the golden test for the text format.
func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("molq_things_total", "things processed")
	c.Add(42)
	g := r.Gauge("molq_level", "current level")
	g.Set(2.5)
	v := r.CounterVec("molq_reqs_total", "requests", "route", "class")
	v.With("GET /v1/solve", "2xx").Add(3)
	v.With(`we"ird`, "5xx").Inc()
	h := r.Histogram("molq_lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP molq_lat_seconds latency
# TYPE molq_lat_seconds histogram
molq_lat_seconds_bucket{le="0.1"} 1
molq_lat_seconds_bucket{le="1"} 2
molq_lat_seconds_bucket{le="+Inf"} 3
molq_lat_seconds_sum 3.55
molq_lat_seconds_count 3
# HELP molq_level current level
# TYPE molq_level gauge
molq_level 2.5
# HELP molq_reqs_total requests
# TYPE molq_reqs_total counter
molq_reqs_total{route="GET /v1/solve",class="2xx"} 3
molq_reqs_total{route="we\"ird",class="5xx"} 1
# HELP molq_things_total things processed
# TYPE molq_things_total counter
molq_things_total 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGaugeFunc checks callback gauges appear in the exposition and that
// re-registration keeps the first callback.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("molq_up", "uptime", func() float64 { return 7 })
	r.GaugeFunc("molq_up", "uptime", func() float64 { return 99 })
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "molq_up 7\n") {
		t.Errorf("exposition missing first-registered gauge func value:\n%s", sb.String())
	}
}
