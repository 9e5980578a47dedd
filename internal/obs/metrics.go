package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the metrics half of obs: counters, gauges and fixed-bucket
// histograms behind a registry that writes Prometheus text exposition
// format (version 0.0.4). Metric updates are lock-free atomics, safe under
// -race from any number of goroutines; registration is get-or-create, so
// package-level metric vars and repeated Server constructions share one
// instance instead of panicking on a duplicate name.

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The value is a float64
// stored as its IEEE bits; Add uses a CAS loop so concurrent deltas never
// lose updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. A value v
// lands in every bucket whose upper bound is >= v (Prometheus "le"
// semantics: bounds are inclusive); the implicit +Inf bucket equals the
// total observation count.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// ex holds the last exemplar per bucket (one extra slot for +Inf),
	// lazily nil until the first ObserveWithExemplar. Swapped whole, so a
	// scrape never sees a half-written exemplar.
	ex []atomic.Pointer[exemplar]
}

// exemplar ties one observation to the trace that produced it — the
// OpenMetrics mechanism letting a latency alert link straight to a
// retained trace in the flight recorder.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds))
	h.ex = make([]atomic.Pointer[exemplar], len(bounds)+1)
	return h
}

// bucketIdx returns the index of the bucket v lands in (len(bounds) for
// the implicit +Inf bucket).
func (h *Histogram) bucketIdx(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if i := h.bucketIdx(v); i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveWithExemplar records one value and remembers the trace that
// produced it as the exemplar of the bucket the value fell in, exposed by
// WriteOpenMetrics. An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if traceID != "" && h.ex != nil {
		h.ex[h.bucketIdx(v)].Store(&exemplar{
			traceID: traceID,
			value:   v,
			ts:      float64(time.Now().UnixMilli()) / 1000,
		})
	}
	h.Observe(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the bucket the rank falls
// into — the same estimate Prometheus's histogram_quantile gives. Empty
// buckets are skipped: a rank can only land where observations are, so a
// boundary rank (q=0, or exactly a cumulative count) resolves against the
// nearest non-empty bucket, never an empty one's bound. It returns NaN
// for an empty histogram or out-of-range q. Ranks landing in the +Inf
// bucket return the largest finite bound: the histogram does not know how
// far beyond it the observations went.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q < 0 || q > 1 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (b-lower)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// solves to multi-second paper-scale workloads.
var DefBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// kind tags what a family holds, so a name can never be re-registered as
// a different metric type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labeled instance within a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64
}

// family is all series sharing one metric name.
type family struct {
	name       string
	help       string
	kind       kind
	labelNames []string
	bounds     []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Registry holds metric families and writes them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry. The pipeline's standard metrics
// (sweep counters in core, cache counters in query, request metrics in
// httpapi) register here, and molqd's GET /v1/metrics exposes it.
var Default = NewRegistry()

// lookup returns the family for name, creating it on first use. A name
// re-registered with a different kind or label set panics: that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s(%d labels), was %s(%d labels)",
				name, k, len(labelNames), f.kind, len(f.labelNames)))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).get(nil).counter
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).get(nil).gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (uptime, goroutine counts, cache occupancy). The first
// registration of a name wins; later calls are no-ops, so re-constructed
// servers don't stack callbacks.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[""]; ok {
		return
	}
	f.series[""] = &series{fn: fn}
	f.order = append(f.order, "")
}

// Histogram returns the unlabeled histogram registered under name.
// Buckets are ascending upper bounds (+Inf implied); nil uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, nil, buckets).get(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (created on first
// use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family registered under
// name. nil buckets use DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues).hist
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// labelString renders {k="v",...} for the given names and values, with
// extra appended verbatim (used for histogram le labels).
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteString(`"`)
	}
	if extra != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
	return sb.String()
}

// snapshotFamilies returns the families sorted by name.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	return fams
}

// snapshotSeries returns the family's series in creation order.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	sers := make([]*series, len(f.order))
	for i, k := range f.order {
		sers[i] = f.series[k]
	}
	f.mu.Unlock()
	return sers
}

// WriteProm writes every registered family in Prometheus text exposition
// format, families sorted by name and series in creation order, so the
// output is stable enough for golden tests.
func (r *Registry) WriteProm(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		sers := f.snapshotSeries()
		if len(sers) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range sers {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteOpenMetrics writes the registry in OpenMetrics text format
// (application/openmetrics-text). The payload differs from WriteProm in
// three spec-mandated ways: counter families are announced without their
// _total suffix (samples keep it), histogram bucket samples may carry
// exemplars — `# {trace_id="…"} value timestamp` — recorded via
// ObserveWithExemplar, and the stream ends with `# EOF`. Exemplars are
// what let a Prometheus alert on a latency bucket link directly to a
// trace retained in the flight recorder.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		sers := f.snapshotSeries()
		if len(sers) == 0 {
			continue
		}
		famName := f.name
		if f.kind == kindCounter {
			famName = strings.TrimSuffix(famName, "_total")
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", famName, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", famName, f.kind); err != nil {
			return err
		}
		for _, s := range sers {
			if err := writeSeriesOM(w, f, famName, s); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

// exemplarSuffix renders a bucket exemplar, or "" when none was recorded.
func exemplarSuffix(p *atomic.Pointer[exemplar]) string {
	e := p.Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %.3f",
		escapeLabel(e.traceID), formatValue(e.value), e.ts)
}

func writeSeriesOM(w io.Writer, f *family, famName string, s *series) error {
	switch f.kind {
	case kindCounter:
		// OpenMetrics counters require the _total sample suffix.
		_, err := fmt.Fprintf(w, "%s_total%s %d\n", famName, labelString(f.labelNames, s.labelValues, ""), s.counter.Value())
		return err
	case kindGauge, kindGaugeFunc:
		return writeSeries(w, f, s)
	case kindHistogram:
		h := s.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := `le="` + formatValue(b) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
				labelString(f.labelNames, s.labelValues, le), cum, exemplarSuffix(&h.ex[i])); err != nil {
				return err
			}
		}
		count := h.Count()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
			labelString(f.labelNames, s.labelValues, `le="+Inf"`), count, exemplarSuffix(&h.ex[len(h.bounds)])); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, s.labelValues, ""), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, s.labelValues, ""), count)
		return err
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labelNames, s.labelValues, ""), s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labelNames, s.labelValues, ""), formatValue(s.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(s.fn()))
		return err
	case kindHistogram:
		h := s.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := `le="` + formatValue(b) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, le), cum); err != nil {
				return err
			}
		}
		count := h.Count()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, s.labelValues, `le="+Inf"`), count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labelNames, s.labelValues, ""), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labelNames, s.labelValues, ""), count)
		return err
	}
	return nil
}
