package httpapi

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"molq/internal/obs"
	"molq/internal/query"
)

// TestTraceparentEchoAndAdoption checks the W3C trace-context middleware:
// a response always advertises a traceparent, and an incoming traceparent's
// trace ID is adopted while the span ID is re-minted for this hop.
func TestTraceparentEchoAndAdoption(t *testing.T) {
	ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fresh, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get(obs.TraceparentHeader))
	}
	if fresh.TraceID.IsZero() || !fresh.Sampled {
		t.Errorf("fresh trace context %+v: want non-zero sampled identity", fresh)
	}

	parent := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echoed, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get(obs.TraceparentHeader))
	}
	if echoed.TraceID != parent.TraceID {
		t.Errorf("trace ID %s not adopted from incoming traceparent %s", echoed.TraceID, parent.TraceID)
	}
	if echoed.SpanID == parent.SpanID || echoed.SpanID.IsZero() {
		t.Errorf("span ID %s: want a fresh server span, parent was %s", echoed.SpanID, parent.SpanID)
	}

	// A malformed traceparent starts a fresh trace instead of propagating
	// garbage.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
	req.Header.Set(obs.TraceparentHeader, "00-zzzz-bad-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); !ok {
		t.Errorf("malformed incoming traceparent: response carries unparseable %q",
			resp.Header.Get(obs.TraceparentHeader))
	}
}

// TestRequestIDValidation checks incoming X-Request-Id values are only
// echoed when they pass the length/charset allowlist; hostile values are
// replaced, closing the log-injection hole.
func TestRequestIDValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name, id string
		honored  bool
	}{
		{"simple", "trace-me-123", true},
		{"uuid", "550e8400-e29b-41d4-a716-446655440000", true},
		{"dotted", "svc.host:req_1", true},
		{"quote", `x"y`, false},
		{"space", "a b", false},
		{"equals", "k=v", false},
		{"too long", strings.Repeat("a", 129), false},
		{"max length", strings.Repeat("a", 128), true},
	}
	// Values net/http refuses to even transmit still must fail the
	// validator — a raw socket could deliver them.
	for _, id := range []string{"evil\nlevel=ERROR msg=forged", "a\rb", "nul\x00", "héllo"} {
		if ValidRequestID(id) {
			t.Errorf("ValidRequestID(%q) = true, want false", id)
		}
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/healthz", nil)
		req.Header["X-Request-Id"] = []string{tc.id}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(requestIDHeader)
		if tc.honored && got != tc.id {
			t.Errorf("%s: valid ID %q replaced with %q", tc.name, tc.id, got)
		}
		if !tc.honored {
			if got == tc.id {
				t.Errorf("%s: hostile ID %q echoed verbatim", tc.name, tc.id)
			}
			if len(got) != 16 || !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
				t.Errorf("%s: replacement %q is not a fresh 16-hex ID", tc.name, got)
			}
		}
	}
}

// TestFlightRecorderRetainsSolves drives solves and engine queries through
// the server and checks /debug/traces lists them with span trees reachable
// by trace ID.
func TestFlightRecorderRetainsSolves(t *testing.T) {
	ts := newTestServer(t)

	body, _ := json.Marshal(SolveRequest{Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes()})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	solveTC, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatal("solve response missing traceparent")
	}

	if resp, body := postJSON(t, ts.URL+"/v1/engines", EngineRequest{
		Name: "tracer", Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes(),
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("engine create: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/engines/tracer/query", EngineQueryRequest{
		TypeWeights: []float64{3, 1},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("engine query: status %d: %s", resp.StatusCode, body)
	}

	lresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing TracesResponse
	err = json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: status %d err %v", lresp.StatusCode, err)
	}
	if listing.Recorder.K == 0 || listing.Recorder.Recorded < 2 {
		t.Fatalf("recorder stats %+v: want K set and >= 2 recorded", listing.Recorder)
	}
	byID := make(map[string]TraceSummaryJSON)
	var engineSeen bool
	for _, sum := range listing.Slowest {
		byID[sum.TraceID] = sum
		if sum.Engine == "tracer" && sum.Route == "POST /v1/engines/{name}/query" {
			engineSeen = true
		}
	}
	if _, ok := byID[solveTC.TraceID.String()]; !ok {
		t.Errorf("solve trace %s not retained; got %+v", solveTC.TraceID, listing.Slowest)
	}
	if !engineSeen {
		t.Errorf("engine query not retained with engine label; got %+v", listing.Slowest)
	}
	// GETs without a solve (healthz, the /debug/traces listing itself) must
	// not pollute the tail sample.
	for _, sum := range listing.Slowest {
		if strings.HasPrefix(sum.Route, "GET ") {
			t.Errorf("non-solve route %q retained", sum.Route)
		}
	}

	// The full trace carries the phase span tree and solve attributes.
	tresp, err := http.Get(ts.URL + "/debug/traces/" + solveTC.TraceID.String())
	if err != nil {
		t.Fatal(err)
	}
	var full obs.RecordedTrace
	err = json.NewDecoder(tresp.Body).Decode(&full)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/{id}: status %d err %v", tresp.StatusCode, err)
	}
	if full.Root == nil || len(full.Root.Children) == 0 {
		t.Fatalf("retained solve trace has no span tree: %+v", full)
	}
	if full.Attrs["groups"] == "" {
		t.Errorf("trace attrs missing groups: %+v", full.Attrs)
	}

	// Unknown IDs get the JSON 404 envelope.
	nresp, err := http.Get(ts.URL + "/debug/traces/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	err = json.NewDecoder(nresp.Body).Decode(&e)
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound || err != nil || e.Error.Code != "not_found" {
		t.Fatalf("unknown trace: status %d code %q err %v", nresp.StatusCode, e.Error.Code, err)
	}
}

// TestFlightRecorderWeightedPrepareSpans drives a solve over a type with
// non-uniform object weights (forcing the approximate weighted diagram) and
// checks the retained trace's span tree carries the weighted prepare phases
// — filter, refine, emit — so slow weighted prepares are diagnosable from
// /debug/traces alone.
func TestFlightRecorderWeightedPrepareSpans(t *testing.T) {
	// A private diagram cache: a warm shared cache would skip the weighted
	// construction, and with it the prepare spans, on a repeated run.
	srv := New()
	srv.cache = query.NewDiagramCache(0)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	types := []TypeJSON{
		{Name: "depot", Objects: []ObjectJSON{
			{X: 20, Y: 30, ObjWeight: fw(2)}, {X: 80, Y: 40, ObjWeight: fw(0.5)},
			{X: 50, Y: 70, ObjWeight: fw(1.5)},
		}},
		{Name: "market", Objects: []ObjectJSON{{X: 10, Y: 80}, {X: 60, Y: 20}}},
	}
	body, _ := json.Marshal(SolveRequest{
		Bounds: &[4]float64{0, 0, 100, 100}, Types: types,
		Method: "mbrb", WeightedEpsilon: 0.2,
	})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted solve: status %d", resp.StatusCode)
	}
	tc, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatal("weighted solve response missing traceparent")
	}

	tresp, err := http.Get(ts.URL + "/debug/traces/" + tc.TraceID.String())
	if err != nil {
		t.Fatal(err)
	}
	var full obs.RecordedTrace
	err = json.NewDecoder(tresp.Body).Decode(&full)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/{id}: status %d err %v", tresp.StatusCode, err)
	}
	seen := map[string]bool{}
	var walk func(*obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s == nil {
			return
		}
		seen[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(full.Root)
	for _, name := range []string{"weighted-filter", "weighted-refine", "weighted-emit"} {
		if !seen[name] {
			names := make([]string, 0, len(seen))
			for n := range seen {
				names = append(names, n)
			}
			t.Errorf("retained weighted solve trace missing %q span; spans seen: %v", name, names)
		}
	}
}

// TestFlightRecorderDisabled checks WithRecorder(nil) turns the endpoints
// into 404s and stops span-tree construction.
func TestFlightRecorderDisabled(t *testing.T) {
	srv := New(WithRecorder(nil))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/traces with recorder disabled: status %d, want 404", resp.StatusCode)
	}
	if srv.tracing() {
		t.Error("tracing() true with recorder disabled")
	}
}

// TestFlightRecorderPinsSheds checks a 429-shed request is pinned in the
// error ring even though it carried no solve.
func TestFlightRecorderPinsSheds(t *testing.T) {
	srv := New(WithAdmission(1, 0))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Hold the only slot, then offer a solve that must shed.
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	if !srv.gate.acquire(r) {
		t.Fatal("could not take the solve slot")
	}
	defer srv.gate.release()

	body, _ := json.Marshal(SolveRequest{Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes()})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	shedTC, _ := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))

	errs := srv.recorder.Errors()
	if len(errs) != 1 || errs[0].Outcome != "shed" {
		t.Fatalf("pinned errors = %+v, want one shed trace", errs)
	}
	if errs[0].TraceID != shedTC.TraceID.String() {
		t.Errorf("pinned trace %s, want the shed request's %s", errs[0].TraceID, shedTC.TraceID)
	}
}

// TestSlowQueryLog checks a solve at or above the threshold emits the WARN
// line with trace ID and phase breakdown, and sub-threshold solves stay
// quiet at WARN.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	srv := New(WithLogger(logger), WithSlowQueryLog(time.Nanosecond)) // everything is slow
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(SolveRequest{Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes()})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tc, _ := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))

	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query line at 1ns threshold:\n%s", out)
	}
	for _, field := range []string{
		"trace_id=" + tc.TraceID.String(), "route=", "duration_ms=",
		"optimize_ms=", "groups=", "cache_", "replica_claimed=",
	} {
		if !strings.Contains(out, field) {
			t.Errorf("slow-query line missing %s:\n%s", field, out)
		}
	}

	// Threshold off: no line even for real solves.
	buf.Reset()
	srv2 := New(WithLogger(logger))
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)
	resp, err = http.Post(ts2.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out := buf.String(); strings.Contains(out, "slow query") {
		t.Errorf("slow-query line without threshold:\n%s", out)
	}
}

// TestMetricsOpenMetricsNegotiation checks /v1/metrics serves OpenMetrics
// with exemplars only when the scrape asks for it.
func TestMetricsOpenMetricsNegotiation(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(WithMetrics(reg))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// One solve so the latency histogram has an exemplar. The histogram
	// lives on obs.Default, not reg — but the go_* runtime gauges are on reg
	// and that's what negotiation serves; exercise both registries.
	body, _ := json.Marshal(SolveRequest{Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes()})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	get := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		return sb.String(), resp.Header.Get("Content-Type")
	}

	plain, ctype := get("")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("plain scrape content type %q", ctype)
	}
	if strings.Contains(plain, "# EOF") || strings.Contains(plain, "trace_id=") {
		t.Errorf("plain 0.0.4 scrape carries OpenMetrics syntax")
	}
	if !strings.Contains(plain, "go_goroutines") {
		t.Errorf("runtime gauges missing from scrape:\n%.400s", plain)
	}

	om, ctype := get("application/openmetrics-text; version=1.0.0")
	if !strings.HasPrefix(ctype, "application/openmetrics-text") {
		t.Errorf("OpenMetrics scrape content type %q", ctype)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated with # EOF")
	}
	if !strings.Contains(om, "go_goroutines") {
		t.Errorf("runtime gauges missing from OpenMetrics scrape")
	}
}

// TestDefaultMetricsExemplar checks the default-registry path end to end:
// after a solve, the process-wide latency histogram's OpenMetrics form has
// a trace_id exemplar matching the response traceparent.
func TestDefaultMetricsExemplar(t *testing.T) {
	ts := newTestServer(t)
	body, _ := json.Marshal(SolveRequest{Bounds: &[4]float64{0, 0, 100, 100}, Types: sampleTypes()})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tc, ok := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatal("solve response missing traceparent")
	}

	// The exemplar is stored by the middleware epilogue, which may still be
	// running when the client has its response; poll briefly.
	want := `trace_id="` + tc.TraceID.String() + `"`
	var last string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
		req.Header.Set("Accept", "application/openmetrics-text")
		mresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := mresp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		mresp.Body.Close()
		last = sb.String()
		if strings.Contains(last, want) {
			return
		}
	}
	t.Errorf("OpenMetrics exposition has no exemplar %s for the solve", want)
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from server handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}
