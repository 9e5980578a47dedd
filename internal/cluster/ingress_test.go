package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"molq/client"
	"molq/internal/cluster"
	"molq/internal/httpapi"
	"molq/internal/obs"
	"molq/internal/query"
	"molq/internal/store"
)

// TestRouterRequestIDSanitized checks the router applies the node's
// request-ID allowlist: an ID with a newline or a quote is replaced by a
// fresh, valid one instead of being echoed into headers and logs, while a
// well-formed ID passes through.
func TestRouterRequestIDSanitized(t *testing.T) {
	router := cluster.NewRouter()
	for _, id := range []string{"bad\nid", `bad"id`, "ok-id_1.2:3"} {
		req := httptest.NewRequest(http.MethodGet, "/cluster/v1/nodes", nil)
		req.Header[httpapi.RequestIDHeader] = []string{id}
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, req)
		got := rec.Header().Get(httpapi.RequestIDHeader)
		if !httpapi.ValidRequestID(got) {
			t.Fatalf("id %q: router echoed invalid request ID %q", id, got)
		}
		if want := httpapi.ValidRequestID(id); (got == id) != want {
			t.Fatalf("id %q: echoed %q, honored=%t, want honored=%t", id, got, got == id, want)
		}
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRouterBodyCap checks the router caps request bodies like a node does:
// an otherwise valid engine query padded to MaxBodyBytes+1 bytes is refused
// with the standard 400 envelope instead of being read whole.
func TestRouterBodyCap(t *testing.T) {
	router, rsrv, _ := startCluster(t, 1,
		[]cluster.RouterOption{cluster.WithShards(1), cluster.WithHeartbeatTimeout(2 * time.Second)})
	if _, err := client.New(rsrv.URL).CreateEngine(context.Background(), engineReq("capped", 6)); err != nil {
		t.Fatalf("engine create: %v", err)
	}
	query := `{"type_weights":[1,1,1]}`
	body := io.MultiReader(strings.NewReader(query), io.LimitReader(spaces{}, httpapi.MaxBodyBytes+1-int64(len(query))))
	req := httptest.NewRequest(http.MethodPost, "/v1/engines/capped/query", body)
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
	var env struct {
		Error httpapi.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("oversized body: not an error envelope: %q (%v)", rec.Body.String(), err)
	}
}

// TestRouterRequestMetrics checks a router request is counted under its
// route pattern in molq_http_requests_total, like a node's.
func TestRouterRequestMetrics(t *testing.T) {
	router := cluster.NewRouter()
	counter := obs.Default.CounterVec("molq_http_requests_total", "", "route", "class").
		With("GET /cluster/v1/nodes", "2xx")
	before := counter.Value()
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cluster/v1/nodes", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if got := counter.Value(); got != before+1 {
		t.Fatalf("router route counter = %d, want %d", got, before+1)
	}
}

// TestRouterAccessLog checks a router request writes an access-log line
// carrying its request ID and route to the router's logger.
func TestRouterAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	router := cluster.NewRouter(cluster.WithRouterLogger(slog.New(slog.NewTextHandler(&logBuf, nil))))
	req := httptest.NewRequest(http.MethodGet, "/cluster/v1/nodes", nil)
	req.Header.Set(httpapi.RequestIDHeader, "router-log-1")
	router.ServeHTTP(httptest.NewRecorder(), req)
	log := logBuf.String()
	for _, want := range []string{"msg=request", "request_id=router-log-1", `route="GET /cluster/v1/nodes"`} {
		if !strings.Contains(log, want) {
			t.Fatalf("access log missing %q:\n%s", want, log)
		}
	}
}

// TestRouterMetricsOpenMetrics checks the router's /v1/metrics negotiates
// OpenMetrics the way a node's does.
func TestRouterMetricsOpenMetrics(t *testing.T) {
	router := cluster.NewRouter()
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q, want OpenMetrics", ct)
	}
	if !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
		t.Fatalf("OpenMetrics exposition not terminated by # EOF")
	}
}

// shardSnapshot returns a MOVS snapshot of a one-shard engine named name.
func shardSnapshot(t *testing.T, name string) []byte {
	t.Helper()
	types := []httpapi.TypeJSON{
		{Name: "a", Objects: []httpapi.ObjectJSON{{X: 10, Y: 10}, {X: 90, Y: 20}, {X: 40, Y: 80}}},
		{Name: "b", Objects: []httpapi.ObjectJSON{{X: 20, Y: 70}, {X: 70, Y: 60}}},
	}
	in, err := httpapi.BuildInput(types, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := query.NewEngine(in, query.RRB)
	if err != nil {
		t.Fatal(err)
	}
	movd, sets, version := eng.Prepared()
	meta := cluster.ShardMetaFor(name, in, query.RRB, 0, 1, in.Bounds, version, []string{"a", "b"}, sets)
	var buf bytes.Buffer
	if err := store.WriteShard(&buf, meta, movd); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newReplica returns a replica node's handler with shard 0 of engine "e"
// installed through the install route.
func newReplica(t *testing.T) http.Handler {
	t.Helper()
	h := cluster.NewReplicaMux(httpapi.New(), cluster.NewReplica(cluster.NewShardStore()))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/shards",
		bytes.NewReader(shardSnapshot(t, "e"))))
	if rec.Code != http.StatusOK {
		t.Fatalf("install: status %d: %s", rec.Code, rec.Body.String())
	}
	return h
}

// TestReplicaShardQueryIdentity checks a shard query runs through the
// node's request stack: the response echoes the caller's X-Request-Id and
// continues the caller's trace under a fresh server span.
func TestReplicaShardQueryIdentity(t *testing.T) {
	h := newReplica(t)
	parent := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	req := httptest.NewRequest(http.MethodPost, "/cluster/v1/shards/e/0/query",
		strings.NewReader(`{"type_weights":[[1,2]]}`))
	req.Header.Set(httpapi.RequestIDHeader, "shard-req-7")
	req.Header.Set(obs.TraceparentHeader, parent.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("shard query: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(httpapi.RequestIDHeader); got != "shard-req-7" {
		t.Fatalf("echoed request ID %q, want shard-req-7", got)
	}
	tc, ok := obs.ParseTraceparent(rec.Header().Get(obs.TraceparentHeader))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", rec.Header().Get(obs.TraceparentHeader))
	}
	if tc.TraceID != parent.TraceID || tc.SpanID == parent.SpanID {
		t.Fatalf("response trace %s/%s, want trace %s under a new span",
			tc.TraceID, tc.SpanID, parent.TraceID)
	}
}

// TestReplicaShardQueryBodyCap checks shard queries are capped like every
// other capped route: a body past MaxBodyBytes gets the 400 envelope.
func TestReplicaShardQueryBodyCap(t *testing.T) {
	h := newReplica(t)
	body := io.MultiReader(io.LimitReader(spaces{}, httpapi.MaxBodyBytes+1),
		strings.NewReader(`{"type_weights":[[1,2]]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/shards/e/0/query", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized shard query: status %d, want 400", rec.Code)
	}
	var env struct {
		Error httpapi.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "bad_request" {
		t.Fatalf("oversized shard query: not a bad_request envelope: %q (%v)", rec.Body.String(), err)
	}
}

// TestReplicaInstallUncapped checks snapshot install is exempt from the body
// cap: a MOVS stream past MaxBodyBytes is decoded to its end, where its bad
// metadata checksum is reported, instead of being cut off by the cap.
func TestReplicaInstallUncapped(t *testing.T) {
	if testing.Short() {
		t.Skip("streams more than MaxBodyBytes through the shard decoder")
	}
	const objectBytes = 40 // id, type, x, y, type weight, object weight
	n := httpapi.MaxBodyBytes/objectBytes + 1
	le := binary.LittleEndian
	str := func(b []byte, s string) []byte { return append(le.AppendUint32(b, uint32(len(s))), s...) }
	hdr := le.AppendUint16([]byte("MOVS"), 1)
	hdr = str(hdr, "big")
	hdr = le.AppendUint32(hdr, 0) // shard
	hdr = le.AppendUint32(hdr, 1) // shards
	hdr = le.AppendUint64(hdr, 1) // version
	hdr = append(hdr, byte(query.RRB))
	hdr = append(hdr, make([]byte, 2*8+2*4*8)...) // epsilons, strip, bounds
	hdr = le.AppendUint32(hdr, 1)                 // one type
	hdr = str(hdr, "t")
	hdr = append(hdr, 0) // kind
	hdr = le.AppendUint32(hdr, uint32(n))
	body := io.MultiReader(bytes.NewReader(hdr),
		io.LimitReader(spaces{}, int64(n)*objectBytes),
		bytes.NewReader(make([]byte, 4+4))) // replicas, then a zero checksum
	rec := httptest.NewRecorder()
	h := cluster.NewReplicaMux(httpapi.New(), cluster.NewReplica(cluster.NewShardStore()))
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/v1/shards", body))
	if rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "bad shard snapshot") ||
		!strings.Contains(rec.Body.String(), "checksum") {
		t.Fatalf("oversized bad snapshot: status %d: %s, want a 400 checksum error", rec.Code, rec.Body.String())
	}
}
