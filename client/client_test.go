package client_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"molq/client"
	"molq/internal/httpapi"
	"molq/internal/obs"
)

func newServer(t *testing.T, opts ...httpapi.Option) *client.Client {
	t.Helper()
	ts := httptest.NewServer(httpapi.New(opts...))
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

func sampleTypes() []client.Type {
	return []client.Type{
		{Name: "school", Objects: []client.Object{
			{X: 20, Y: 30, TypeWeight: client.Weight(2)},
			{X: 80, Y: 40, TypeWeight: client.Weight(2)},
		}},
		{Name: "market", Objects: []client.Object{
			{X: 10, Y: 80}, {X: 60, Y: 20},
		}},
	}
}

func TestSolveAndScore(t *testing.T) {
	c := newServer(t)
	ctx := context.Background()
	res, err := c.Solve(ctx, client.SolveRequest{Types: sampleTypes(), Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost <= 0 || res.Method == "" {
		t.Fatalf("solve: %+v", res)
	}
	costs, err := c.Score(ctx, client.ScoreRequest{
		Types:      sampleTypes(),
		Candidates: []client.Point{res.Location, {X: 0, Y: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 2 {
		t.Fatalf("score: %v", costs)
	}
	// The optimum scores (approximately) its own cost and beats the corner.
	if math.Abs(costs[0]-res.Cost) > 1e-3*res.Cost || costs[0] >= costs[1] {
		t.Fatalf("score costs %v vs solve cost %v", costs, res.Cost)
	}
}

func TestEngineLifecycleAndMutations(t *testing.T) {
	c := newServer(t)
	ctx := context.Background()
	info, err := c.CreateEngine(ctx, client.EngineRequest{
		Name: "city", Types: sampleTypes(), Epsilon: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "city" || info.Version != 1 || info.Combinations == 0 {
		t.Fatalf("create: %+v", info)
	}

	// Duplicate create is a typed conflict.
	_, err = c.CreateEngine(ctx, client.EngineRequest{Name: "city", Types: sampleTypes()})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || apiErr.Code != "conflict" {
		t.Fatalf("duplicate create: %v", err)
	}

	got, err := c.Engine(ctx, "city")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "city" || got.Version != 1 {
		t.Fatalf("get: %+v", got)
	}
	list, err := c.Engines(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list: %v %v", list, err)
	}

	one, err := c.Query(ctx, "city", []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := c.QueryBatch(ctx, "city", [][]float64{{1, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch: %+v", batch)
	}
	if math.Abs(batch.Results[0].Cost-one.Cost) > 1e-9*math.Max(1, one.Cost) {
		t.Fatalf("batch[0] %v vs single %v", batch.Results[0].Cost, one.Cost)
	}

	up, err := c.InsertObject(ctx, "city", client.ObjectUpsert{Type: 1, ID: 5, X: 55, Y: 55})
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 2 {
		t.Fatalf("insert: %+v", up)
	}
	up, err = c.DeleteObject(ctx, "city", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 3 {
		t.Fatalf("delete: %+v", up)
	}

	if err := c.DeleteEngine(ctx, "city"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Engine(ctx, "city")
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" || apiErr.RequestID == "" {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestTypedErrorsAndContext(t *testing.T) {
	c := newServer(t)
	ctx := context.Background()

	// Bad request body → typed 400.
	_, err := c.Solve(ctx, client.SolveRequest{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_request" {
		t.Fatalf("empty solve: %v", err)
	}
	if apiErr.IsRetryable() {
		t.Fatal("400 must not be retryable")
	}

	// Unmatched route → mux fallback envelope, still typed.
	if _, err := c.Engine(ctx, "../nope"); err == nil {
		t.Fatal("want error")
	}

	// Canceled context aborts before the server answers.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Solve(canceled, client.SolveRequest{Types: sampleTypes()}); err == nil {
		t.Fatal("canceled context: want error")
	}

	// A deadline long enough to connect but propagated to the server maps
	// cleanly either way: transport timeout or typed 499/504.
	short, cancel2 := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel2()
	if _, err := c.Solve(short, client.SolveRequest{Types: sampleTypes()}); err == nil {
		t.Fatal("expired context: want error")
	}
}

func TestAdmissionShedDecodesTyped(t *testing.T) {
	ts := httptest.NewServer(httpapi.New(httpapi.WithAdmission(1, 0)))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	// Hold the single admission slot deterministically: the solve handler
	// admits before decoding the body, so a request whose body never
	// arrives occupies the slot until we close the pipe. Probing starts only
	// once the holder is admitted; a probe that took the slot first would
	// shed the holder instead.
	before := solveActive(t, ts.URL)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { pw.Close(); <-done }()
	for admitted := time.Now().Add(5 * time.Second); solveActive(t, ts.URL) <= before; {
		select {
		case <-done:
			t.Fatal("the slot-holding request completed before it was admitted")
		default:
		}
		if time.Now().After(admitted) {
			t.Fatal("the slot-holding request was not admitted within 5s")
		}
		time.Sleep(time.Millisecond)
	}

	var apiErr *client.APIError
	shed := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := c.Solve(ctx, client.SolveRequest{Types: sampleTypes(), Epsilon: 1e-6})
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
			shed = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected error while probing: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !shed {
		t.Fatal("slot held but no request was shed")
	}
	if apiErr.Code != "rate_limited" || !apiErr.IsRetryable() {
		t.Fatalf("shed decode: %+v", apiErr)
	}
	if apiErr.RetryAfterSeconds <= 0 {
		t.Fatalf("Retry-After missing: %+v", apiErr)
	}
}

// solveActive reads the molq_solve_active gauge from the server's metrics.
func solveActive(t *testing.T, url string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "molq_solve_active "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("molq_solve_active %q: %v", v, err)
			}
			return f
		}
	}
	t.Fatal("no molq_solve_active gauge in /v1/metrics")
	return 0
}

func TestNonEnvelopeErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "plain text overload", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	_, err := c.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "http_503" {
		t.Fatalf("fallback decode: %+v", apiErr)
	}
	if apiErr.Message != "plain text overload" || apiErr.RetryAfterSeconds != 3 {
		t.Fatalf("fallback fields: %+v", apiErr)
	}
	if !apiErr.IsRetryable() {
		t.Fatal("503 should be retryable")
	}
}

func TestTraceparentPropagation(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(obs.TraceparentHeader)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	parsed, ok := obs.ParseTraceparent(got)
	if !ok || parsed.TraceID != tc.TraceID {
		t.Fatalf("traceparent %q did not carry the caller's trace", got)
	}
}
