package httpapi

// Flight-recorder and slow-query-log wiring: the request stack calls
// finishRequest after every response, which (a) offers the completed
// request to the server's obs.Recorder — tail-sampling the slowest
// solve-bearing requests per route+engine and pinning every
// errored/panicked/429-shed one — and (b) emits the threshold-gated
// slow-query slog line. Retained traces are served read-only at:
//
//	GET /debug/traces       — recorder stats + slowest/pinned summaries
//	GET /debug/traces/{id}  — one full trace: phase span tree + attributes
//
// Handlers that run the solve pipeline deposit their Result stats (and the
// span tree) into a per-request traceSlot via noteSolve, so the stack
// has the domain context — engine, phase breakdown, cache and replica
// outcomes — the recorder and the slow-query line both need.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"molq/internal/obs"
	"molq/internal/query"
)

// traceSlot carries solve context from a handler back to the stack.
// A request runs on one goroutine, and the stack reads the slot only
// after the handler returns, so no locking is needed.
type traceSlot struct {
	solved bool
	engine string // "" for one-shot solves
	batch  int    // batch size (0: single query)
	stats  query.Stats
}

type traceSlotKey struct{}

func withTraceSlot(ctx context.Context, slot *traceSlot) context.Context {
	return context.WithValue(ctx, traceSlotKey{}, slot)
}

// noteSolve deposits a completed solve's stats into the request's trace
// slot. Safe to call from handlers running outside the stack (tests
// hitting handlers directly): it is then a no-op.
func noteSolve(r *http.Request, engine string, batch int, stats query.Stats) {
	if slot, ok := r.Context().Value(traceSlotKey{}).(*traceSlot); ok {
		slot.solved = true
		slot.engine = engine
		slot.batch = batch
		slot.stats = stats
	}
}

// tracing reports whether solve handlers should build span trees: the
// flight recorder needs every candidate trace recorded up front, because
// which requests turn out to be tail outliers is only known at completion.
func (s *Server) tracing() bool { return s.recorder != nil }

// finishRequest is the stack's epilogue: slow-query log plus recorder.
func (s *stack) finishRequest(route, reqID string, tc obs.TraceContext, status int, panicked bool, start time.Time, elapsed time.Duration, slot *traceSlot) {
	outcome := "ok"
	switch {
	case panicked:
		outcome = "panic"
	case status == http.StatusTooManyRequests:
		outcome = "shed"
	case status >= 500:
		outcome = "error"
	}

	if s.slowQuery > 0 && slot.solved && elapsed >= s.slowQuery {
		st := &slot.stats
		s.log.Warn("slow query",
			"trace_id", tc.TraceID.String(),
			"request_id", reqID,
			"route", route,
			"engine", slot.engine,
			"batch", slot.batch,
			"duration_ms", ms(elapsed),
			"vd_ms", ms(st.VDTime),
			"overlap_ms", ms(st.OverlapTime),
			"optimize_ms", ms(st.OptimizeTime),
			"groups", st.Groups,
			"ovrs", st.OVRs,
			"cache_hits", st.Cache.Hits,
			"cache_misses", st.Cache.Misses,
			"cache_coalesced", st.Cache.Coalesced,
			"replica_claimed", st.ReplicaClaimed,
		)
	}

	if s.recorder == nil {
		return
	}
	// Tail-sample only requests that carried a solve (they have span trees
	// and a meaningful duration distribution); errors, panics and sheds are
	// pinned whatever the route.
	if outcome == "ok" && !slot.solved {
		return
	}
	rt := &obs.RecordedTrace{
		TraceID:    tc.TraceID.String(),
		RequestID:  reqID,
		Route:      route,
		Status:     status,
		Outcome:    outcome,
		Start:      start,
		DurationUS: elapsed.Microseconds(),
	}
	if slot.solved {
		st := &slot.stats
		rt.Engine = slot.engine
		rt.SetRoot(st.Trace)
		rt.Attrs = map[string]string{
			"groups": strconv.Itoa(st.Groups),
			"ovrs":   strconv.Itoa(st.OVRs),
		}
		if st.VDTime > 0 || st.OverlapTime > 0 {
			rt.Attrs["vd_us"] = strconv.FormatInt(st.VDTime.Microseconds(), 10)
			rt.Attrs["overlap_us"] = strconv.FormatInt(st.OverlapTime.Microseconds(), 10)
		}
		rt.Attrs["optimize_us"] = strconv.FormatInt(st.OptimizeTime.Microseconds(), 10)
		if st.Cache.Hits+st.Cache.Misses+st.Cache.Coalesced > 0 {
			rt.Attrs["cache_hits"] = strconv.Itoa(st.Cache.Hits)
			rt.Attrs["cache_misses"] = strconv.Itoa(st.Cache.Misses)
			rt.Attrs["cache_coalesced"] = strconv.Itoa(st.Cache.Coalesced)
		}
		if slot.engine != "" {
			rt.Attrs["replica_claimed"] = strconv.FormatBool(st.ReplicaClaimed)
		}
		if slot.batch > 0 {
			rt.Attrs["batch"] = strconv.Itoa(slot.batch)
		}
	}
	s.recorder.Record(rt)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// TraceSummaryJSON is one retained trace in the GET /debug/traces listing
// (the span tree is omitted; fetch /debug/traces/{id} for the full tree).
type TraceSummaryJSON struct {
	TraceID    string    `json:"trace_id"`
	RequestID  string    `json:"request_id,omitempty"`
	Route      string    `json:"route"`
	Engine     string    `json:"engine,omitempty"`
	Status     int       `json:"status,omitempty"`
	Outcome    string    `json:"outcome"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
}

// TracesResponse is the body of GET /debug/traces.
type TracesResponse struct {
	Recorder obs.RecorderStats  `json:"recorder"`
	Slowest  []TraceSummaryJSON `json:"slowest"`
	Errors   []TraceSummaryJSON `json:"errors"`
}

func summarize(ts []*obs.RecordedTrace) []TraceSummaryJSON {
	out := make([]TraceSummaryJSON, len(ts))
	for i, t := range ts {
		out[i] = TraceSummaryJSON{
			TraceID:    t.TraceID,
			RequestID:  t.RequestID,
			Route:      t.Route,
			Engine:     t.Engine,
			Status:     t.Status,
			Outcome:    t.Outcome,
			Start:      t.Start,
			DurationUS: t.DurationUS,
		}
	}
	return out
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.recorder == nil {
		writeErr(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	WriteJSON(w, http.StatusOK, TracesResponse{
		Recorder: s.recorder.Stats(),
		Slowest:  summarize(s.recorder.Slowest()),
		Errors:   summarize(s.recorder.Errors()),
	})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeErr(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	id := r.PathValue("id")
	t, ok := s.recorder.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "trace %q not retained (evicted, expired, or never recorded)", id)
		return
	}
	WriteJSON(w, http.StatusOK, t)
}

// Flush emits a final flight-recorder summary to the structured log — the
// shutdown path calls it so the last retained outliers are on record even
// though the process is going away. A no-op without a recorder.
func (s *Server) Flush() {
	if s.recorder == nil {
		return
	}
	st := s.recorder.Stats()
	attrs := []any{
		"recorded", st.Recorded,
		"retained", st.Retained,
		"errors", st.Errors,
		"rejected", st.Rejected,
	}
	if slowest := s.recorder.Slowest(); len(slowest) > 0 {
		t := slowest[0]
		attrs = append(attrs,
			"slowest_trace_id", t.TraceID,
			"slowest_route", t.Route,
			"slowest_ms", float64(t.DurationUS)/1000)
	}
	s.log.Info("flight recorder summary", attrs...)
}
