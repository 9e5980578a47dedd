package httpapi

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	"molq/internal/obs"
)

// This file is the request stack every molqd role serves through: a
// node's v1 routes, a replica's /cluster/v1 shard routes (registered on the
// node's own mux) and the cluster router (via Wrap). Outermost first:
//
//	body cap + request ID + trace context → panic recovery → metrics + access log → JSON 404/405 → mux
//
// Every request body is capped at MaxBodyBytes unless its route handler is
// marked Uncapped. Every request gets an X-Request-Id (incoming IDs are
// honored — after validation — so traces correlate across services) and a
// W3C trace context: an incoming `traceparent` header is parsed and its
// trace ID adopted, a fresh server span ID is minted, and the resulting
// identity is echoed on the response `traceparent` header, threaded
// through the request context into the solve pipeline's span tree (and
// onward to replicas on a router), stamped on the access-log line, and
// used to index the flight recorder — one ID correlates all four. Each
// request also gets a per-route latency observation (with the trace ID as
// the bucket's OpenMetrics exemplar), a request counter by route and
// status class, and a structured access-log line. A handler panic is
// logged with its stack and answered with a JSON 500 instead of killing
// the daemon (net/http would only kill the goroutine, but the client would
// see a torn connection and nothing would be logged). After the response
// is written, the completed request is offered to the flight recorder and
// the slow-query log (flightrecorder.go), which only a Server enables.

// Request metrics on the process-wide registry. Routes are the ServeMux
// patterns (bounded cardinality — path wildcards like {name} are not
// expanded), plus "unmatched" for requests no pattern accepts.
var (
	httpRequests = obs.Default.CounterVec("molq_http_requests_total",
		"HTTP requests served, by route pattern and status class",
		"route", "class")
	httpLatency = obs.Default.HistogramVec("molq_http_request_seconds",
		"HTTP request latency in seconds, by route pattern", nil,
		"route")
	httpInflight = obs.Default.Gauge("molq_http_inflight_requests",
		"HTTP requests currently being served")
	httpPanics = obs.Default.Counter("molq_http_panics_total",
		"handler panics recovered by the middleware")
)

// requestIDHeader is both the request and response header carrying the ID.
const requestIDHeader = "X-Request-Id"

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// fallbackWriter rewrites the plain-text 404/405 bodies net/http's ServeMux
// emits for unmatched routes and disallowed methods into the standard JSON
// error envelope, so EVERY error of the API — mux-level included — carries
// {"error":{"code","message","request_id"}}. Responses our own handlers
// write (Content-Type application/json) pass through untouched.
type fallbackWriter struct {
	http.ResponseWriter
	// intercepted means the envelope was already written and the original
	// text body must be swallowed.
	intercepted bool
}

func (f *fallbackWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(f.Header().Get("Content-Type"), "application/json") {
		f.intercepted = true
		f.Header().Set("Content-Type", "application/json")
		f.Header().Del("Content-Length")
		f.ResponseWriter.WriteHeader(code)
		msg := "not found"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		body, _ := json.Marshal(errorResponse{Error: ErrorBody{
			Code:      errCode(code),
			Message:   msg,
			RequestID: f.Header().Get(requestIDHeader),
		}})
		_, _ = f.ResponseWriter.Write(append(body, '\n'))
		return
	}
	f.ResponseWriter.WriteHeader(code)
}

func (f *fallbackWriter) Write(b []byte) (int, error) {
	if f.intercepted {
		// Report success so the mux believes its text body was sent.
		return len(b), nil
	}
	return f.ResponseWriter.Write(b)
}

// newRequestID returns 16 hex characters of crypto randomness — unique
// enough to correlate logs, cheap enough for every request.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// maxRequestIDLen caps honored client request IDs; anything longer is
// replaced (128 covers every sane ID scheme, UUIDs included).
const maxRequestIDLen = 128

// ValidRequestID reports whether an incoming X-Request-Id is safe to echo
// into response headers and slog lines: bounded length and a conservative
// charset (alphanumerics plus ._:-). Anything else — control characters,
// quotes, '=', newlines — is a log-injection vector when reflected
// verbatim, so the stack regenerates instead of honoring it.
func ValidRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// statusClass buckets a status code for the request counter ("2xx"…).
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// MaxBodyBytes caps request bodies (64 MiB covers hundreds of thousands of
// POIs; anything larger should arrive via the CLI's file loaders).
const MaxBodyBytes = 64 << 20

// Uncapped marks a route handler exempt from MaxBodyBytes. Only the shard
// install route uses it: a strip snapshot carries every object set of its
// engine plus the strip's diagram, several times the engine-create body it
// was cut from, and store.ReadShard bounds what it decodes.
type Uncapped http.HandlerFunc

// ServeHTTP implements http.Handler.
func (f Uncapped) ServeHTTP(w http.ResponseWriter, r *http.Request) { f(w, r) }

// stack is the request stack described above, serving the routes of h.
type stack struct {
	h *http.ServeMux
	// log receives structured access and error records.
	log *slog.Logger
	// recorder tail-samples completed request traces for /debug/traces
	// (nil: flight recorder disabled, handlers skip building span trees).
	recorder *obs.Recorder
	// slowQuery is the slow-query-log threshold (0: disabled). Solve-bearing
	// requests at or above it emit a WARN line with the phase breakdown.
	slowQuery time.Duration
}

// Wrap serves mux through the request stack, logging to log, with the
// flight recorder and slow-query log off. The cluster router serves its
// routes through it, so router, replica and node share one ingress.
func Wrap(mux *http.ServeMux, log *slog.Logger) http.Handler {
	return &stack{h: mux, log: log}
}

// ServeHTTP implements http.Handler.
func (s *stack) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := r.Header.Get(requestIDHeader)
	if !ValidRequestID(reqID) {
		reqID = newRequestID()
	}
	w.Header().Set(requestIDHeader, reqID)

	// Trace identity: adopt an incoming traceparent's trace ID (so a
	// caller's trace continues through this hop), mint the server span,
	// and advertise both on the response so the client can quote the
	// exact trace the flight recorder retained.
	tc := obs.TraceContext{Sampled: true}
	if parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		tc.TraceID = parent.TraceID
	} else {
		tc.TraceID = obs.NewTraceID()
	}
	tc.SpanID = obs.NewSpanID()
	w.Header().Set(obs.TraceparentHeader, tc.Traceparent())
	slot := &traceSlot{}
	r = r.WithContext(withTraceSlot(obs.ContextWithTrace(r.Context(), tc), slot))

	// The route label is the matched ServeMux pattern, resolved before
	// serving so the label is available even if the handler panics.
	route := "unmatched"
	h, pattern := s.h.Handler(r)
	if pattern != "" {
		route = pattern
	}
	if _, uncapped := h.(Uncapped); !uncapped && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	}

	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	httpInflight.Inc()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		panicked := false
		if p := recover(); p != nil {
			panicked = true
			httpPanics.Inc()
			s.log.Error("handler panic",
				"request_id", reqID,
				"trace_id", tc.TraceID.String(),
				"route", route,
				"panic", p,
				"stack", string(debug.Stack()))
			if !rec.wrote {
				writeErr(rec, http.StatusInternalServerError, "internal server error")
			}
		}
		httpInflight.Dec()
		httpRequests.With(route, statusClass(rec.status)).Inc()
		httpLatency.With(route).ObserveWithExemplar(elapsed.Seconds(), tc.TraceID.String())
		lvl := slog.LevelInfo
		if rec.status >= 500 {
			lvl = slog.LevelError
		}
		s.log.Log(r.Context(), lvl, "request",
			"request_id", reqID,
			"trace_id", tc.TraceID.String(),
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", rec.status,
			"duration_ms", float64(elapsed.Microseconds())/1000)
		s.finishRequest(route, reqID, tc, rec.status, panicked, start, elapsed, slot)
	}()
	s.h.ServeHTTP(&fallbackWriter{ResponseWriter: rec}, r)
}
