// Package httpapi exposes MOLQ evaluation over HTTP with a small JSON API,
// turning the library into a location-selection service. Endpoints:
//
//	POST /v1/solve    — evaluate one query (object sets inline)
//	POST /v1/engines  — prepare a reusable engine from object sets
//	GET  /v1/engines  — list prepared engines
//	GET  /v1/engines/{name} — one prepared engine's info (404 envelope when
//	                           absent)
//	POST /v1/engines/{name}/query — solve against a prepared engine with
//	                                 fresh type weights
//	POST   /v1/engines/{name}/objects      — insert one object (incremental
//	                                          MOVD repair, bumps the version)
//	DELETE /v1/engines/{name}/objects/{id} — delete one object (?type=N
//	                                          selects the set, default 0)
//	POST /v1/score    — MWGD of candidate locations against inline sets
//	GET  /v1/stats    — server status: engines, diagram cache, uptime,
//	                    goroutines, build info
//	GET  /v1/healthz  — liveness with diagnostic payload
//	GET  /v1/metrics  — Prometheus text exposition of the obs registry
//	                    (OpenMetrics with exemplars when the client sends
//	                    Accept: application/openmetrics-text)
//	GET  /debug/traces      — flight-recorder contents: the K slowest
//	                          retained traces per route+engine plus every
//	                          pinned errored/shed/panicked request
//	GET  /debug/traces/{id} — one retained trace with its full span tree
//
// Every request passes through the request stack of middleware.go: body
// cap, request-ID assignment, trace context, panic recovery, per-route
// metrics and structured access logs, plus a fallback that rewrites the
// mux's own plain-text 404/405 into the JSON error envelope every endpoint
// uses:
//
//	{"error":{"code":"...","message":"...","request_id":"..."}}
//
// All handlers are safe for concurrent use. The engine registry is stored
// under a read-write mutex; the engines themselves serialise mutations and
// version their state internally, so queries racing an object insert or
// delete each see one consistent snapshot.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/obs"
	"molq/internal/query"
)

// PointJSON is a location in request/response bodies.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// ObjectJSON is one POI. The weights are pointers so an omitted weight
// (defaults to 1) is distinguishable from an explicit 0, which — like every
// non-positive weight — is rejected with 400 rather than silently rewritten.
type ObjectJSON struct {
	X          float64  `json:"x"`
	Y          float64  `json:"y"`
	TypeWeight *float64 `json:"type_weight,omitempty"` // default 1; must be > 0 if given
	ObjWeight  *float64 `json:"obj_weight,omitempty"`  // default 1; must be > 0 if given
}

// TypeJSON is one object set.
type TypeJSON struct {
	Name string `json:"name,omitempty"`
	// Kind selects ς^o: "multiplicative" (default) or "additive".
	Kind    string       `json:"kind,omitempty"`
	Objects []ObjectJSON `json:"objects"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Method: "ssc", "rrb" (default) or "mbrb".
	Method string `json:"method,omitempty"`
	// Bounds of the search space; omitted means the bounding box of the
	// objects.
	Bounds *[4]float64 `json:"bounds,omitempty"` // minX, minY, maxX, maxY
	Types  []TypeJSON  `json:"types"`
	// Epsilon for the iterative solver (default 1e-3).
	Epsilon float64 `json:"epsilon,omitempty"`
	// WeightedEpsilon mirrors molq.Options.WeightedEpsilon: 0 picks the
	// weighted diagram construction automatically (under MBRB, approximate
	// above 2048 objects per weighted type at a machine-derived ε; under
	// RRB, always the approximate cell construction), > 0 forces the
	// approximate construction with that relative error bound, < 0 forces
	// the exact one (rejecting weighted RRB).
	WeightedEpsilon float64 `json:"weighted_epsilon,omitempty"`
	// Workers and PruneOverlap mirror the library options.
	Workers      int  `json:"workers,omitempty"`
	PruneOverlap bool `json:"prune_overlap,omitempty"`
	// TopK > 1 additionally returns the next best distinct locations in the
	// response's "alternatives" (RRB/MBRB only).
	TopK int `json:"top_k,omitempty"`
}

// AlternativeJSON is one ranked runner-up location.
type AlternativeJSON struct {
	Location PointJSON `json:"location"`
	Cost     float64   `json:"cost"`
}

// SolveResponse reports the optimum.
type SolveResponse struct {
	Location PointJSON `json:"location"`
	Cost     float64   `json:"cost"`
	Method   string    `json:"method"`
	OVRs     int       `json:"ovrs,omitempty"`
	Groups   int       `json:"fermat_weber_problems,omitempty"`
	Micros   int64     `json:"elapsed_us"`
	// Alternatives holds ranked runner-up locations when TopK was
	// requested (excluding the optimum itself).
	Alternatives []AlternativeJSON `json:"alternatives,omitempty"`
	// Cache reports the solve's diagram-cache lookups (absent when the
	// request performed none, e.g. engine queries, which reuse a prepared
	// diagram outright).
	Cache *CacheJSON `json:"cache,omitempty"`
}

// CacheJSON mirrors query.CacheStats in response bodies. Coalesced counts
// lookups that waited on another request's in-flight build of the same
// diagram instead of building their own copy.
type CacheJSON struct {
	Hits      int     `json:"hits"`
	Misses    int     `json:"misses"`
	Coalesced int     `json:"coalesced"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Capacity  int64   `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheJSON(cs query.CacheStats) CacheJSON {
	return CacheJSON{
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Coalesced: cs.Coalesced,
		Entries:   cs.Entries,
		Bytes:     cs.Bytes,
		Capacity:  cs.Capacity,
		HitRate:   cs.HitRate(),
	}
}

// BuildJSON carries build/version info from runtime/debug.ReadBuildInfo.
type BuildJSON struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Engines       int       `json:"engines"`
	DiagramCache  CacheJSON `json:"diagram_cache"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Goroutines    int       `json:"goroutines"`
	Build         BuildJSON `json:"build"`
}

// HealthResponse is the body of GET /v1/healthz: liveness plus enough
// diagnostics that a probe log alone narrows an incident.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	Version       string  `json:"version,omitempty"`
}

// buildJSON resolves build info once; ReadBuildInfo walks the embedded
// module table on every call.
var buildOnce = sync.OnceValue(func() BuildJSON {
	b := BuildJSON{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			b.Revision = s.Value
		}
	}
	return b
})

// EngineRequest is the body of POST /v1/engines.
type EngineRequest struct {
	Name   string      `json:"name"`
	Method string      `json:"method,omitempty"` // rrb (default) or mbrb
	Bounds *[4]float64 `json:"bounds,omitempty"`
	Types  []TypeJSON  `json:"types"`
	// Epsilon default 1e-3.
	Epsilon float64 `json:"epsilon,omitempty"`
	// WeightedEpsilon selects the weighted diagram construction; see
	// SolveRequest.WeightedEpsilon.
	WeightedEpsilon float64 `json:"weighted_epsilon,omitempty"`
	// Replicas is the number of per-core read replicas the engine keeps of
	// its hot query state, so concurrent queries admitted past the gate never
	// stream the same cache-hot arrays across cores. Omitted or 0 means one
	// replica per CPU; a negative value disables replication.
	Replicas int `json:"replicas,omitempty"`
}

// EngineInfo describes a prepared engine. Version and Objects track the
// engine's mutable state: Version starts at 1 and increments with every
// object insert/delete; Objects is the current object count per type.
type EngineInfo struct {
	Name         string   `json:"name"`
	Method       string   `json:"method"`
	Types        []string `json:"types"`
	Version      int64    `json:"version"`
	Objects      []int    `json:"objects"`
	OVRs         int      `json:"ovrs"`
	Combinations int      `json:"combinations"`
	PrepMicros   int64    `json:"prepare_us"`
	// CacheHits/CacheMisses count the diagram-cache lookups of the engine's
	// preparation: a warm creation (same data as an earlier solve or engine)
	// skips Voronoi construction entirely.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
}

// EngineQueryRequest is the body of POST /v1/engines/{name}/query. The
// endpoint also accepts a batched form — "type_weights" holding an array of
// weight vectors, or the body being a bare top-level array of vectors — which
// answers every vector in one Engine.QueryBatch pass and responds with
// EngineBatchResponse instead of SolveResponse.
type EngineQueryRequest struct {
	TypeWeights []float64 `json:"type_weights"`
}

// EngineBatchQueryRequest is the batched body of POST
// /v1/engines/{name}/query.
type EngineBatchQueryRequest struct {
	TypeWeights [][]float64 `json:"type_weights"`
}

// EngineBatchResponse answers a batched engine query: one result per weight
// vector, in request order. Micros is the wall clock of the whole batch (the
// vectors are solved together, so per-vector times are not attributable).
type EngineBatchResponse struct {
	Results []SolveResponse `json:"results"`
	Micros  int64           `json:"elapsed_us"`
}

// ObjectUpsertRequest is the body of POST /v1/engines/{name}/objects: one
// object to insert into the named engine's set for Type.
type ObjectUpsertRequest struct {
	Type int     `json:"type"`
	ID   int     `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	// ObjWeight defaults to 1; explicit values must be positive. Weighted
	// objects are only accepted by MBRB engines whose set is already
	// non-uniform or which can rebuild (RRB rejects them with 422).
	ObjWeight *float64 `json:"obj_weight,omitempty"`
}

// UpdateResponse reports one engine mutation (insert or delete).
type UpdateResponse struct {
	Engine string `json:"engine"`
	// Version is the engine version the mutation published.
	Version int64 `json:"version"`
	// Incremental is true when the engine repaired only the dirty region of
	// the MOVD; false when it fell back to a full rebuild.
	Incremental bool `json:"incremental"`
	// DirtyCells is the number of Voronoi cells the mutation invalidated
	// (0 on the rebuild path).
	DirtyCells   int   `json:"dirty_cells"`
	OVRs         int   `json:"ovrs"`
	Combinations int   `json:"combinations"`
	Micros       int64 `json:"elapsed_us"`
}

// ScoreRequest is the body of POST /v1/score.
type ScoreRequest struct {
	Types      []TypeJSON  `json:"types"`
	Candidates []PointJSON `json:"candidates"`
}

// ScoreResponse lists the MWGD of each candidate.
type ScoreResponse struct {
	Costs []float64 `json:"costs"`
}

// ErrorBody is the uniform error envelope carried by every non-2xx
// response, including the router's own 404/405 and admission-control 429:
// a stable machine-readable code, a human-readable message and the request
// ID from the X-Request-Id header, so clients can quote the exact failing
// request in bug reports.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// errorResponse is the uniform error body: {"error":{...}}.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// errCode maps a status to its stable envelope code.
func errCode(status int) string {
	switch {
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case status == http.StatusConflict:
		return "conflict"
	case status == http.StatusUnprocessableEntity:
		return "unprocessable"
	case status == http.StatusTooManyRequests:
		return "rate_limited"
	case status == statusClientClosed:
		return "client_closed"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status >= 500:
		return "internal"
	default:
		return fmt.Sprintf("http_%d", status)
	}
}

type preparedEngine struct {
	info EngineInfo
	eng  *query.Engine
}

// Server implements http.Handler through its embedded request stack.
type Server struct {
	stack
	mux sync.RWMutex
	eng map[string]*preparedEngine
	// cache memoizes basic Voronoi diagrams across solve and engine-create
	// requests (query.DefaultDiagramCache unless overridden for tests).
	cache *query.DiagramCache
	// metrics is the registry /v1/metrics exposes (obs.Default unless
	// overridden).
	metrics *obs.Registry
	// start anchors the uptime reported by /v1/stats and /v1/healthz.
	start time.Time
	// gate bounds concurrent solves (nil: admission disabled).
	gate *solveGate
	// recorderSet distinguishes WithRecorder(nil) — recorder explicitly
	// disabled — from "no option given", which gets the default recorder.
	recorderSet bool
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLogger directs the server's structured access and error logs to l.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// WithMetrics exposes reg at /v1/metrics instead of obs.Default (tests use
// private registries to keep golden output independent of process history).
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.metrics = reg
		}
	}
}

// WithRecorder replaces the default flight recorder (nil disables trace
// retention and /debug/traces entirely; handlers then skip building span
// trees).
func WithRecorder(rec *obs.Recorder) Option {
	return func(s *Server) {
		s.recorder = rec
		s.recorderSet = true
	}
}

// WithSlowQueryLog enables the slow-query log: every solve-bearing request
// taking d or longer emits one WARN line with trace ID, engine and phase
// breakdown. d ≤ 0 disables (the default).
func WithSlowQueryLog(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.slowQuery = d
		}
	}
}

// WithAdmission bounds the CPU-heavy endpoints (solve, engine create, engine
// query, score) to maxConcurrent simultaneous requests with up to maxQueue
// more waiting; the rest are shed with 429 + Retry-After. maxConcurrent ≤ 0
// disables admission (the default).
func WithAdmission(maxConcurrent, maxQueue int) Option {
	return func(s *Server) {
		s.gate = newSolveGate(maxConcurrent, maxQueue)
	}
}

// New returns a ready-to-serve API server.
func New(opts ...Option) *Server {
	s := &Server{
		// The logger is discarded unless WithLogger is given (molqd passes
		// its slog handler).
		stack: stack{
			h:   http.NewServeMux(),
			log: slog.New(slog.NewTextHandler(io.Discard, nil)),
		},
		eng:     make(map[string]*preparedEngine),
		cache:   query.DefaultDiagramCache,
		metrics: obs.Default,
		start:   time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if !s.recorderSet {
		s.recorder = obs.NewRecorder(obs.DefaultTraceRetention, obs.DefaultTraceWindow, 0)
	}
	s.h.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.h.HandleFunc("GET /v1/stats", s.handleStats)
	s.h.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		ServeMetrics(w, r, s.metrics, s.log)
	})
	s.h.HandleFunc("POST /v1/solve", s.handleSolve)
	s.h.HandleFunc("POST /v1/engines", s.handleEngineCreate)
	s.h.HandleFunc("GET /v1/engines", s.handleEngineList)
	s.h.HandleFunc("GET /v1/engines/{name}", s.handleEngineGet)
	s.h.HandleFunc("DELETE /v1/engines/{name}", s.handleEngineDelete)
	s.h.HandleFunc("POST /v1/engines/{name}/query", s.handleEngineQuery)
	s.h.HandleFunc("POST /v1/engines/{name}/objects", s.handleObjectInsert)
	s.h.HandleFunc("DELETE /v1/engines/{name}/objects/{id}", s.handleObjectDelete)
	s.h.HandleFunc("POST /v1/score", s.handleScore)
	s.h.HandleFunc("GET /debug/traces", s.handleTraces)
	s.h.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	// Process-level gauges, sampled at scrape time. Registration is
	// idempotent (first wins), so repeated Server constructions are safe.
	obs.Default.GaugeFunc("molq_goroutines", "goroutines in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	// Runtime telemetry (GC pauses, heap, scheduler latency) on whichever
	// registry /v1/metrics exposes; equally idempotent.
	obs.RegisterRuntimeMetrics(s.metrics)
	return s
}

// WriteJSON writes body as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: ErrorBody{
		Code:    errCode(status),
		Message: fmt.Sprintf(format, args...),
		// Set by the stack before any handler runs; empty only when a
		// bare ResponseWriter bypasses the stack (tests).
		RequestID: w.Header().Get(requestIDHeader),
	}})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Version:       buildOnce().Version,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mux.RLock()
	engines := len(s.eng)
	s.mux.RUnlock()
	WriteJSON(w, http.StatusOK, StatsResponse{
		Engines:       engines,
		DiagramCache:  cacheJSON(s.cache.Stats()),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Build:         buildOnce(),
	})
}

// BuildInput converts v1 wire types into a query.Input, applying the
// validation the solve and engine-create handlers share (weight positivity,
// kind names, bounds defaulting to the objects' bounding box).
func BuildInput(types []TypeJSON, bounds *[4]float64, epsilon float64) (query.Input, error) {
	var in query.Input
	if len(types) == 0 {
		return in, fmt.Errorf("no object types")
	}
	ext := geom.EmptyRect()
	in.Sets = make([][]core.Object, len(types))
	in.ObjKinds = make([]query.WeightKind, len(types))
	for ti, tj := range types {
		switch strings.ToLower(tj.Kind) {
		case "", "multiplicative":
			in.ObjKinds[ti] = query.MultiplicativeObjWeights
		case "additive":
			in.ObjKinds[ti] = query.AdditiveObjWeights
		default:
			return in, fmt.Errorf("type %d: unknown kind %q", ti, tj.Kind)
		}
		if len(tj.Objects) == 0 {
			return in, fmt.Errorf("type %d (%s): no objects", ti, tj.Name)
		}
		set := make([]core.Object, len(tj.Objects))
		for i, o := range tj.Objects {
			tw, err := weightOf(o.TypeWeight, "type_weight", ti, i)
			if err != nil {
				return in, err
			}
			ow, err := weightOf(o.ObjWeight, "obj_weight", ti, i)
			if err != nil {
				return in, err
			}
			set[i] = core.Object{
				ID: i, Type: ti,
				Loc:        geom.Pt(o.X, o.Y),
				TypeWeight: tw, ObjWeight: ow,
			}
			ext = ext.ExtendPoint(set[i].Loc)
		}
		in.Sets[ti] = set
	}
	if bounds != nil {
		in.Bounds = geom.NewRect(geom.Pt(bounds[0], bounds[1]), geom.Pt(bounds[2], bounds[3]))
	} else {
		in.Bounds = ext
	}
	if in.Bounds.Area() == 0 {
		in.Bounds = geom.Rect{
			Min: in.Bounds.Min.Sub(geom.Pt(1, 1)),
			Max: in.Bounds.Max.Add(geom.Pt(1, 1)),
		}
	}
	in.Epsilon = epsilon
	return in, nil
}

// weightOf resolves an optional request weight: absent means the documented
// default of 1, while an explicit non-positive value is a client error.
func weightOf(w *float64, name string, ti, i int) (float64, error) {
	if w == nil {
		return 1, nil
	}
	if *w <= 0 {
		return 0, fmt.Errorf("type %d object %d: %s must be positive, got %g", ti, i, name, *w)
	}
	return *w, nil
}

// ParseMethod resolves a wire method name ("", "rrb", "mbrb", "ssc").
// allowSSC admits the sequential-scan baseline (solve accepts it, engines
// do not).
func ParseMethod(m string, allowSSC bool) (query.Method, error) {
	switch strings.ToLower(m) {
	case "", "rrb":
		return query.RRB, nil
	case "mbrb":
		return query.MBRB, nil
	case "ssc":
		if allowSSC {
			return query.SSC, nil
		}
		return 0, fmt.Errorf("method ssc not supported here")
	default:
		return 0, fmt.Errorf("unknown method %q", m)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	var req SolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	m, err := ParseMethod(req.Method, true)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	in, err := BuildInput(req.Types, req.Bounds, req.Epsilon)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	in.WeightedEpsilon = req.WeightedEpsilon
	in.Workers = req.Workers
	in.PruneOverlap = req.PruneOverlap
	in.Cache = s.cache
	in.Trace = s.tracing()
	res, err := query.SolveContext(r.Context(), in, m)
	if err != nil {
		writeErr(w, SolveStatus(err), "%v", err)
		return
	}
	noteSolve(r, "", 0, res.Stats)
	out := SolveResponse{
		Location: PointJSON{X: res.Loc.X, Y: res.Loc.Y},
		Cost:     res.Cost,
		Method:   res.Method.String(),
		OVRs:     res.Stats.OVRs,
		Groups:   res.Stats.Groups,
		Micros:   res.Stats.TotalTime.Microseconds(),
	}
	if res.Stats.Cache.Hits+res.Stats.Cache.Misses > 0 {
		cj := cacheJSON(res.Stats.Cache)
		out.Cache = &cj
	}
	if req.TopK > 1 {
		cands, err := query.TopK(in, m, req.TopK)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "top_k: %v", err)
			return
		}
		for _, c := range cands[1:] {
			out.Alternatives = append(out.Alternatives, AlternativeJSON{
				Location: PointJSON{X: c.Loc.X, Y: c.Loc.Y},
				Cost:     c.Cost,
			})
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleEngineCreate(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	var req EngineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	in, m, err := EngineInput(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	in.Cache = s.cache
	// Baked into the engine: every later query on it builds a span tree iff
	// the server has a flight recorder to retain it.
	in.Trace = s.tracing()
	eng, err := query.NewEngine(in, m)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	info := NewEngineInfo(req, m, eng)
	s.mux.Lock()
	_, exists := s.eng[req.Name]
	if !exists {
		s.eng[req.Name] = &preparedEngine{info: info, eng: eng}
	}
	s.mux.Unlock()
	if exists {
		writeErr(w, http.StatusConflict, "engine %q already exists", req.Name)
		return
	}
	WriteJSON(w, http.StatusCreated, info)
}

func (s *Server) handleEngineList(w http.ResponseWriter, _ *http.Request) {
	s.mux.RLock()
	infos := make([]EngineInfo, 0, len(s.eng))
	for _, pe := range s.eng {
		infos = append(infos, LiveInfo(pe.info, pe.eng))
	}
	s.mux.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	WriteJSON(w, http.StatusOK, infos)
}

func (s *Server) handleEngineGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mux.RLock()
	pe := s.eng[name]
	var info EngineInfo
	if pe != nil {
		info = LiveInfo(pe.info, pe.eng)
	}
	s.mux.RUnlock()
	if pe == nil {
		writeErr(w, http.StatusNotFound, "engine %q not found", name)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleEngineDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mux.Lock()
	_, ok := s.eng[name]
	delete(s.eng, name)
	s.mux.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "engine %q not found", name)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleEngineQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mux.RLock()
	pe := s.eng[name]
	s.mux.RUnlock()
	if pe == nil {
		writeErr(w, http.StatusNotFound, "engine %q not found", name)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	vecs, batch, err := ParseEngineQueryBody(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	if !batch {
		res, err := pe.eng.QueryContext(r.Context(), vecs[0])
		if err != nil {
			writeErr(w, SolveStatus(err), "%v", err)
			return
		}
		noteSolve(r, name, 0, res.Stats)
		WriteJSON(w, http.StatusOK, solveResponse(res))
		return
	}
	out, err := pe.eng.QueryBatchContext(r.Context(), vecs)
	if err != nil {
		writeErr(w, SolveStatus(err), "%v", err)
		return
	}
	if len(out) > 0 {
		// The batch's span tree rides on the first result's stats.
		noteSolve(r, name, len(out), out[0].Stats)
	}
	resp := EngineBatchResponse{Results: make([]SolveResponse, len(out))}
	for i, res := range out {
		// Per-vector Micros is the vector's amortized share of the batch;
		// the envelope's Micros is the batch wall clock itself.
		resp.Results[i] = solveResponse(res)
	}
	if len(out) > 0 {
		resp.Micros = out[0].Stats.BatchElapsed.Microseconds()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// solveResponse converts an engine query result into the response shape.
func solveResponse(res query.Result) SolveResponse {
	return SolveResponse{
		Location: PointJSON{X: res.Loc.X, Y: res.Loc.Y},
		Cost:     res.Cost,
		Method:   res.Method.String(),
		OVRs:     res.Stats.OVRs,
		Groups:   res.Stats.Groups,
		Micros:   res.Stats.TotalTime.Microseconds(),
	}
}

// ParseEngineQueryBody accepts the three body shapes of the engine query
// endpoint: {"type_weights":[…]} (single vector), {"type_weights":[[…],…]}
// (batch), and a bare top-level [[…],…] (batch). Single-vector requests
// return a one-element vecs with batch=false. The cluster router shares it
// so a clustered engine query accepts exactly what a single node does.
func ParseEngineQueryBody(body []byte) (vecs [][]float64, batch bool, err error) {
	first := firstByte(body)
	if first == '[' {
		var b [][]float64
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, false, err
		}
		return b, true, nil
	}
	var raw struct {
		TypeWeights json.RawMessage `json:"type_weights"`
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, false, err
	}
	if nestedArray(raw.TypeWeights) {
		var b EngineBatchQueryRequest
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, false, err
		}
		return b.TypeWeights, true, nil
	}
	var one EngineQueryRequest
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, false, err
	}
	return [][]float64{one.TypeWeights}, false, nil
}

func jsonSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// firstByte returns the first non-whitespace byte of b (0 when none).
func firstByte(b []byte) byte {
	for _, c := range b {
		if !jsonSpace(c) {
			return c
		}
	}
	return 0
}

// nestedArray reports whether b is a JSON array whose first element is
// itself an array ("[[…" modulo whitespace).
func nestedArray(b []byte) bool {
	i := 0
	for i < len(b) && jsonSpace(b[i]) {
		i++
	}
	if i >= len(b) || b[i] != '[' {
		return false
	}
	i++
	for i < len(b) && jsonSpace(b[i]) {
		i++
	}
	return i < len(b) && b[i] == '['
}

// statusClientClosed is nginx's non-standard 499 "client closed request":
// the solve was abandoned because the caller went away, not because the
// request was wrong, so neither 4xx-validation nor 5xx-server codes fit.
const statusClientClosed = 499

// SolveStatus maps a solve/query error: a canceled request context is the
// client's doing (499), a deadline is a timeout (504), anything else is a
// request the engine rejected (422).
func SolveStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// UpdateStatus maps a mutation error onto the API's status vocabulary:
// malformed input is 400, identity clashes are 409, a missing object is 404,
// and everything the engine itself refuses (last object of a type, weighted
// RRB) is 422.
func UpdateStatus(err error) int {
	switch {
	case errors.Is(err, query.ErrBadType), errors.Is(err, query.ErrBadWeight):
		return http.StatusBadRequest
	case errors.Is(err, query.ErrDuplicateID), errors.Is(err, query.ErrDuplicateLocation):
		return http.StatusConflict
	case errors.Is(err, query.ErrUnknownObject):
		return http.StatusNotFound
	default:
		return http.StatusUnprocessableEntity
	}
}

func updateResponse(name string, pe *preparedEngine, us query.UpdateStats) UpdateResponse {
	return UpdateResponse{
		Engine:       name,
		Version:      us.Version,
		Incremental:  !us.Rebuilt,
		DirtyCells:   us.DirtyCells,
		OVRs:         us.NewOVRs,
		Combinations: pe.eng.Combinations(),
		Micros:       us.TotalTime.Microseconds(),
	}
}

func (s *Server) handleObjectInsert(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mux.RLock()
	pe := s.eng[name]
	s.mux.RUnlock()
	if pe == nil {
		writeErr(w, http.StatusNotFound, "engine %q not found", name)
		return
	}
	var req ObjectUpsertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	ow := 1.0
	if req.ObjWeight != nil {
		ow = *req.ObjWeight
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	us, err := pe.eng.InsertObject(core.Object{
		ID:        req.ID,
		Type:      req.Type,
		Loc:       geom.Pt(req.X, req.Y),
		ObjWeight: ow,
	})
	if err != nil {
		writeErr(w, UpdateStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, updateResponse(name, pe, us))
}

func (s *Server) handleObjectDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mux.RLock()
	pe := s.eng[name]
	s.mux.RUnlock()
	if pe == nil {
		writeErr(w, http.StatusNotFound, "engine %q not found", name)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad object id %q", r.PathValue("id"))
		return
	}
	ti := 0
	if tq := r.URL.Query().Get("type"); tq != "" {
		ti, err = strconv.Atoi(tq)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad type %q", tq)
			return
		}
	}
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	us, err := pe.eng.DeleteObject(ti, id)
	if err != nil {
		writeErr(w, UpdateStatus(err), "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, updateResponse(name, pe, us))
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r) {
		return
	}
	defer s.gate.release()
	var req ScoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	in, err := BuildInput(req.Types, nil, 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Candidates) == 0 {
		writeErr(w, http.StatusBadRequest, "no candidate locations")
		return
	}
	costs := make([]float64, len(req.Candidates))
	for i, c := range req.Candidates {
		costs[i] = in.MWGD(geom.Pt(c.X, c.Y))
	}
	WriteJSON(w, http.StatusOK, ScoreResponse{Costs: costs})
}
