package httpapi

import (
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"strings"

	"molq/internal/obs"
	"molq/internal/query"
)

// This file is the surface internal/cluster builds on: the router reuses the
// v1 wire types, the request stack (Wrap), engine-create validation and info,
// the metrics exposition and the JSON envelope writers, and the replica
// mounts its shard routes on a node's mux (Handle), so a clustered
// deployment answers byte-compatibly with a single node.

// WriteError writes the standard error envelope. An empty code is filled
// from the status (the same mapping the v1 handlers use); a non-empty code
// is preserved verbatim, which lets a proxy re-emit an upstream envelope's
// code without re-deriving it.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	if code == "" {
		code = errCode(status)
	}
	WriteJSON(w, status, errorResponse{Error: ErrorBody{
		Code:      code,
		Message:   message,
		RequestID: w.Header().Get(requestIDHeader),
	}})
}

// RequestIDHeader is the header carrying the per-request correlation ID.
const RequestIDHeader = requestIDHeader

// ServeMetrics serves reg in whichever exposition the client negotiates:
// OpenMetrics (which can carry per-bucket trace-ID exemplars) when the
// Accept header asks for it, Prometheus text 0.0.4 otherwise — exemplars
// are a syntax error in 0.0.4, so the plain format never carries them.
func ServeMetrics(w http.ResponseWriter, r *http.Request, reg *obs.Registry, log *slog.Logger) {
	write, ct := reg.WriteProm, "text/plain; version=0.0.4; charset=utf-8"
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		write, ct = reg.WriteOpenMetrics, "application/openmetrics-text; version=1.0.0; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	if err := write(w); err != nil {
		log.Error("metrics exposition failed", "err", err)
	}
}

// EngineInput validates an engine-create request and converts it into the
// input and method its engine is built from: a name is required, SSC is
// refused, and an omitted Replicas means one read replica per CPU.
func EngineInput(req EngineRequest) (query.Input, query.Method, error) {
	if req.Name == "" {
		return query.Input{}, 0, errors.New("engine name required")
	}
	m, err := ParseMethod(req.Method, false)
	if err != nil {
		return query.Input{}, 0, err
	}
	in, err := BuildInput(req.Types, req.Bounds, req.Epsilon)
	if err != nil {
		return query.Input{}, 0, err
	}
	in.WeightedEpsilon = req.WeightedEpsilon
	switch {
	case req.Replicas > 0:
		in.Replicas = req.Replicas
	case req.Replicas == 0:
		in.Replicas = runtime.GOMAXPROCS(0)
	}
	return in, m, nil
}

// NewEngineInfo describes the engine just built from req with method m.
func NewEngineInfo(req EngineRequest, m query.Method, eng *query.Engine) EngineInfo {
	info := EngineInfo{
		Name:        req.Name,
		Method:      m.String(),
		Types:       make([]string, len(req.Types)),
		PrepMicros:  eng.PrepTime().Microseconds(),
		CacheHits:   eng.CacheStats().Hits,
		CacheMisses: eng.CacheStats().Misses,
	}
	for i, tj := range req.Types {
		info.Types[i] = tj.Name
	}
	return LiveInfo(info, eng)
}

// LiveInfo returns info with its mutable fields (version, object counts,
// OVRs, combinations) read from eng now; the rest is the creation-time
// snapshot.
func LiveInfo(info EngineInfo, eng *query.Engine) EngineInfo {
	info.Version = eng.Version()
	info.Objects = eng.ObjectCounts()
	info.OVRs = eng.OVRs()
	info.Combinations = eng.Combinations()
	return info
}

// Handle registers h for pattern on the server's own mux, so the route runs
// through the same request stack as the v1 API. The cluster replica mounts
// its shard routes with it.
func (s *Server) Handle(pattern string, h http.Handler) { s.h.Handle(pattern, h) }

// Engines returns the name → current version of every prepared engine, the
// shape a replica heartbeat advertises.
func (s *Server) Engines() map[string]int64 {
	s.mux.RLock()
	defer s.mux.RUnlock()
	out := make(map[string]int64, len(s.eng))
	for name, pe := range s.eng {
		out[name] = pe.eng.Version()
	}
	return out
}

// Engine returns the prepared engine registered under name (nil when
// absent). The cluster replica uses it to answer shard queries against
// engines installed from shipped snapshots.
func (s *Server) Engine(name string) *query.Engine {
	s.mux.RLock()
	defer s.mux.RUnlock()
	if pe := s.eng[name]; pe != nil {
		return pe.eng
	}
	return nil
}
