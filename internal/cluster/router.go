package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"molq/client"
	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/httpapi"
	"molq/internal/obs"
	"molq/internal/query"
	"molq/internal/store"
)

// Router is the cluster coordinator: it serves the full v1 surface, so a
// client (or molqbench) points at it exactly as it would at a single molqd.
//
//   - POST /v1/engines builds the engine once on the router, cuts the
//     prepared MOVD into strips, and ships every shard to every live
//     replica as a version-stamped binary snapshot.
//   - POST /v1/engines/{name}/query scatter-gathers: each shard is asked on
//     one live owner, and the per-shard winners min-reduce to the optimum —
//     bit-equal to a single node (see the package comment).
//   - Object mutations apply to the router's authoritative engine first,
//     then fan to every (node, shard) as splice deltas keyed by snapshot
//     version; a stale replica (409) gets a fresh full snapshot instead.
//   - POST /v1/solve and /v1/score proxy whole requests to the
//     least-loaded live replica via the public molq/client package.
//   - POST /cluster/v1/heartbeat receives replica pushes; a new node is
//     synced (all shards shipped) in the background.
//
// Queries and mutations survive a replica death: transport failures demote
// the node immediately (no waiting out the heartbeat window) and the work
// retries on another live owner. Every route runs through a node's request
// stack (httpapi.Wrap).
type Router struct {
	members *Membership
	metrics *obs.Registry
	log     *slog.Logger
	hc      *http.Client
	nshards int
	start   time.Time

	mu      sync.RWMutex
	engines map[string]*routerEngine

	nodeMu  sync.Mutex
	clients map[string]*client.Client // node ID → v1 client
	syncing map[string]bool           // node ID → background sync running
	// shipped is the router's authoritative routing state: node → engine →
	// shard → shipped snapshot version. Heartbeat shard reports are
	// diagnostic; this map is what routing consults.
	shipped map[string]map[string]map[int]int64

	rr atomic.Uint64 // spreads shard owners and proxy targets

	routeMetric     *obs.CounterVec
	proxyMetric     *obs.CounterVec
	shipMetric      *obs.CounterVec
	failoverMetric  *obs.Counter
	staleMetric     *obs.Counter
	heartbeatMetric *obs.Counter
	hbAgeMetric     *obs.GaugeVec

	h http.Handler
}

// routerEngine is the router's record of one clustered engine. mu is the
// single-writer gate: mutations (and shard re-ships) hold it exclusively,
// so deltas reach every shard in version order; scatter-gather queries hold
// it shared, so a query never observes an engine version whose shards are
// still being shipped.
type routerEngine struct {
	mu     sync.RWMutex
	name   string
	in     query.Input
	method query.Method
	eng    *query.Engine
	strips []geom.Rect
	info   httpapi.EngineInfo
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithRouterLogger directs the router's structured logs to l.
func WithRouterLogger(l *slog.Logger) RouterOption {
	return func(r *Router) {
		if l != nil {
			r.log = l
		}
	}
}

// WithRouterMetrics uses reg instead of obs.Default.
func WithRouterMetrics(reg *obs.Registry) RouterOption {
	return func(r *Router) {
		if reg != nil {
			r.metrics = reg
		}
	}
}

// WithShards sets how many strips each engine is cut into (default:
// GOMAXPROCS, min 2 — one strip would make the cluster a proxy).
func WithShards(n int) RouterOption {
	return func(r *Router) {
		if n > 0 {
			r.nshards = n
		}
	}
}

// WithHeartbeatTimeout sets the liveness window (default 3s).
func WithHeartbeatTimeout(d time.Duration) RouterOption {
	return func(r *Router) {
		if d > 0 {
			r.members = NewMembership(d)
		}
	}
}

// WithClusterHTTPClient overrides the HTTP client used for shard calls
// (snapshot ships, deltas, shard queries).
func WithClusterHTTPClient(hc *http.Client) RouterOption {
	return func(r *Router) {
		if hc != nil {
			r.hc = hc
		}
	}
}

// NewRouter returns a ready-to-serve coordinator.
func NewRouter(opts ...RouterOption) *Router {
	r := &Router{
		members: NewMembership(3 * time.Second),
		metrics: obs.Default,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		hc:      http.DefaultClient,
		nshards: max(2, runtime.GOMAXPROCS(0)),
		start:   time.Now(),
		engines: make(map[string]*routerEngine),
		clients: make(map[string]*client.Client),
		syncing: make(map[string]bool),
		shipped: make(map[string]map[string]map[int]int64),
	}
	for _, opt := range opts {
		opt(r)
	}
	r.routeMetric = r.metrics.CounterVec("molq_cluster_route_total",
		"Shard queries routed, by engine and shard.", "engine", "shard")
	r.proxyMetric = r.metrics.CounterVec("molq_cluster_proxy_total",
		"Whole requests proxied to replicas, by route.", "route")
	r.shipMetric = r.metrics.CounterVec("molq_cluster_snapshots_shipped_total",
		"Shard snapshots shipped to replicas, by engine.", "engine")
	r.failoverMetric = r.metrics.Counter("molq_cluster_failovers_total",
		"Shard calls retried on another replica after a node failure.")
	r.staleMetric = r.metrics.Counter("molq_cluster_stale_refetch_total",
		"Stale-shard conflicts resolved by shipping a fresh snapshot.")
	r.heartbeatMetric = r.metrics.Counter("molq_cluster_heartbeats_total",
		"Heartbeats received from replicas.")
	r.hbAgeMetric = r.metrics.GaugeVec("molq_cluster_heartbeat_age_seconds",
		"Seconds since each replica's last heartbeat (refreshed at scrape).", "node")

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", r.handleHealth)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.HandleFunc("POST /v1/solve", r.handleSolveProxy)
	mux.HandleFunc("POST /v1/score", r.handleScoreProxy)
	mux.HandleFunc("POST /v1/engines", r.handleEngineCreate)
	mux.HandleFunc("GET /v1/engines", r.handleEngineList)
	mux.HandleFunc("GET /v1/engines/{name}", r.handleEngineGet)
	mux.HandleFunc("DELETE /v1/engines/{name}", r.handleEngineDelete)
	mux.HandleFunc("POST /v1/engines/{name}/query", r.handleEngineQuery)
	mux.HandleFunc("POST /v1/engines/{name}/objects", r.handleObjectInsert)
	mux.HandleFunc("DELETE /v1/engines/{name}/objects/{id}", r.handleObjectDelete)
	mux.HandleFunc("POST /cluster/v1/heartbeat", r.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/nodes", r.handleNodes)
	r.h = httpapi.Wrap(mux, r.log)
	return r
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.h.ServeHTTP(w, req)
}

// Members exposes the membership table (molqd logs node counts from it).
func (r *Router) Members() *Membership { return r.members }

// ---- membership & sync ----

func (r *Router) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	var st NodeStatus
	if err := json.NewDecoder(req.Body).Decode(&st); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad heartbeat: %v", err))
		return
	}
	if st.ID == "" || st.Addr == "" {
		httpapi.WriteError(w, http.StatusBadRequest, "", "heartbeat needs id and addr")
		return
	}
	r.heartbeatMetric.Inc()
	isNew := r.members.Update(st)
	r.nodeMu.Lock()
	if c := r.clients[st.ID]; c == nil || c.BaseURL() != st.Addr {
		r.clients[st.ID] = client.New(st.Addr, client.WithHTTPClient(r.hc))
	}
	needSync := r.missingShardsLocked(st.ID) && !r.syncing[st.ID]
	if needSync {
		r.syncing[st.ID] = true
	}
	r.nodeMu.Unlock()
	if needSync {
		go r.syncNode(st.ID)
	}
	httpapi.WriteJSON(w, http.StatusOK, HeartbeatResponse{New: isNew})
}

// missingShardsLocked reports whether the node lacks any current shard.
// Caller holds nodeMu.
func (r *Router) missingShardsLocked(nodeID string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	byEngine := r.shipped[nodeID]
	for name, re := range r.engines {
		want := re.eng.Version()
		for s := range re.strips {
			if byEngine == nil || byEngine[name] == nil || byEngine[name][s] != want {
				return true
			}
		}
	}
	return false
}

// syncNode ships every current shard the node is missing. Runs in the
// background off a heartbeat; serialised per node by the syncing flag.
func (r *Router) syncNode(nodeID string) {
	defer func() {
		r.nodeMu.Lock()
		delete(r.syncing, nodeID)
		r.nodeMu.Unlock()
	}()
	node := r.members.Get(nodeID)
	if node == nil {
		return
	}
	r.mu.RLock()
	engines := make([]*routerEngine, 0, len(r.engines))
	for _, re := range r.engines {
		engines = append(engines, re)
	}
	r.mu.RUnlock()
	for _, re := range engines {
		// The engine writer lock pins the version: a concurrent mutation
		// cannot slip between the cut and the record, so the node never
		// holds a version the router does not know about.
		re.mu.Lock()
		for s := range re.strips {
			if err := r.shipShard(re, s, node.Addr, nodeID); err != nil {
				r.log.Warn("shard sync failed", "node", nodeID, "engine", re.name,
					"shard", s, "err", err)
			}
		}
		re.mu.Unlock()
	}
}

// shipShard cuts shard s from the engine's current state and POSTs it to
// the node, recording the shipped version on success. Caller holds re.mu.
func (r *Router) shipShard(re *routerEngine, s int, addr, nodeID string) error {
	movd, sets, _ := re.eng.Prepared()
	version := re.eng.Version()
	sub := SplitMOVD(movd, re.strips[s:s+1])[0]
	meta := ShardMetaFor(re.name, re.in, re.method, s, len(re.strips), re.strips[s],
		version, re.info.Types, sets)
	var buf bytes.Buffer
	if err := store.WriteShard(&buf, meta, sub); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/cluster/v1/shards", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: install on %s: %s: %s", nodeID, resp.Status, raw)
	}
	r.recordShipped(nodeID, re.name, s, version)
	r.shipMetric.With(re.name).Inc()
	return nil
}

func (r *Router) recordShipped(nodeID, engine string, shard int, version int64) {
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	byEngine := r.shipped[nodeID]
	if byEngine == nil {
		byEngine = make(map[string]map[int]int64)
		r.shipped[nodeID] = byEngine
	}
	byShard := byEngine[engine]
	if byShard == nil {
		byShard = make(map[int]int64)
		byEngine[engine] = byShard
	}
	byShard[shard] = version
}

// owners returns the live nodes holding (engine, shard) at version, in
// rotated order so load spreads across queries.
func (r *Router) owners(engine string, shard int, version int64) []*Node {
	live := r.members.Live()
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	var out []*Node
	for _, n := range live {
		if be := r.shipped[n.ID]; be != nil && be[engine] != nil && be[engine][shard] == version {
			out = append(out, n)
		}
	}
	if len(out) > 1 {
		rot := int(r.rr.Add(1)) % len(out)
		out = append(out[rot:], out[:rot]...)
	}
	return out
}

// demote drops a node that failed a call: its traffic reroutes immediately
// instead of waiting out the heartbeat window. The node's next heartbeat
// re-registers it (and triggers a resync).
func (r *Router) demote(nodeID string) {
	r.members.Remove(nodeID)
	r.nodeMu.Lock()
	delete(r.shipped, nodeID)
	delete(r.clients, nodeID)
	r.nodeMu.Unlock()
	r.failoverMetric.Inc()
}

func (r *Router) handleNodes(w http.ResponseWriter, _ *http.Request) {
	live := r.members.Live()
	out := make([]NodeStatus, 0, len(live))
	for _, n := range live {
		out = append(out, n.NodeStatus)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// ---- engine lifecycle ----

func (r *Router) handleEngineCreate(w http.ResponseWriter, req *http.Request) {
	var er httpapi.EngineRequest
	if err := json.NewDecoder(req.Body).Decode(&er); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	in, method, err := httpapi.EngineInput(er)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", err.Error())
		return
	}
	eng, err := query.NewEngine(in, method)
	if err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "", err.Error())
		return
	}
	re := &routerEngine{
		name:   er.Name,
		in:     in,
		method: method,
		eng:    eng,
		strips: Strips(in.Bounds, r.nshards),
		info:   httpapi.NewEngineInfo(er, method, eng),
	}
	// Hold the writer lock across registration and the initial ship: a
	// query that finds the engine in the map blocks on the shared lock
	// until every live replica holds its shards.
	re.mu.Lock()
	r.mu.Lock()
	if _, exists := r.engines[er.Name]; exists {
		r.mu.Unlock()
		re.mu.Unlock()
		httpapi.WriteError(w, http.StatusConflict, "", fmt.Sprintf("engine %q already exists", er.Name))
		return
	}
	r.engines[er.Name] = re
	r.mu.Unlock()
	for _, n := range r.members.Live() {
		for s := range re.strips {
			if err := r.shipShard(re, s, n.Addr, n.ID); err != nil {
				r.log.Warn("initial ship failed", "node", n.ID, "engine", re.name,
					"shard", s, "err", err)
				r.demote(n.ID)
				break
			}
		}
	}
	re.mu.Unlock()
	httpapi.WriteJSON(w, http.StatusCreated, re.info)
}

// engineOf resolves an engine name, writing the 404 envelope when absent.
func (r *Router) engineOf(w http.ResponseWriter, name string) *routerEngine {
	r.mu.RLock()
	re := r.engines[name]
	r.mu.RUnlock()
	if re == nil {
		httpapi.WriteError(w, http.StatusNotFound, "", fmt.Sprintf("engine %q not found", name))
	}
	return re
}

func (r *Router) handleEngineList(w http.ResponseWriter, _ *http.Request) {
	r.mu.RLock()
	infos := make([]httpapi.EngineInfo, 0, len(r.engines))
	for _, re := range r.engines {
		infos = append(infos, httpapi.LiveInfo(re.info, re.eng))
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	httpapi.WriteJSON(w, http.StatusOK, infos)
}

func (r *Router) handleEngineGet(w http.ResponseWriter, req *http.Request) {
	re := r.engineOf(w, req.PathValue("name"))
	if re == nil {
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.LiveInfo(re.info, re.eng))
}

func (r *Router) handleEngineDelete(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	r.mu.Lock()
	_, ok := r.engines[name]
	delete(r.engines, name)
	r.mu.Unlock()
	if !ok {
		httpapi.WriteError(w, http.StatusNotFound, "", fmt.Sprintf("engine %q not found", name))
		return
	}
	// Drop the shards everywhere; a dead node just misses the memo (its
	// shards die with it).
	r.nodeMu.Lock()
	for _, byEngine := range r.shipped {
		delete(byEngine, name)
	}
	r.nodeMu.Unlock()
	for _, n := range r.members.Live() {
		ctx, cancel := context.WithTimeout(req.Context(), 10*time.Second)
		dreq, err := http.NewRequestWithContext(ctx, http.MethodDelete,
			n.Addr+"/cluster/v1/shards/"+name, nil)
		if err == nil {
			if resp, err := r.hc.Do(dreq); err == nil {
				resp.Body.Close()
			}
		}
		cancel()
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// ---- shard query scatter-gather ----

func (r *Router) handleEngineQuery(w http.ResponseWriter, req *http.Request) {
	re := r.engineOf(w, req.PathValue("name"))
	if re == nil {
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	vecs, batch, err := httpapi.ParseEngineQueryBody(body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	start := time.Now()
	answers, status, err := r.scatterGather(req.Context(), re, vecs)
	if err != nil {
		code := ""
		if status == http.StatusTooManyRequests {
			code = "rate_limited"
			w.Header().Set("Retry-After", "1")
		}
		httpapi.WriteError(w, status, code, err.Error())
		return
	}
	elapsed := time.Since(start).Microseconds()
	if !batch {
		httpapi.WriteJSON(w, http.StatusOK, answerJSON(answers[0], elapsed))
		return
	}
	out := httpapi.EngineBatchResponse{
		Results: make([]httpapi.SolveResponse, len(answers)),
		Micros:  elapsed,
	}
	for i, a := range answers {
		out.Results[i] = answerJSON(a, elapsed)
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func answerJSON(a ShardAnswer, micros int64) httpapi.SolveResponse {
	return httpapi.SolveResponse{
		Location: httpapi.PointJSON{X: a.X, Y: a.Y},
		Cost:     a.Cost,
		Method:   a.Method,
		Micros:   micros,
	}
}

// scatterGather asks every shard (on one live owner each, with failover)
// and min-reduces the per-shard winners per weight vector. The reduce uses
// strict < in shard order, so duplicated boundary combinations and exact
// ties resolve deterministically.
func (r *Router) scatterGather(ctx context.Context, re *routerEngine, vecs [][]float64) ([]ShardAnswer, int, error) {
	// Shared lock against the mutation path: the engine version and the
	// shipped-shard state move together only under the exclusive lock, so a
	// query never chases a version whose deltas are still in flight.
	re.mu.RLock()
	defer re.mu.RUnlock()
	version := re.eng.Version()
	nShards := len(re.strips)
	results := make([]*ShardQueryResponse, nShards)
	statuses := make([]int, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], statuses[s], errs[s] = r.queryShard(ctx, re, s, version, vecs)
		}(s)
	}
	wg.Wait()
	for s := 0; s < nShards; s++ {
		if errs[s] != nil {
			status := statuses[s]
			if status == 0 {
				status = http.StatusBadGateway
			}
			return nil, status, errs[s]
		}
	}
	answers := make([]ShardAnswer, len(vecs))
	for i := range vecs {
		best := -1
		for s := 0; s < nShards; s++ {
			if len(results[s].Answers) != len(vecs) {
				return nil, http.StatusBadGateway,
					fmt.Errorf("cluster: shard %d answered %d vectors, want %d",
						s, len(results[s].Answers), len(vecs))
			}
			if best < 0 || results[s].Answers[i].Cost < results[best].Answers[i].Cost {
				best = s
			}
		}
		answers[i] = results[best].Answers[i]
	}
	return answers, http.StatusOK, nil
}

// queryShard asks one shard on each owner in turn until one answers.
func (r *Router) queryShard(ctx context.Context, re *routerEngine, s int, version int64, vecs [][]float64) (*ShardQueryResponse, int, error) {
	owners := r.owners(re.name, s, version)
	if len(owners) == 0 {
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("cluster: no live replica holds %s/%d@%d", re.name, s, version)
	}
	r.routeMetric.With(re.name, fmt.Sprintf("%d", s)).Inc()
	var lastErr error
	lastStatus := 0
	for i, n := range owners {
		if i > 0 {
			r.failoverMetric.Inc()
		}
		resp, status, err := r.postShardQuery(ctx, n.Addr, re.name, s, vecs)
		if err == nil {
			return resp, status, nil
		}
		lastErr, lastStatus = err, status
		if status == 0 {
			// Transport failure: the node is gone, stop routing to it.
			r.demote(n.ID)
			continue
		}
		if status == http.StatusTooManyRequests || status >= 500 {
			// Shed or sick: try the next owner, keep the node.
			continue
		}
		// 4xx other than shed is a request problem; retrying elsewhere
		// would return the same answer.
		return nil, status, err
	}
	return nil, lastStatus, lastErr
}

func (r *Router) postShardQuery(ctx context.Context, addr, engine string, s int, vecs [][]float64) (*ShardQueryResponse, int, error) {
	raw, err := json.Marshal(ShardQueryRequest{Vectors: vecs})
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	url := fmt.Sprintf("%s/cluster/v1/shards/%s/%d/query", addr, engine, s)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tc, ok := obs.TraceFromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, fmt.Errorf("cluster: shard %s/%d: %s: %s",
			engine, s, resp.Status, bytes.TrimSpace(body))
	}
	var out ShardQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, http.StatusBadGateway, err
	}
	return &out, http.StatusOK, nil
}

// ---- mutations ----

func (r *Router) handleObjectInsert(w http.ResponseWriter, req *http.Request) {
	re := r.engineOf(w, req.PathValue("name"))
	if re == nil {
		return
	}
	var or httpapi.ObjectUpsertRequest
	if err := json.NewDecoder(req.Body).Decode(&or); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	ow := 1.0
	if or.ObjWeight != nil {
		ow = *or.ObjWeight
	}
	r.mutate(w, re, Delta{
		Engine: re.name, Op: OpInsert,
		Type: or.Type, ID: or.ID, X: or.X, Y: or.Y, ObjWeight: ow,
	})
}

func (r *Router) handleObjectDelete(w http.ResponseWriter, req *http.Request) {
	re := r.engineOf(w, req.PathValue("name"))
	if re == nil {
		return
	}
	id, err := atoi(req.PathValue("id"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad object id %q", req.PathValue("id")))
		return
	}
	ti := 0
	if tq := req.URL.Query().Get("type"); tq != "" {
		if ti, err = atoi(tq); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad type %q", tq))
			return
		}
	}
	d := Delta{Engine: re.name, Op: OpDelete, Type: ti, ID: id}
	r.mutate(w, re, d)
}

// mutate is the single-writer path: apply to the router's authoritative
// engine, then fan the delta to every (live node, shard); stale or failed
// shards get a fresh snapshot instead. The engine lock is held across both
// steps so concurrent mutations reach every shard in version order.
func (r *Router) mutate(w http.ResponseWriter, re *routerEngine, d Delta) {
	re.mu.Lock()
	defer re.mu.Unlock()
	var us query.UpdateStats
	var err error
	switch d.Op {
	case OpInsert:
		ow := d.ObjWeight
		if ow == 0 {
			ow = 1
		}
		us, err = re.eng.InsertObject(core.Object{
			ID: d.ID, Type: d.Type, Loc: geom.Pt(d.X, d.Y), ObjWeight: ow,
		})
	case OpDelete:
		us, err = re.eng.DeleteObject(d.Type, d.ID)
	}
	if err != nil {
		httpapi.WriteError(w, httpapi.UpdateStatus(err), "", err.Error())
		return
	}
	d.FromVersion = us.Version - 1
	d.ToVersion = us.Version

	// Fan out: every live node applies the delta to every shard it holds.
	// Failures fall back to a fresh snapshot ship; a node that cannot even
	// take the snapshot is demoted.
	type target struct {
		node  *Node
		shard int
	}
	var targets []target
	for _, n := range r.members.Live() {
		for s := range re.strips {
			targets = append(targets, target{node: n, shard: s})
		}
	}
	var wg sync.WaitGroup
	failed := make([]bool, len(targets))
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg target) {
			defer wg.Done()
			sd := d
			sd.Shard = tg.shard
			if !r.sendDelta(tg.node.Addr, sd) {
				failed[i] = true
			}
		}(i, tg)
	}
	wg.Wait()
	for i, tg := range targets {
		if !failed[i] {
			r.recordShipped(tg.node.ID, re.name, tg.shard, us.Version)
			continue
		}
		r.staleMetric.Inc()
		if err := r.shipShard(re, tg.shard, tg.node.Addr, tg.node.ID); err != nil {
			r.log.Warn("stale refetch failed, demoting node",
				"node", tg.node.ID, "engine", re.name, "shard", tg.shard, "err", err)
			r.demote(tg.node.ID)
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.UpdateResponse{
		Engine:       re.name,
		Version:      us.Version,
		Incremental:  !us.Rebuilt,
		DirtyCells:   us.DirtyCells,
		OVRs:         us.NewOVRs,
		Combinations: re.eng.Combinations(),
		Micros:       us.TotalTime.Microseconds(),
	})
}

// sendDelta POSTs one delta, reporting success.
func (r *Router) sendDelta(addr string, d Delta) bool {
	raw, err := json.Marshal(d)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s/cluster/v1/shards/%s/%d/delta", addr, d.Engine, d.Shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// ---- whole-request proxying ----

// pickNode returns live nodes ordered lightest-load first (ties rotate).
func (r *Router) pickNodes() []*Node {
	live := r.members.Live()
	if len(live) > 1 {
		rot := int(r.rr.Add(1)) % len(live)
		live = append(live[rot:], live[:rot]...)
		sort.SliceStable(live, func(i, j int) bool { return live[i].Load < live[j].Load })
	}
	return live
}

func (r *Router) clientFor(nodeID string) *client.Client {
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	return r.clients[nodeID]
}

// handleSolveProxy forwards POST /v1/solve to the least-loaded live
// replica through the public molq/client package, failing over on
// transport errors and retryable statuses.
func (r *Router) handleSolveProxy(w http.ResponseWriter, req *http.Request) {
	var sr client.SolveRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	r.proxyMetric.With("solve").Inc()
	proxyCall(r, w, req.Context(), func(ctx context.Context, c *client.Client) (any, error) {
		res, err := c.Solve(ctx, sr)
		return res, err
	})
}

// handleScoreProxy forwards POST /v1/score the same way.
func (r *Router) handleScoreProxy(w http.ResponseWriter, req *http.Request) {
	var sr client.ScoreRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	r.proxyMetric.With("score").Inc()
	proxyCall(r, w, req.Context(), func(ctx context.Context, c *client.Client) (any, error) {
		costs, err := c.Score(ctx, sr)
		if err != nil {
			return nil, err
		}
		return map[string][]float64{"costs": costs}, nil
	})
}

// proxyCall runs the call against live nodes lightest-first until one
// answers, translating client.APIError back into the envelope.
func proxyCall(r *Router, w http.ResponseWriter, ctx context.Context, call func(context.Context, *client.Client) (any, error)) {
	nodes := r.pickNodes()
	if len(nodes) == 0 {
		httpapi.WriteError(w, http.StatusServiceUnavailable, "", "cluster: no live replicas")
		return
	}
	var lastErr error
	for i, n := range nodes {
		if i > 0 {
			r.failoverMetric.Inc()
		}
		c := r.clientFor(n.ID)
		if c == nil {
			continue
		}
		out, err := call(ctx, c)
		if err == nil {
			httpapi.WriteJSON(w, http.StatusOK, out)
			return
		}
		lastErr = err
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			if apiErr.IsRetryable() && i < len(nodes)-1 {
				continue
			}
			if apiErr.Status == http.StatusTooManyRequests && apiErr.RetryAfterSeconds > 0 {
				w.Header().Set("Retry-After", fmt.Sprintf("%d", apiErr.RetryAfterSeconds))
			}
			httpapi.WriteError(w, apiErr.Status, apiErr.Code, apiErr.Message)
			return
		}
		if ctx.Err() != nil {
			httpapi.WriteError(w, 499, "client_closed", "request canceled")
			return
		}
		// Transport failure: demote and fail over.
		r.demote(n.ID)
	}
	httpapi.WriteError(w, http.StatusBadGateway, "", fmt.Sprintf("cluster: all replicas failed: %v", lastErr))
}

// ---- introspection ----

func (r *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"role":           "router",
		"uptime_seconds": time.Since(r.start).Seconds(),
		"live_nodes":     len(r.members.Live()),
	})
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	r.mu.RLock()
	engines := len(r.engines)
	r.mu.RUnlock()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"engines":        engines,
		"live_nodes":     len(r.members.Live()),
		"shards":         r.nshards,
		"uptime_seconds": time.Since(r.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
	})
}

// handleMetrics refreshes the heartbeat-age gauges from membership at
// scrape time, then serves the registry exposition.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	for node, age := range r.members.Ages() {
		r.hbAgeMetric.With(node).Set(age.Seconds())
	}
	httpapi.ServeMetrics(w, req, r.metrics, r.log)
}

func atoi(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}
