package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/httpapi"
	"molq/internal/obs"
	"molq/internal/query"
	"molq/internal/store"
)

// Replica-side shard metrics (process-wide registry; registration is
// idempotent).
var (
	shardInstallsMetric = obs.Default.CounterVec("molq_cluster_shard_installs_total",
		"Shard snapshots installed on this replica, by engine.", "engine")
	shardDeltasMetric = obs.Default.CounterVec("molq_cluster_shard_deltas_total",
		"Shard deltas handled on this replica, by outcome (applied/stale).", "outcome")
	shardQueriesMetric = obs.Default.CounterVec("molq_cluster_shard_queries_total",
		"Shard queries answered on this replica, by engine.", "engine")
)

// installedShard is one shipped shard: the reconstructed engine plus the
// cluster snapshot version it is at. The mutex makes delta application a
// single-writer path per shard — deltas for the same shard apply in the
// order the router sent them, never interleaved.
type installedShard struct {
	mu      sync.Mutex
	meta    store.ShardMeta
	eng     *query.Engine
	version int64
}

// ShardStore holds the shards installed on one replica.
type ShardStore struct {
	mu     sync.RWMutex
	shards map[string]map[int]*installedShard
}

// NewShardStore returns an empty store.
func NewShardStore() *ShardStore {
	return &ShardStore{shards: make(map[string]map[int]*installedShard)}
}

// Install builds an engine around a shipped shard snapshot and registers
// it, replacing any prior version of the same (engine, shard).
func (ss *ShardStore) Install(meta store.ShardMeta, movd *core.MOVD) (*query.Engine, error) {
	eng, err := EngineFromShard(meta, movd)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	byShard := ss.shards[meta.Engine]
	if byShard == nil {
		byShard = make(map[int]*installedShard)
		ss.shards[meta.Engine] = byShard
	}
	byShard[meta.Shard] = &installedShard{meta: meta, eng: eng, version: meta.Version}
	ss.mu.Unlock()
	return eng, nil
}

// get returns the installed shard (nil when absent).
func (ss *ShardStore) get(engine string, shard int) *installedShard {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.shards[engine][shard]
}

// Drop removes every shard of an engine, reporting whether any existed.
func (ss *ShardStore) Drop(engine string) bool {
	ss.mu.Lock()
	_, ok := ss.shards[engine]
	delete(ss.shards, engine)
	ss.mu.Unlock()
	return ok
}

// List reports the installed shards and their versions, sorted for
// deterministic heartbeats.
func (ss *ShardStore) List() []ShardState {
	ss.mu.RLock()
	var out []ShardState
	for name, byShard := range ss.shards {
		for idx, sh := range byShard {
			sh.mu.Lock()
			v := sh.version
			sh.mu.Unlock()
			out = append(out, ShardState{Engine: name, Shard: idx, Version: v})
		}
	}
	ss.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Engine != out[j].Engine {
			return out[i].Engine < out[j].Engine
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// ErrStale reports a delta whose from-version does not match the installed
// shard version.
type staleError struct {
	have, want int64
}

func (e *staleError) Error() string {
	return fmt.Sprintf("cluster: shard at version %d, delta expects %d", e.have, e.want)
}

// ApplyDelta applies one mutation to an installed shard. The shard's engine
// sees the same mutation the router's full engine did; since the shard
// engine holds the full object sets with strip-local bounds, the repair
// stays strip-local while accounting for cross-boundary influence.
func (sh *installedShard) ApplyDelta(d Delta) (DeltaResponse, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.version != d.FromVersion {
		return DeltaResponse{}, &staleError{have: sh.version, want: d.FromVersion}
	}
	var us query.UpdateStats
	var err error
	switch d.Op {
	case OpInsert:
		ow := d.ObjWeight
		if ow == 0 {
			ow = 1
		}
		us, err = sh.eng.InsertObject(core.Object{
			ID: d.ID, Type: d.Type, Loc: geom.Pt(d.X, d.Y), ObjWeight: ow,
		})
	case OpDelete:
		us, err = sh.eng.DeleteObject(d.Type, d.ID)
	default:
		return DeltaResponse{}, fmt.Errorf("cluster: unknown delta op %q", d.Op)
	}
	if err != nil {
		return DeltaResponse{}, err
	}
	sh.version = d.ToVersion
	return DeltaResponse{
		Engine:  d.Engine,
		Shard:   d.Shard,
		Version: d.ToVersion,
		Rebuilt: us.Rebuilt,
		Micros:  us.TotalTime.Microseconds(),
	}, nil
}

// Replica serves the /cluster/v1 shard surface of one molqd node. Mount it
// on the node's v1 API with NewReplicaMux and run an Agent to announce it.
type Replica struct {
	store *ShardStore
}

// NewReplica returns the shard surface over store.
func NewReplica(ss *ShardStore) *Replica { return &Replica{store: ss} }

// Store returns the replica's shard store (the Agent reads it for
// heartbeat payloads).
func (r *Replica) Store() *ShardStore { return r.store }

// NewReplicaMux registers the shard routes on api's own mux, so they run
// through the node's request stack, and returns api. Snapshot install is
// the one route exempt from the body cap: a strip snapshot can be several
// times the engine-create body the router accepted under that cap, and
// store.ReadShard bounds what it decodes.
func NewReplicaMux(api *httpapi.Server, rep *Replica) *httpapi.Server {
	api.Handle("POST /cluster/v1/shards", httpapi.Uncapped(rep.handleInstall))
	api.Handle("GET /cluster/v1/shards", http.HandlerFunc(rep.handleList))
	api.Handle("POST /cluster/v1/shards/{engine}/{shard}/query", http.HandlerFunc(rep.handleQuery))
	api.Handle("POST /cluster/v1/shards/{engine}/{shard}/delta", http.HandlerFunc(rep.handleDelta))
	api.Handle("DELETE /cluster/v1/shards/{engine}", http.HandlerFunc(rep.handleDrop))
	return api
}

func (r *Replica) handleInstall(w http.ResponseWriter, req *http.Request) {
	meta, movd, err := store.ReadShard(req.Body)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad shard snapshot: %v", err))
		return
	}
	eng, err := r.store.Install(meta, movd)
	if err != nil {
		httpapi.WriteError(w, http.StatusUnprocessableEntity, "", err.Error())
		return
	}
	shardInstallsMetric.With(meta.Engine).Inc()
	httpapi.WriteJSON(w, http.StatusOK, InstallResponse{
		Engine:  meta.Engine,
		Shard:   meta.Shard,
		Version: meta.Version,
		OVRs:    eng.OVRs(),
		Combos:  eng.Combinations(),
	})
}

func (r *Replica) handleList(w http.ResponseWriter, _ *http.Request) {
	list := r.store.List()
	if list == nil {
		list = []ShardState{}
	}
	httpapi.WriteJSON(w, http.StatusOK, list)
}

// shardOf resolves the {engine}/{shard} path segments to an installed
// shard, writing the 404 envelope when absent.
func (r *Replica) shardOf(w http.ResponseWriter, req *http.Request) *installedShard {
	engine := req.PathValue("engine")
	idx, err := strconv.Atoi(req.PathValue("shard"))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad shard index %q", req.PathValue("shard")))
		return nil
	}
	sh := r.store.get(engine, idx)
	if sh == nil {
		httpapi.WriteError(w, http.StatusNotFound, "",
			fmt.Sprintf("shard %s/%d not installed", engine, idx))
		return nil
	}
	return sh
}

func (r *Replica) handleQuery(w http.ResponseWriter, req *http.Request) {
	sh := r.shardOf(w, req)
	if sh == nil {
		return
	}
	var q ShardQueryRequest
	if err := json.NewDecoder(req.Body).Decode(&q); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(q.Vectors) == 0 {
		httpapi.WriteError(w, http.StatusBadRequest, "", "no weight vectors")
		return
	}
	start := time.Now()
	results, err := sh.eng.QueryBatchContext(req.Context(), q.Vectors)
	if err != nil {
		httpapi.WriteError(w, httpapi.SolveStatus(err), "", err.Error())
		return
	}
	shardQueriesMetric.With(sh.meta.Engine).Inc()
	resp := ShardQueryResponse{
		Answers: make([]ShardAnswer, len(results)),
		Micros:  time.Since(start).Microseconds(),
	}
	sh.mu.Lock()
	resp.Version = sh.version
	sh.mu.Unlock()
	for i, res := range results {
		resp.Answers[i] = ShardAnswer{
			X: res.Loc.X, Y: res.Loc.Y, Cost: res.Cost, Method: res.Method.String(),
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (r *Replica) handleDelta(w http.ResponseWriter, req *http.Request) {
	sh := r.shardOf(w, req)
	if sh == nil {
		return
	}
	var d Delta
	if err := json.NewDecoder(req.Body).Decode(&d); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	resp, err := sh.ApplyDelta(d)
	if err != nil {
		var stale *staleError
		if errors.As(err, &stale) {
			shardDeltasMetric.With("stale").Inc()
			httpapi.WriteError(w, http.StatusConflict, "stale_shard", err.Error())
			return
		}
		httpapi.WriteError(w, httpapi.UpdateStatus(err), "", err.Error())
		return
	}
	shardDeltasMetric.With("applied").Inc()
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (r *Replica) handleDrop(w http.ResponseWriter, req *http.Request) {
	engine := req.PathValue("engine")
	if !r.store.Drop(engine) {
		httpapi.WriteError(w, http.StatusNotFound, "",
			fmt.Sprintf("engine %q has no shards here", engine))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]string{"dropped": engine})
}
