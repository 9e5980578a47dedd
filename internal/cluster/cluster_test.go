package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"molq/client"
	"molq/internal/cluster"
	"molq/internal/httpapi"
)

// testNode is one in-process replica: a v1 API server, the cluster shard
// surface, and a heartbeat agent announcing both to the router.
type testNode struct {
	id     string
	api    *httpapi.Server
	rep    *cluster.Replica
	srv    *httptest.Server
	cancel context.CancelFunc
	load   atomic.Int64
}

func (n *testNode) kill() {
	n.cancel()
	n.srv.CloseClientConnections()
	n.srv.Close()
}

// startNode launches a replica and its heartbeat agent against routerURL.
// Each wrap is applied around the replica's handler, innermost first.
func startNode(t *testing.T, routerURL, id string, wraps ...func(http.Handler) http.Handler) *testNode {
	t.Helper()
	n := &testNode{id: id}
	n.api = httpapi.New()
	ss := cluster.NewShardStore()
	n.rep = cluster.NewReplica(ss)
	var h http.Handler = cluster.NewReplicaMux(n.api, n.rep)
	for _, wrap := range wraps {
		h = wrap(h)
	}
	n.srv = httptest.NewServer(h)
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	agent := &cluster.Agent{
		RouterURL: routerURL,
		Interval:  20 * time.Millisecond,
		Status: func() cluster.NodeStatus {
			return cluster.NodeStatus{
				ID:      id,
				Addr:    n.srv.URL,
				Engines: n.api.Engines(),
				Shards:  ss.List(),
				Load:    int(n.load.Load()),
			}
		},
	}
	go agent.Run(ctx)
	t.Cleanup(func() {
		cancel()
		n.srv.Close()
	})
	return n
}

// startCluster brings up a router plus n replicas and waits for liveness.
func startCluster(t *testing.T, n int, routerOpts []cluster.RouterOption, wraps ...func(http.Handler) http.Handler) (*cluster.Router, *httptest.Server, []*testNode) {
	t.Helper()
	router := cluster.NewRouter(routerOpts...)
	rsrv := httptest.NewServer(router)
	t.Cleanup(rsrv.Close)
	nodes := make([]*testNode, n)
	for i := range nodes {
		nodes[i] = startNode(t, rsrv.URL, fmt.Sprintf("node-%d", i), wraps...)
	}
	waitLive(t, router, n)
	return router, rsrv, nodes
}

func waitLive(t *testing.T, router *cluster.Router, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(router.Members().Live()) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("cluster never reached %d live nodes (have %d)", want, len(router.Members().Live()))
}

// testTypes builds a deterministic multi-type dataset spread across the
// bounds so every strip holds sites.
func testTypes(perType int) []client.Type {
	rng := rand.New(rand.NewSource(42))
	mk := func(name string, n int) client.Type {
		objs := make([]client.Object, n)
		for i := range objs {
			objs[i] = client.Object{
				X:          rng.Float64() * 100,
				Y:          rng.Float64() * 100,
				TypeWeight: client.Weight(1 + rng.Float64()),
			}
		}
		return client.Type{Name: name, Objects: objs}
	}
	return []client.Type{mk("school", perType), mk("market", perType), mk("clinic", perType)}
}

func testVectors(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}
	}
	return vecs
}

// startSingle launches a plain single-node v1 server with the same engine.
func startSingle(t *testing.T, req client.EngineRequest, apiOpts ...httpapi.Option) *client.Client {
	t.Helper()
	api := httpapi.New(apiOpts...)
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if _, err := c.CreateEngine(context.Background(), req); err != nil {
		t.Fatalf("single-node engine create: %v", err)
	}
	return c
}

func engineReq(name string, perType int) client.EngineRequest {
	return client.EngineRequest{
		Name:   name,
		Method: "rrb",
		Types:  testTypes(perType),
	}
}

// TestClusterBitEquality is the core correctness claim: a 3-node, 3-shard
// cluster answers engine queries bit-for-bit identically to a single node,
// before and after mutations.
func TestClusterBitEquality(t *testing.T) {
	_, rsrv, _ := startCluster(t, 3,
		[]cluster.RouterOption{cluster.WithShards(3), cluster.WithHeartbeatTimeout(2 * time.Second)})
	ctx := context.Background()
	req := engineReq("parity", 12)
	cc := client.New(rsrv.URL)
	if _, err := cc.CreateEngine(ctx, req); err != nil {
		t.Fatalf("cluster engine create: %v", err)
	}
	sc := startSingle(t, req)

	vecs := testVectors(16)
	checkParity := func(stage string) {
		t.Helper()
		for i, v := range vecs {
			got, err := cc.Query(ctx, "parity", v)
			if err != nil {
				t.Fatalf("%s: cluster query %d: %v", stage, i, err)
			}
			want, err := sc.Query(ctx, "parity", v)
			if err != nil {
				t.Fatalf("%s: single query %d: %v", stage, i, err)
			}
			if got.Location != want.Location || got.Cost != want.Cost {
				t.Fatalf("%s: query %d diverged:\n cluster (%.17g, %.17g) cost %.17g\n single  (%.17g, %.17g) cost %.17g",
					stage, i, got.Location.X, got.Location.Y, got.Cost,
					want.Location.X, want.Location.Y, want.Cost)
			}
		}
		// Batch path too.
		gb, err := cc.QueryBatch(ctx, "parity", vecs)
		if err != nil {
			t.Fatalf("%s: cluster batch: %v", stage, err)
		}
		wb, err := sc.QueryBatch(ctx, "parity", vecs)
		if err != nil {
			t.Fatalf("%s: single batch: %v", stage, err)
		}
		for i := range vecs {
			if gb.Results[i].Location != wb.Results[i].Location || gb.Results[i].Cost != wb.Results[i].Cost {
				t.Fatalf("%s: batch result %d diverged", stage, i)
			}
		}
	}
	checkParity("initial")

	// Mutate through both: inserts and a delete, then re-check.
	muts := []client.ObjectUpsert{
		{Type: 0, ID: 9001, X: 13.7, Y: 81.2},
		{Type: 1, ID: 9002, X: 55.5, Y: 5.5, ObjWeight: client.Weight(2)},
		{Type: 2, ID: 9003, X: 97.1, Y: 44.4},
	}
	for _, m := range muts {
		if _, err := cc.InsertObject(ctx, "parity", m); err != nil {
			t.Fatalf("cluster insert %d: %v", m.ID, err)
		}
		if _, err := sc.InsertObject(ctx, "parity", m); err != nil {
			t.Fatalf("single insert %d: %v", m.ID, err)
		}
	}
	if _, err := cc.DeleteObject(ctx, "parity", 0, 9001); err != nil {
		t.Fatalf("cluster delete: %v", err)
	}
	if _, err := sc.DeleteObject(ctx, "parity", 0, 9001); err != nil {
		t.Fatalf("single delete: %v", err)
	}
	checkParity("after mutations")

	// Typed errors surface through the router with the same envelope.
	_, err := cc.InsertObject(ctx, "parity", client.ObjectUpsert{Type: 1, ID: 9002, X: 1, Y: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate insert through router: want 409 APIError, got %v", err)
	}
	if _, err := cc.Query(ctx, "nosuch", []float64{1, 1, 1}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("query on unknown engine: want 404 APIError, got %v", err)
	}
}

// TestClusterStaleShardRefetch desynchronizes one replica's shard out of
// band, then drives a mutation through the router: the stale replica must
// answer 409 and receive a fresh snapshot, converging to the new version.
func TestClusterStaleShardRefetch(t *testing.T) {
	router, rsrv, nodes := startCluster(t, 2,
		[]cluster.RouterOption{cluster.WithShards(2), cluster.WithHeartbeatTimeout(2 * time.Second)})
	_ = router
	ctx := context.Background()
	cc := client.New(rsrv.URL)
	if _, err := cc.CreateEngine(ctx, engineReq("stale", 8)); err != nil {
		t.Fatalf("engine create: %v", err)
	}

	// A delta whose from-version mismatches must be refused with the
	// stale_shard envelope.
	bogus, _ := json.Marshal(cluster.Delta{
		Engine: "stale", Shard: 0, FromVersion: 41, ToVersion: 42,
		Op: cluster.OpInsert, Type: 0, ID: 777, X: 1, Y: 1, ObjWeight: 1,
	})
	resp, err := http.Post(nodes[0].srv.URL+"/cluster/v1/shards/stale/0/delta",
		"application/json", bytes.NewReader(bogus))
	if err != nil {
		t.Fatalf("direct delta: %v", err)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Error.Code != "stale_shard" {
		t.Fatalf("bogus delta: want 409 stale_shard, got %d %q", resp.StatusCode, env.Error.Code)
	}

	// Desync node 0's shard 0 by applying a real delta out of band (version
	// 1 → 50). The router still believes it shipped version 1.
	oob, _ := json.Marshal(cluster.Delta{
		Engine: "stale", Shard: 0, FromVersion: 1, ToVersion: 50,
		Op: cluster.OpInsert, Type: 0, ID: 778, X: 2, Y: 2, ObjWeight: 1,
	})
	resp, err = http.Post(nodes[0].srv.URL+"/cluster/v1/shards/stale/0/delta",
		"application/json", bytes.NewReader(oob))
	if err != nil {
		t.Fatalf("out-of-band delta: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("out-of-band delta: %d", resp.StatusCode)
	}

	// Router mutation: node 0 / shard 0 is at 50, delta expects 1 → 409 →
	// the router ships a fresh snapshot at version 2.
	if _, err := cc.InsertObject(ctx, "stale", client.ObjectUpsert{Type: 1, ID: 779, X: 3, Y: 3}); err != nil {
		t.Fatalf("router insert: %v", err)
	}
	for _, st := range nodes[0].rep.Store().List() {
		if st.Engine == "stale" && st.Shard == 0 && st.Version != 2 {
			t.Fatalf("stale shard not refetched: at version %d, want 2", st.Version)
		}
	}

	// The out-of-band object died with the refetch; the cluster converges
	// to the router's authoritative state.
	single := startSingle(t, engineReq("stale", 8))
	if _, err := single.InsertObject(ctx, "stale", client.ObjectUpsert{Type: 1, ID: 779, X: 3, Y: 3}); err != nil {
		t.Fatalf("single insert: %v", err)
	}
	for i, v := range testVectors(6) {
		got, err := cc.Query(ctx, "stale", v)
		if err != nil {
			t.Fatalf("cluster query %d: %v", i, err)
		}
		want, err := single.Query(ctx, "stale", v)
		if err != nil {
			t.Fatalf("single query %d: %v", i, err)
		}
		if got.Location != want.Location || got.Cost != want.Cost {
			t.Fatalf("query %d diverged after refetch", i)
		}
	}
}

// TestClusterReplicaFailover kills one of three replicas mid-traffic: every
// query must keep succeeding (transport failures reroute immediately), and
// membership must shrink once the heartbeat window lapses.
func TestClusterReplicaFailover(t *testing.T) {
	router, rsrv, nodes := startCluster(t, 3,
		[]cluster.RouterOption{cluster.WithShards(2), cluster.WithHeartbeatTimeout(300 * time.Millisecond)})
	ctx := context.Background()
	cc := client.New(rsrv.URL)
	if _, err := cc.CreateEngine(ctx, engineReq("failover", 8)); err != nil {
		t.Fatalf("engine create: %v", err)
	}
	vecs := testVectors(4)
	baseline := make([]client.SolveResponse, len(vecs))
	for i, v := range vecs {
		res, err := cc.Query(ctx, "failover", v)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		baseline[i] = res
	}

	nodes[1].kill()

	// Immediately hammer the cluster: queries and solves must not fail even
	// though the router has not yet noticed the death via heartbeats.
	solveReq := client.SolveRequest{Types: testTypes(6)}
	for round := 0; round < 20; round++ {
		for i, v := range vecs {
			res, err := cc.Query(ctx, "failover", v)
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
					continue // backpressure is the one tolerated failure
				}
				t.Fatalf("round %d query %d failed after kill: %v", round, i, err)
			}
			if res.Location != baseline[i].Location || res.Cost != baseline[i].Cost {
				t.Fatalf("round %d query %d changed answer after kill", round, i)
			}
		}
		if _, err := cc.Solve(ctx, solveReq); err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
				t.Fatalf("round %d solve failed after kill: %v", round, err)
			}
		}
	}

	// Membership converges to the two survivors.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(router.Members().Live()) == 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := len(router.Members().Live()); n != 2 {
		t.Fatalf("membership never shrank: %d live nodes, want 2", n)
	}

	// Mutations still flow to the survivors.
	if _, err := cc.InsertObject(ctx, "failover", client.ObjectUpsert{Type: 0, ID: 5001, X: 50, Y: 50}); err != nil {
		t.Fatalf("insert after failover: %v", err)
	}
}

// TestClusterMixedLoadConvergence drives the acceptance load mix — 70%
// engine queries, 20% solves, 10% inserts — concurrently through the
// router, then checks the converged engine answers bit-equally to a single
// node holding the same final object set.
func TestClusterMixedLoadConvergence(t *testing.T) {
	_, rsrv, _ := startCluster(t, 3,
		[]cluster.RouterOption{cluster.WithShards(3), cluster.WithHeartbeatTimeout(2 * time.Second)})
	ctx := context.Background()
	cc := client.New(rsrv.URL)
	req := engineReq("mixed", 10)
	if _, err := cc.CreateEngine(ctx, req); err != nil {
		t.Fatalf("engine create: %v", err)
	}

	const ops = 60
	inserts := make([]client.ObjectUpsert, 0, ops/10+1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < ops/10+1; i++ {
		inserts = append(inserts, client.ObjectUpsert{
			Type: i % 3, ID: 7000 + i, X: rng.Float64() * 100, Y: rng.Float64() * 100,
		})
	}
	vecs := testVectors(8)
	solveReq := client.SolveRequest{Types: testTypes(5)}

	var wg sync.WaitGroup
	var nextInsert atomic.Int64
	errCh := make(chan error, ops)
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch {
			case i%10 < 7: // 70% engine queries
				_, err = cc.Query(ctx, "mixed", vecs[i%len(vecs)])
			case i%10 < 9: // 20% solves
				_, err = cc.Solve(ctx, solveReq)
			default: // 10% mutations
				m := inserts[int(nextInsert.Add(1))-1]
				_, err = cc.InsertObject(ctx, "mixed", m)
			}
			if err != nil {
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
					return
				}
				errCh <- fmt.Errorf("op %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Replay the inserts that actually ran onto a single node and compare.
	sc := startSingle(t, req)
	for i := int64(0); i < nextInsert.Load(); i++ {
		if _, err := sc.InsertObject(ctx, "mixed", inserts[i]); err != nil {
			t.Fatalf("single replay insert: %v", err)
		}
	}
	for i, v := range vecs {
		got, err := cc.Query(ctx, "mixed", v)
		if err != nil {
			t.Fatalf("cluster query %d: %v", i, err)
		}
		want, err := sc.Query(ctx, "mixed", v)
		if err != nil {
			t.Fatalf("single query %d: %v", i, err)
		}
		if got.Location != want.Location || got.Cost != want.Cost {
			t.Fatalf("query %d diverged after mixed load", i)
		}
	}
}

// modelService models one node's compute capacity for a throughput test:
// a one-slot gate in front of POST /v1/solve that answers 429 while the slot
// is taken and holds it for d before calling through. Other routes
// (heartbeats, shard installs) pass untouched. In-process nodes share the
// host's CPUs, so real compute cannot show capacity scaling, but time held
// under a per-node gate can.
func modelService(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		slot := make(chan struct{}, 1)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/v1/solve" {
				h.ServeHTTP(w, r)
				return
			}
			select {
			case slot <- struct{}{}:
			default:
				httpapi.WriteError(w, http.StatusTooManyRequests, "", "modelled node busy")
				return
			}
			defer func() { <-slot }()
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestClusterThroughput compares sustained solve QPS of the 3-node cluster
// against a single node under the same modelled per-node capacity
// (modelService: 1 concurrent solve, no queue, a fixed service time). The
// cluster admits 3× the concurrency and must clear ≥2.5× the single-node
// rate. The figure is a model of capacity scaling, not a measurement of
// compute.
func TestClusterThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison skipped in -short")
	}
	// Big enough that the router's per-request CPU share (JSON hops under
	// -race on a small host) stays a fraction of the modeled service time.
	const serviceTime = 40 * time.Millisecond
	_, rsrv, _ := startCluster(t, 3,
		[]cluster.RouterOption{cluster.WithShards(2), cluster.WithHeartbeatTimeout(2 * time.Second)},
		modelService(serviceTime))
	ctx := context.Background()
	cc := client.New(rsrv.URL)

	ssrv := httptest.NewServer(modelService(serviceTime)(httpapi.New()))
	t.Cleanup(ssrv.Close)
	sc := client.New(ssrv.URL)

	solveReq := client.SolveRequest{Types: testTypes(6)}
	if _, err := sc.Solve(ctx, solveReq); err != nil {
		t.Fatalf("warm solve: %v", err)
	}

	// measure runs closed-loop clients for a fixed window, counting
	// completed solves; 429s are immediate-retry backpressure, not failures.
	measure := func(c *client.Client, clients int, window time.Duration) int {
		var done atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, err := c.Solve(ctx, solveReq)
					if err == nil {
						done.Add(1)
						continue
					}
					var apiErr *client.APIError
					if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
						continue
					}
					select {
					case <-stop: // shutdown races look like transport errors
						return
					default:
						t.Errorf("solve failed: %v", err)
						return
					}
				}
			}()
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		return int(done.Load())
	}

	const window = 1600 * time.Millisecond
	singleN := measure(sc, 6, window)
	clusterN := measure(cc, 6, window)
	if t.Failed() {
		return
	}
	ratio := float64(clusterN) / math.Max(float64(singleN), 1)
	t.Logf("throughput: single=%d cluster=%d ratio=%.2fx", singleN, clusterN, ratio)
	if singleN == 0 {
		t.Fatal("single node completed no solves in the window")
	}
	if ratio < 2.5 {
		t.Fatalf("cluster sustained only %.2fx single-node QPS, want ≥2.5x", ratio)
	}
}
