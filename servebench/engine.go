package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"molq/internal/cluster"
	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/geom"
	"molq/internal/httpapi"
	"molq/internal/query"
	"molq/internal/store"
)

// The engine workloads (engine-query, mixed-rw, cluster-query) share one
// prepared engine: three paper types (STM, CH, SCH) of 1,000 objects each,
// about 10.5k combinations, queried with single weight vectors drawn from a
// seeded pool whose answers are precomputed in-process.

type engineMode int

const (
	modeQuery engineMode = iota
	modeMixed
	modeCluster
)

const (
	engineObjects = 1000 // per type
	vectorPool    = 1024
	// insertBand is how many acknowledged inserts mixed-rw keeps live: the
	// warm-up inserts them, and from then on every delete removes the oldest
	// acknowledged insert, so the object count stays inside a fixed band.
	insertBand = 64
	// checkVectors is how many pool vectors the mixed-rw end-of-run check
	// runs on the mutated engine and on a fresh one.
	checkVectors    = 64
	clusterReplicas = 2
	benchEngine     = "bench"
	// insertIDBase keeps inserted object IDs clear of the prepared sets'
	// IDs (their indexes).
	insertIDBase = 1_000_000
)

var engineTypeNames = []string{dataset.STM, dataset.CH, dataset.SCH}

func benchBounds() *[4]float64 {
	b := dataset.DefaultBounds
	return &[4]float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
}

// paperTypes draws n objects of each named type from the clustered
// settlement model.
func paperTypes(seed int64, names []string, n int) []httpapi.TypeJSON {
	out := make([]httpapi.TypeJSON, len(names))
	for ti, name := range names {
		pts := dataset.Generate(dataset.Config{Seed: seed}, name, n)
		objs := make([]httpapi.ObjectJSON, len(pts))
		for i, p := range pts {
			objs[i] = httpapi.ObjectJSON{X: p.X, Y: p.Y}
		}
		out[ti] = httpapi.TypeJSON{Name: name, Objects: objs}
	}
	return out
}

// answer is one expected optimum.
type answer struct{ x, y, cost float64 }

func (a answer) is(r httpapi.SolveResponse) bool {
	return a.x == r.Location.X && a.y == r.Location.Y && a.cost == r.Cost
}

// insertion is one object mixed-rw inserts.
type insertion struct {
	id, typ int
	x, y    float64
}

type engineScenario struct {
	mode  engineMode
	seed  int64
	types []httpapi.TypeJSON
	// in and ref are the in-process twin of the served engine, built with
	// a private (disabled) diagram cache so the served engine's set-up
	// still builds its diagrams.
	in  query.Input
	ref *query.Engine
	// benchBody creates the engine the workload queries; setupBodies are the
	// distinct datasets the timed set-up rounds create and drop.
	benchBody   []byte
	setupBodies [setupRounds][]byte
	vecs        [][]float64
	bodies      [][]byte
	want        []answer

	api         *httpapi.Server // the node, for engine-query and mixed-rw
	router      *cluster.Router
	replicaURLs []string
	stops       []func()

	mu    sync.Mutex
	acked []insertion // mixed-rw: acknowledged, not yet deleted, oldest first
}

func setupName(k int) string { return fmt.Sprintf("setup-%d", k) }

func newEngineScenario(seed int64, mode engineMode) (*engineScenario, error) {
	s := &engineScenario{mode: mode, seed: seed}
	s.types = paperTypes(derive(dataSeed, "engine"), engineTypeNames, engineObjects)
	in, err := httpapi.BuildInput(s.types, benchBounds(), 0)
	if err != nil {
		return nil, err
	}
	in.DisableDiagramCache = true
	in.Replicas = runtime.GOMAXPROCS(0) // as the server's engine create does
	s.in = in
	if s.ref, err = query.NewEngine(in, query.RRB); err != nil {
		return nil, err
	}
	if s.benchBody, err = json.Marshal(httpapi.EngineRequest{
		Name: benchEngine, Bounds: benchBounds(), Types: s.types,
	}); err != nil {
		return nil, err
	}
	for k := range s.setupBodies {
		if s.setupBodies[k], err = json.Marshal(httpapi.EngineRequest{
			Name: setupName(k), Bounds: benchBounds(),
			Types: paperTypes(derive(dataSeed, setupName(k)), engineTypeNames, engineObjects),
		}); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(derive(seed, "vectors")))
	s.vecs = make([][]float64, vectorPool)
	s.bodies = make([][]byte, vectorPool)
	for v := range s.vecs {
		w := make([]float64, len(engineTypeNames))
		for t := range w {
			w[t] = 0.5 + 9.5*rng.Float64()
		}
		s.vecs[v] = w
		if s.bodies[v], err = json.Marshal(httpapi.EngineQueryRequest{TypeWeights: w}); err != nil {
			return nil, err
		}
	}
	s.want = make([]answer, vectorPool)
	errs := make([]error, conns())
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := g; v < vectorPool; v += len(errs) {
				res, err := s.ref.Query(s.vecs[v])
				if err != nil {
					errs[g] = err
					return
				}
				s.want[v] = answer{res.Loc.X, res.Loc.Y, res.Cost}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *engineScenario) boot() (string, error) {
	if s.mode != modeCluster {
		s.api = httpapi.New(httpapi.WithAdmission(2*runtime.GOMAXPROCS(0), 256))
		url, stop, err := serve(s.api)
		if err != nil {
			return "", err
		}
		s.stops = append(s.stops, stop)
		return url, nil
	}
	s.router = cluster.NewRouter(cluster.WithShards(conns()))
	url, stop, err := serve(s.router)
	if err != nil {
		return "", err
	}
	s.stops = append(s.stops, stop)
	for r := 0; r < clusterReplicas; r++ {
		api := httpapi.New(httpapi.WithAdmission(2*runtime.GOMAXPROCS(0), 256))
		rep := cluster.NewReplica(cluster.NewShardStore())
		addr, stop, err := serve(cluster.NewReplicaMux(api, rep))
		if err != nil {
			return "", err
		}
		s.stops = append(s.stops, stop)
		s.replicaURLs = append(s.replicaURLs, addr)
		id, shards := fmt.Sprintf("replica-%d", r), rep.Store()
		agent := &cluster.Agent{
			RouterURL: url,
			Interval:  time.Second, // molqd's default heartbeat period
			Status: func() cluster.NodeStatus {
				return cluster.NodeStatus{
					ID: id, Addr: addr, Engines: api.Engines(),
					Shards: shards.List(), Load: runtime.NumGoroutine(),
				}
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			agent.Run(ctx)
			close(done)
		}()
		s.stops = append(s.stops, func() {
			cancel()
			<-done
		})
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.router.Members().Live()) < clusterReplicas; {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("cluster: %d of %d replicas live after 10s",
				len(s.router.Members().Live()), clusterReplicas)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return url, nil
}

func (s *engineScenario) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// setupRound times the creation of set-up engine k and then drops it.
func (s *engineScenario) setupRound(c *conn, k int) (time.Duration, error) {
	start := time.Now()
	if o := c.call("POST", "/v1/engines", s.setupBodies[k], nil); o != ok {
		return 0, fmt.Errorf("create engine %s: %s", setupName(k), c.resp)
	}
	d := time.Since(start)
	if o := c.call("DELETE", "/v1/engines/"+setupName(k), nil, nil); o != ok {
		return 0, fmt.Errorf("delete engine %s: %s", setupName(k), c.resp)
	}
	return d, nil
}

// prepare creates the engine the workload queries and checks it against the
// in-process twin; mixed-rw then inserts its band.
func (s *engineScenario) prepare(c *conn) error {
	var info httpapi.EngineInfo
	if o := c.call("POST", "/v1/engines", s.benchBody, &info); o != ok {
		return fmt.Errorf("create engine %s: %s", benchEngine, c.resp)
	}
	if info.Combinations != s.ref.Combinations() {
		return fmt.Errorf("served engine has %d combinations, in-process twin %d",
			info.Combinations, s.ref.Combinations())
	}
	if s.mode != modeMixed {
		return nil
	}
	for i := 0; i < insertBand; i++ {
		if o := s.insert(c, phBand, i); o != ok {
			return fmt.Errorf("insert %d of the band: %s", i, c.resp)
		}
	}
	return nil
}

func (s *engineScenario) steady() bool {
	if s.mode != modeMixed {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.acked) >= insertBand/2 && len(s.acked) <= 2*insertBand
}

// opOf is request i's kind: mixed-rw sends 8 queries, 1 insert and 1
// delete in every 10 requests.
func (s *engineScenario) opOf(i int) string {
	if s.mode == modeMixed {
		switch i % 10 {
		case 8:
			return "insert"
		case 9:
			return "delete"
		}
	}
	return "query"
}

func (s *engineScenario) send(c *conn, ph, i int) (string, outcome) {
	op := s.opOf(i)
	switch op {
	case "insert":
		return op, s.insert(c, ph, i)
	case "delete":
		o, _ := s.deleteOldest(c)
		return op, o
	}
	v := pick(s.seed, ph, i, vectorPool)
	var resp httpapi.SolveResponse
	if o := c.call("POST", "/v1/engines/"+benchEngine+"/query", s.bodies[v], &resp); o != ok {
		return op, o
	}
	switch {
	case s.mode == modeMixed:
		// Reads race writes, so the answer depends on the version it saw;
		// the end-of-run equivalence check covers mixed-rw correctness.
		if !(resp.Cost > 0 && !math.IsInf(resp.Cost, 0)) {
			return op, wrong
		}
	case !s.want[v].is(resp):
		return op, wrong
	}
	return op, ok
}

func (s *engineScenario) insertion(ph, i int) insertion {
	b := dataset.DefaultBounds
	return insertion{
		id:  insertIDBase*(ph+1) + i,
		typ: pick(s.seed, ph, i, len(engineTypeNames)),
		x:   b.Min.X + unit(s.seed, ph, i, 1)*b.Width(),
		y:   b.Min.Y + unit(s.seed, ph, i, 2)*b.Height(),
	}
}

func appendInsert(buf []byte, in insertion) []byte {
	buf = append(buf, `{"type":`...)
	buf = strconv.AppendInt(buf, int64(in.typ), 10)
	buf = append(buf, `,"id":`...)
	buf = strconv.AppendInt(buf, int64(in.id), 10)
	buf = append(buf, `,"x":`...)
	buf = strconv.AppendFloat(buf, in.x, 'f', -1, 64)
	buf = append(buf, `,"y":`...)
	buf = strconv.AppendFloat(buf, in.y, 'f', -1, 64)
	return append(buf, '}')
}

func (s *engineScenario) insert(c *conn, ph, i int) outcome {
	in := s.insertion(ph, i)
	c.body = appendInsert(c.body[:0], in)
	o := c.call("POST", "/v1/engines/"+benchEngine+"/objects", c.body, nil)
	if o == ok {
		s.mu.Lock()
		s.acked = append(s.acked, in)
		s.mu.Unlock()
	}
	return o
}

// deleteOldest deletes the oldest acknowledged insert. A delete that fails
// puts the object back: it counts as still live for the end-of-run check.
func (s *engineScenario) deleteOldest(c *conn) (outcome, insertion) {
	s.mu.Lock()
	if len(s.acked) == 0 {
		s.mu.Unlock()
		return failed, insertion{}
	}
	in := s.acked[0]
	s.acked = s.acked[1:]
	s.mu.Unlock()
	path := fmt.Sprintf("/v1/engines/%s/objects/%d?type=%d", benchEngine, in.id, in.typ)
	o := c.call("DELETE", path, nil, nil)
	if o != ok {
		s.mu.Lock()
		s.acked = append(s.acked, in)
		s.mu.Unlock()
	}
	return o, in
}

// verify checks mixed-rw's mutated engine against a fresh engine built
// from the final object sets: equal object counts, and costs within
// relative error 1e-9 on checkVectors pool vectors. Both engines'
// combination counts go into notes: at this scale the incremental repair
// keeps a few more or fewer (degenerate) combinations than a rebuild finds,
// without changing any answer, so a difference is recorded rather than
// failed. The other engine workloads checked every answer as it arrived.
func (s *engineScenario) verify(c *conn, notes map[string]float64) (int, error) {
	if s.mode != modeMixed {
		return 0, nil
	}
	types := make([]httpapi.TypeJSON, len(s.types))
	for t, tj := range s.types {
		types[t] = httpapi.TypeJSON{Name: tj.Name, Objects: append([]httpapi.ObjectJSON(nil), tj.Objects...)}
	}
	s.mu.Lock()
	for _, in := range s.acked {
		types[in.typ].Objects = append(types[in.typ].Objects, httpapi.ObjectJSON{X: in.x, Y: in.y})
	}
	s.mu.Unlock()
	var info httpapi.EngineInfo
	if o := c.call("GET", "/v1/engines/"+benchEngine, nil, &info); o != ok {
		return 0, fmt.Errorf("mixed-rw check: engine info: %s", c.resp)
	}
	for t := range types {
		if t >= len(info.Objects) || info.Objects[t] != len(types[t].Objects) {
			return 0, fmt.Errorf("mixed-rw check: served engine holds %v objects, acknowledged mutations leave type %d with %d",
				info.Objects, t, len(types[t].Objects))
		}
	}
	in, err := httpapi.BuildInput(types, benchBounds(), 0)
	if err != nil {
		return 0, err
	}
	in.DisableDiagramCache = true
	fresh, err := query.NewEngine(in, query.RRB)
	if err != nil {
		return 0, err
	}
	notes["combinations_mutated"] = float64(info.Combinations)
	notes["combinations_rebuilt"] = float64(fresh.Combinations())
	bad := 0
	for v := 0; v < checkVectors; v++ {
		var resp httpapi.SolveResponse
		if o := c.call("POST", "/v1/engines/"+benchEngine+"/query", s.bodies[v], &resp); o != ok {
			return bad, fmt.Errorf("mixed-rw check: query: %s", c.resp)
		}
		res, err := fresh.Query(s.vecs[v])
		if err != nil {
			return bad, err
		}
		if math.Abs(resp.Cost-res.Cost) > 1e-9*math.Abs(res.Cost) {
			bad++
		}
	}
	return bad, nil
}

func (s *engineScenario) replay(c *conn, n int, setup time.Duration) ([]replayItem, map[string]float64, error) {
	ctx := context.Background()
	var items []replayItem
	// Engine set-up runs the VD generator and the overlapper once per
	// engine; an in-process solve of each set-up dataset times those phases
	// (query.NewEngine reports only their sum).
	for k := range s.setupBodies {
		it := replayItem{op: "setup", o: ok, at: time.Now(), built: true}
		var req httpapi.EngineRequest
		if err := json.Unmarshal(s.setupBodies[k], &req); err != nil {
			return nil, nil, err
		}
		in, err := httpapi.BuildInput(req.Types, req.Bounds, req.Epsilon)
		if err != nil {
			return nil, nil, err
		}
		in.DisableDiagramCache = true
		it.decode = time.Since(it.at)
		start := time.Now()
		res, err := query.SolveContext(ctx, in, query.RRB)
		if err != nil {
			return nil, nil, err
		}
		it.call = time.Since(start)
		it.stats = &res.Stats
		items = append(items, it)
	}
	if s.mode == modeCluster {
		return s.replayCluster(c, n, setup, items)
	}
	eng := s.api.Engine(benchEngine)
	if eng == nil {
		return nil, nil, fmt.Errorf("engine %q not registered", benchEngine)
	}
	var local []insertion // inserted in-process, not yet deleted
	for i := 0; i < n; i++ {
		it := replayItem{op: s.opOf(i), at: time.Now()}
		var err error
		switch it.op {
		case "query":
			err = s.replayQuery(c, eng, i, &it)
		case "insert":
			err = s.replayInsert(c, eng, i, &it, &local)
		case "delete":
			err = s.replayDelete(c, eng, &it, &local)
		}
		if err != nil {
			return nil, nil, err
		}
		items = append(items, it)
	}
	return items, nil, nil
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

func (s *engineScenario) replayQuery(c *conn, eng *query.Engine, i int, it *replayItem) error {
	v := pick(s.seed, phReplay, i, vectorPool)
	var resp httpapi.SolveResponse
	if it.o = c.call("POST", "/v1/engines/"+benchEngine+"/query", s.bodies[v], &resp); it.o != ok {
		return nil
	}
	it.rtt = time.Since(it.at)
	var vecs [][]float64
	var res query.Result
	var err error
	if it.decode, err = timed(func() (err error) {
		vecs, _, err = httpapi.ParseEngineQueryBody(s.bodies[v])
		return err
	}); err != nil {
		return err
	}
	if it.call, err = timed(func() (err error) {
		res, err = eng.QueryContext(context.Background(), vecs[0])
		return err
	}); err != nil {
		return err
	}
	it.stats = &res.Stats
	it.encode, err = timed(func() error {
		_, err := json.Marshal(httpapi.SolveResponse{
			Location: httpapi.PointJSON{X: res.Loc.X, Y: res.Loc.Y}, Cost: res.Cost,
			Method: res.Method.String(), OVRs: res.Stats.OVRs, Groups: res.Stats.Groups,
			Micros: res.Stats.TotalTime.Microseconds(),
		})
		return err
	})
	if s.mode != modeMixed && !(s.want[v].is(resp) && s.want[v] == answer{res.Loc.X, res.Loc.Y, res.Cost}) {
		it.o = wrong
	}
	return err
}

// replayInsert inserts one object over HTTP and a different one in-process
// into the same engine, so both paths do a real insert.
func (s *engineScenario) replayInsert(c *conn, eng *query.Engine, i int, it *replayItem, local *[]insertion) error {
	if it.o = s.insert(c, phReplay, i); it.o != ok {
		return nil
	}
	it.rtt = time.Since(it.at)
	own := s.insertion(phInproc, i)
	body := appendInsert(nil, own)
	var req httpapi.ObjectUpsertRequest
	var us query.UpdateStats
	var err error
	if it.decode, err = timed(func() error { return json.Unmarshal(body, &req) }); err != nil {
		return err
	}
	if it.call, err = timed(func() (err error) {
		us, err = eng.InsertObject(core.Object{ID: req.ID, Type: req.Type, Loc: geom.Pt(req.X, req.Y), ObjWeight: 1})
		return err
	}); err != nil {
		return err
	}
	*local = append(*local, own)
	it.update = &us
	it.encode, err = timed(func() error { return encodeUpdate(eng, us) })
	return err
}

func (s *engineScenario) replayDelete(c *conn, eng *query.Engine, it *replayItem, local *[]insertion) error {
	if it.o, _ = s.deleteOldest(c); it.o != ok {
		return nil
	}
	it.rtt = time.Since(it.at)
	if len(*local) == 0 {
		return fmt.Errorf("replay: no in-process insert to delete")
	}
	own := (*local)[0]
	*local = (*local)[1:]
	idText, typeText := strconv.Itoa(own.id), strconv.Itoa(own.typ)
	var id, typ int
	var us query.UpdateStats
	var err error
	if it.decode, err = timed(func() (err error) {
		if id, err = strconv.Atoi(idText); err != nil {
			return err
		}
		typ, err = strconv.Atoi(typeText)
		return err
	}); err != nil {
		return err
	}
	if it.call, err = timed(func() (err error) {
		us, err = eng.DeleteObject(typ, id)
		return err
	}); err != nil {
		return err
	}
	it.update = &us
	it.encode, err = timed(func() error { return encodeUpdate(eng, us) })
	return err
}

func encodeUpdate(eng *query.Engine, us query.UpdateStats) error {
	_, err := json.Marshal(httpapi.UpdateResponse{
		Engine: benchEngine, Version: us.Version, Incremental: !us.Rebuilt,
		DirtyCells: us.DirtyCells, OVRs: us.NewOVRs, Combinations: eng.Combinations(),
		Micros: us.TotalTime.Microseconds(),
	})
	return err
}

// replayCluster replays router queries: the router round trip, then the
// router's own steps from outside — body parse, shard request marshal, one
// direct POST per shard to the replica shard route (responses decoded),
// the same shard queries in-process on engines cut exactly as the router
// cuts them, min-reduce and response encode. The shard cut also times the
// snapshot codec the router ships with.
func (s *engineScenario) replayCluster(c *conn, n int, setup time.Duration, items []replayItem) ([]replayItem, map[string]float64, error) {
	movd, sets, version := s.ref.Prepared()
	strips := cluster.Strips(s.in.Bounds, conns())
	subs := cluster.SplitMOVD(movd, strips)
	shards := make([]*query.Engine, len(strips))
	var bytesOut int
	var write, read time.Duration
	codec := replayItem{op: "store", o: ok, at: time.Now()}
	for sh := range strips {
		meta := cluster.ShardMetaFor(benchEngine, s.in, query.RRB, sh, len(strips), strips[sh],
			version, engineTypeNames, sets)
		var buf bytes.Buffer
		d, err := timed(func() error { return store.WriteShard(&buf, meta, subs[sh]) })
		if err != nil {
			return nil, nil, err
		}
		write += d
		bytesOut += buf.Len()
		var meta2 store.ShardMeta
		var sub *core.MOVD
		if d, err = timed(func() (err error) {
			meta2, sub, err = store.ReadShard(bytes.NewReader(buf.Bytes()))
			return err
		}); err != nil {
			return nil, nil, err
		}
		read += d
		if shards[sh], err = cluster.EngineFromShard(meta2, sub); err != nil {
			return nil, nil, err
		}
	}
	codec.storeWrite, codec.storeRead = write, read
	items = append(items, codec)
	// The router ships every shard to every replica during set-up.
	extra := map[string]float64{
		"store.shard_bytes":     float64(bytesOut),
		"store.write_shard_pct": 100 * float64(clusterReplicas) * float64(write) / float64(setup),
		"store.read_shard_pct":  100 * float64(clusterReplicas) * float64(read) / float64(setup),
	}

	ctx := context.Background()
	for i := 0; i < n; i++ {
		it := replayItem{op: "query", at: time.Now()}
		v := pick(s.seed, phReplay, i, vectorPool)
		var resp httpapi.SolveResponse
		if it.o = c.call("POST", "/v1/engines/"+benchEngine+"/query", s.bodies[v], &resp); it.o != ok {
			items = append(items, it)
			continue
		}
		it.rtt = time.Since(it.at)
		var vecs [][]float64
		var raw []byte
		var err error
		if it.decode, err = timed(func() (err error) {
			vecs, _, err = httpapi.ParseEngineQueryBody(s.bodies[v])
			return err
		}); err != nil {
			return nil, nil, err
		}
		if it.marshal, err = timed(func() (err error) {
			raw, err = json.Marshal(cluster.ShardQueryRequest{Vectors: vecs})
			return err
		}); err != nil {
			return nil, nil, err
		}
		answers := make([]cluster.ShardAnswer, len(shards))
		for sh := range shards {
			url := fmt.Sprintf("%s/cluster/v1/shards/%s/%d/query", s.replicaURLs[(i+sh)%len(s.replicaURLs)], benchEngine, sh)
			start := time.Now()
			status, err := c.do("POST", url, raw)
			if err != nil || status != 200 {
				return nil, nil, fmt.Errorf("shard %d query: status %d: %v %s", sh, status, err, c.resp)
			}
			it.shardRTT = max(it.shardRTT, time.Since(start))
			var sq cluster.ShardQueryResponse
			d, err := timed(func() error { return json.Unmarshal(c.resp, &sq) })
			if err != nil || len(sq.Answers) != 1 {
				return nil, nil, fmt.Errorf("shard %d query: bad response %s", sh, c.resp)
			}
			it.marshal += d
			it.shardCompute = max(it.shardCompute, time.Duration(sq.Micros)*time.Microsecond)
			answers[sh] = sq.Answers[0]
		}
		st := query.Stats{}
		for sh, eng := range shards {
			start := time.Now()
			res, err := eng.QueryBatchContext(ctx, vecs)
			if err != nil {
				return nil, nil, err
			}
			st.OptimizeTime = max(st.OptimizeTime, time.Since(start))
			f := res[0].Stats.Fermat
			st.Fermat.Problems += f.Problems
			st.Fermat.ExactSolves += f.ExactSolves
			st.Fermat.Prefiltered += f.Prefiltered
			st.Fermat.TotalIters += f.TotalIters
			a := answers[sh]
			if a.X != res[0].Loc.X || a.Y != res[0].Loc.Y || a.Cost != res[0].Cost {
				it.o = wrong
			}
		}
		st.TotalTime = st.OptimizeTime
		it.stats = &st
		it.call = it.marshal + st.OptimizeTime
		best := 0
		for sh := range answers {
			if answers[sh].Cost < answers[best].Cost {
				best = sh
			}
		}
		got := answer{answers[best].X, answers[best].Y, answers[best].Cost}
		if got != s.want[v] || !s.want[v].is(resp) {
			it.o = wrong
		}
		if it.encode, err = timed(func() error {
			_, err := json.Marshal(httpapi.SolveResponse{
				Location: httpapi.PointJSON{X: got.x, Y: got.y}, Cost: got.cost,
				Method: answers[best].Method, Micros: it.rtt.Microseconds(),
			})
			return err
		}); err != nil {
			return nil, nil, err
		}
		items = append(items, it)
	}
	return items, extra, nil
}
