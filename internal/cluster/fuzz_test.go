package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/query"
	"molq/internal/store"
)

// fuzzShardBytes encodes shard 0 of a small two-type RRB engine cut into two
// strips, the way the router ships it.
func fuzzShardBytes(tb testing.TB) []byte {
	tb.Helper()
	r := rand.New(rand.NewSource(3))
	sets := make([][]core.Object, 2)
	for ti := range sets {
		for i := 0; i < 8; i++ {
			sets[ti] = append(sets[ti], core.Object{
				ID: i, Type: ti, Loc: geom.Pt(r.Float64()*100, r.Float64()*100),
				TypeWeight: 1, ObjWeight: 1,
			})
		}
	}
	in := query.Input{Sets: sets, Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), DisableDiagramCache: true}
	eng, err := query.NewEngine(in, query.RRB)
	if err != nil {
		tb.Fatal(err)
	}
	movd, cur, version := eng.Prepared()
	strips := Strips(in.Bounds, 2)
	meta := ShardMetaFor("e", in, query.RRB, 0, len(strips), strips[0], version, nil, cur)
	var buf bytes.Buffer
	if err := store.WriteShard(&buf, meta, SplitMOVD(movd, strips)[0]); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// installFuzzShard decodes and installs raw as a replica's install route
// does, so every fuzz input meets a fresh shard.
func installFuzzShard(tb testing.TB, raw []byte) *installedShard {
	tb.Helper()
	meta, movd, err := store.ReadShard(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	ss := NewShardStore()
	if _, err := ss.Install(meta, movd); err != nil {
		tb.Fatal(err)
	}
	return ss.get(meta.Engine, meta.Shard)
}

// FuzzApplyDelta decodes a delta body as the replica's delta route does and
// applies it to a freshly installed shard: every input must decode to an
// error, a stale or refused mutation, or an applied one, never a panic.
func FuzzApplyDelta(f *testing.F) {
	raw := fuzzShardBytes(f)
	for _, seed := range []string{
		`{"engine":"e","shard":0,"from_version":1,"to_version":2,"op":"insert","type":0,"id":100,"x":10,"y":20}`,
		`{"engine":"e","shard":0,"from_version":1,"to_version":2,"op":"delete","type":1,"id":3}`,
		`{"from_version":1,"to_version":2,"op":"insert","type":0,"id":100,"x":10,"y":20,"obj_weight":-1}`,
		`{"from_version":1,"to_version":2,"op":"insert","type":7,"id":100,"x":10,"y":20}`,
		`{"from_version":1,"to_version":2,"op":"insert","type":-1,"id":100}`,
		`{"from_version":1,"to_version":2,"op":"delete","type":0,"id":99}`,
		`{"from_version":1,"to_version":2,"op":"insert","type":0,"id":1,"x":1e300,"y":-1e300}`,
		`{"from_version":5,"to_version":6,"op":"delete","type":0,"id":1}`,
		`{"from_version":1,"to_version":2,"op":"upsert"}`,
		`{"op":1}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var d Delta
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&d); err != nil {
			return
		}
		sh := installFuzzShard(t, raw)
		before := sh.version
		if _, err := sh.ApplyDelta(d); err != nil {
			if sh.version != before {
				t.Fatalf("failed delta %+v moved the shard from version %d to %d", d, before, sh.version)
			}
			return
		}
		if sh.version != d.ToVersion {
			t.Fatalf("applied delta %+v left the shard at version %d", d, sh.version)
		}
		if _, err := sh.eng.QueryBatchContext(context.Background(), [][]float64{{1, 1}}); err != nil && !errors.Is(err, query.ErrCostOverflow) {
			t.Fatalf("shard refuses unit weights after applied delta %+v: %v", d, err)
		}
	})
}

// FuzzShardQuery decodes a shard-query body as the replica's query route
// does and runs it on an installed shard: every input must decode to an
// error, a refused batch, or a response with one answer per vector that
// encodes as JSON, never a panic.
func FuzzShardQuery(f *testing.F) {
	sh := installFuzzShard(f, fuzzShardBytes(f))
	for _, seed := range []string{
		`{"type_weights":[[1,2]]}`,
		`{"type_weights":[[1,2],[3,0.5]]}`,
		`{"type_weights":[]}`,
		`{"type_weights":[[1]]}`,
		`{"type_weights":[[1,2,3]]}`,
		`{"type_weights":[[0,-1]]}`,
		`{"type_weights":[[1e308,1e308]]}`,
		`{"type_weights":[[5e-324,1]]}`,
		`{"type_weights":[null]}`,
		`{"type_weights":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var q ShardQueryRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&q); err != nil || len(q.Vectors) == 0 {
			return
		}
		res, err := sh.eng.QueryBatchContext(context.Background(), q.Vectors)
		if err != nil {
			return
		}
		if len(res) != len(q.Vectors) {
			t.Fatalf("%d vectors answered with %d results", len(q.Vectors), len(res))
		}
		resp := ShardQueryResponse{Answers: make([]ShardAnswer, len(res))}
		for i, r := range res {
			resp.Answers[i] = ShardAnswer{X: r.Loc.X, Y: r.Loc.Y, Cost: r.Cost, Method: r.Method.String()}
		}
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("answer to %v does not encode: %v", q.Vectors, err)
		}
	})
}
