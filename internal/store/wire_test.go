package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"molq/internal/cluster"
	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/query"
	"molq/internal/store"
)

// paperShards cuts the serving benchmark's engine shape — three clustered
// paper types (STM, CH, SCH) of 1,000 objects each, RRB — into the two
// strips a two-replica router ships, and returns each shard's meta and
// sub-diagram alongside the whole prepared diagram. The engine is built
// once per test binary.
var paperShards = sync.OnceValues(func() (*paperCut, error) {
	names := []string{dataset.STM, dataset.CH, dataset.SCH}
	in := query.Input{
		Sets:                make([][]core.Object, len(names)),
		Bounds:              dataset.DefaultBounds,
		DisableDiagramCache: true,
		Replicas:            2,
	}
	for ti, name := range names {
		for i, p := range dataset.Generate(dataset.Config{Seed: 1}, name, 1000) {
			in.Sets[ti] = append(in.Sets[ti], core.Object{ID: i, Type: ti, Loc: p, TypeWeight: 1, ObjWeight: 1})
		}
	}
	eng, err := query.NewEngine(in, query.RRB)
	if err != nil {
		return nil, err
	}
	movd, sets, version := eng.Prepared()
	strips := cluster.Strips(in.Bounds, 2)
	cut := &paperCut{movd: movd, subs: cluster.SplitMOVD(movd, strips)}
	for s, strip := range strips {
		cut.metas = append(cut.metas, cluster.ShardMetaFor("paper", in, query.RRB, s, len(strips),
			strip, version, names, sets))
	}
	return cut, nil
})

type paperCut struct {
	movd  *core.MOVD
	metas []store.ShardMeta
	subs  []*core.MOVD
}

func loadPaperShards(tb testing.TB) *paperCut {
	tb.Helper()
	cut, err := paperShards()
	if err != nil {
		tb.Fatal(err)
	}
	return cut
}

// TestWireFormatPinned pins the snapshot byte format: the SHA-256 of both
// shard snapshots and of the whole-diagram MOVD stream for a fixed engine.
// Old snapshots, spill files and replicas must keep interoperating with any
// codec change, so a codec rewrite must reproduce these bytes exactly. The
// diagram itself comes from floating-point geometry, which other
// architectures may round differently (fused multiply-add), so the hashes
// are pinned on amd64 only; the round trip runs everywhere.
func TestWireFormatPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3 × 1,000 engine")
	}
	cut := loadPaperShards(t)
	want := []string{
		"da6b26d13f62fbfcadbf4d340d52b46de4e5954d18505ff08c690ea2375059ac", // shard 0
		"b742e00a36598ec8d72212b42558d8962163bb47387bf09c56a43be049a9fc89", // shard 1
		"7c2448328b26a8f7041d3d003503c0932c831e08cc336d37ca82a753fcc10508", // whole MOVD
	}
	var got []string
	for s := range cut.subs {
		var buf bytes.Buffer
		if err := store.WriteShard(&buf, cut.metas[s], cut.subs[s]); err != nil {
			t.Fatal(err)
		}
		meta, sub, err := store.ReadShard(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if !reflect.DeepEqual(meta, cut.metas[s]) {
			t.Fatalf("shard %d: meta does not round-trip", s)
		}
		if !reflect.DeepEqual(sub, cut.subs[s]) {
			t.Fatalf("shard %d: diagram does not round-trip", s)
		}
		sum := sha256.Sum256(buf.Bytes())
		got = append(got, hex.EncodeToString(sum[:]))
	}
	var buf bytes.Buffer
	if err := store.WriteMOVD(&buf, cut.movd); err != nil {
		t.Fatal(err)
	}
	m, err := store.ReadMOVD(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, cut.movd) {
		t.Fatal("whole diagram does not round-trip")
	}
	sum := sha256.Sum256(buf.Bytes())
	got = append(got, hex.EncodeToString(sum[:]))
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes pinned on amd64; got %v", got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot bytes changed:\n got %q\nwant %q", got, want)
	}
}

// BenchmarkShardCodec times the shard snapshot codec on shard 0 of the
// serving benchmark's engine shape (see paperShards), the bytes a router
// ships per replica. SetBytes makes benchdiff report MB/s.
func BenchmarkShardCodec(b *testing.B) {
	cut := loadPaperShards(b)
	var buf bytes.Buffer
	if err := store.WriteShard(&buf, cut.metas[0], cut.subs[0]); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("write/paper3x1000", func(b *testing.B) {
		out := bytes.NewBuffer(make([]byte, 0, len(raw)))
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := store.WriteShard(out, cut.metas[0], cut.subs[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read/paper3x1000", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := store.ReadShard(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
