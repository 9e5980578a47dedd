package store

import (
	"bytes"
	"reflect"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// FuzzReadMOVD checks the snapshot decoder never panics or over-allocates on
// arbitrary input, and that valid snapshots round-trip.
func FuzzReadMOVD(f *testing.F) {
	// Seed with a valid snapshot and some corruptions of it.
	m := &core.MOVD{
		Mode:   core.RRB,
		Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)),
		Types:  []int{0},
		OVRs: []core.OVR{{
			Region: geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)),
			MBR:    geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)),
			POIs:   []core.Object{{ID: 1, Type: 0, Loc: geom.Pt(0.5, 0.5), TypeWeight: 1, ObjWeight: 1}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MOVD"))
	if len(valid) > 10 {
		truncated := make([]byte, len(valid)-9)
		copy(truncated, valid)
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[7] ^= 0xFF
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadMOVD(bytes.NewReader(data))
		if err != nil {
			return // malformed inputs must fail cleanly, not panic
		}
		// Anything that decodes must re-encode.
		var out bytes.Buffer
		if err := WriteMOVD(&out, got); err != nil {
			t.Fatalf("re-encode of decoded snapshot failed: %v", err)
		}
	})
}

// FuzzReadShard checks the shard snapshot decoder never panics or
// over-allocates on arbitrary input — the replica's install route is exempt
// from the HTTP body cap, so this decoder is what bounds it — and that
// anything it accepts re-encodes to a stable form.
func FuzzReadShard(f *testing.F) {
	m := &core.MOVD{
		Mode:   core.RRB,
		Bounds: geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)),
		Types:  []int{0, 1},
		OVRs: []core.OVR{{
			Region: geom.NewPolygon(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)),
			MBR:    geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)),
			POIs: []core.Object{
				{ID: 1, Type: 0, Loc: geom.Pt(0.5, 0.5), TypeWeight: 1, ObjWeight: 1},
				{ID: 2, Type: 1, Loc: geom.Pt(0.2, 0.7), TypeWeight: 2, ObjWeight: 1},
			},
		}},
	}
	meta := ShardMeta{
		Engine: "e", Shard: 1, NShards: 2, Version: 3, Method: 1,
		Epsilon: 1e-3, WeightedEpsilon: 0.1,
		Strip:     geom.NewRect(geom.Pt(5, 0), geom.Pt(10, 10)),
		Bounds:    m.Bounds,
		TypeNames: []string{"a", "b"},
		Kinds:     []uint8{0, 1},
		Sets:      [][]core.Object{{m.OVRs[0].POIs[0]}, {m.OVRs[0].POIs[1]}},
		Replicas:  2,
	}
	var buf bytes.Buffer
	if err := WriteShard(&buf, meta, m); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	got, gotM, err := ReadShard(bytes.NewReader(valid))
	if err != nil {
		f.Fatalf("valid shard does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, meta) || len(gotM.OVRs) != len(m.OVRs) {
		f.Fatalf("valid shard does not round-trip: meta %+v, %d OVRs", got, len(gotM.OVRs))
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MOVS"))
	for _, cut := range []int{6, 12, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	for _, at := range []int{4, 10, 40, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0xFF
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, m, err := ReadShard(bytes.NewReader(data))
		if err != nil {
			return // malformed inputs must fail cleanly, not panic
		}
		var once bytes.Buffer
		if err := WriteShard(&once, meta, m); err != nil {
			t.Fatalf("re-encode of decoded shard failed: %v", err)
		}
		meta2, m2, err := ReadShard(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded shard does not decode: %v", err)
		}
		var twice bytes.Buffer
		if err := WriteShard(&twice, meta2, m2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("decoded shard does not round-trip")
		}
	})
}
