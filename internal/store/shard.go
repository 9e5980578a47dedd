package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"molq/internal/core"
	"molq/internal/geom"
)

// A shard snapshot is the unit the cluster tier ships to replicas: one
// spatial strip of a prepared engine, stamped with the engine version it was
// cut from so splice deltas can be applied in order and staleness detected.
// The format wraps the version-2 MOVD stream with a metadata preamble:
//
//	magic "MOVS" | version u16 | meta… | crc32(meta) u32 | MOVD stream
//
// The meta block carries everything a replica needs to reconstruct a
// query.Input around the shipped diagram — the FULL object sets (a
// mutation's Voronoi influence can cross strip boundaries, so strip-local
// rebuilds still need every site), the strip this shard owns, and the
// solver options. Method and weight kinds travel as raw numeric codes:
// store stays import-free of query, and the cluster layer owns the mapping.
// The embedded MOVD stream keeps its own checksum footer, so both halves of
// the file are independently integrity-checked.

const (
	shardMagic   = "MOVS"
	shardVersion = 1
)

// Shard snapshot errors.
var (
	ErrBadShardMagic   = errors.New("store: not a shard snapshot")
	ErrBadShardVersion = errors.New("store: unsupported shard snapshot version")
	ErrShardChecksum   = errors.New("store: shard metadata checksum mismatch")
)

// ShardMeta describes one shipped shard of a prepared engine.
type ShardMeta struct {
	// Engine is the engine name the shard belongs to.
	Engine string
	// Shard and NShards identify this strip in the engine's decomposition.
	Shard   int
	NShards int
	// Version is the engine snapshot version the shard was cut from. Deltas
	// are keyed by it: a replica applies a delta only when its installed
	// version matches the delta's from-version.
	Version int64
	// Method is the numeric query.Method code (store does not import query).
	Method uint8
	// Epsilon and WeightedEpsilon are the solver options the engine was
	// prepared with.
	Epsilon         float64
	WeightedEpsilon float64
	// Strip is the spatial interval this shard owns; Bounds is the full
	// engine search space.
	Strip  geom.Rect
	Bounds geom.Rect
	// TypeNames and Kinds describe the object sets (Kinds holds numeric
	// query.WeightKind codes).
	TypeNames []string
	Kinds     []uint8
	// Sets holds the complete object sets — not just the strip's — so the
	// replica can rebuild locally after mutations whose influence crosses
	// the strip boundary.
	Sets [][]core.Object
	// Replicas is the engine's per-core read-replica count.
	Replicas int
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<16 {
		r.err = fmt.Errorf("store: corrupt shard meta (string length %d)", n)
		return ""
	}
	// The cap equals the reader's buffer size, so the whole string can be
	// peeked: it is copied out only once its bytes have arrived.
	b := r.peek(int(n))
	if b == nil {
		return ""
	}
	s := string(b)
	r.consume(b)
	return s
}

// WriteShard serialises one shard: the metadata preamble followed by the
// embedded MOVD stream.
func WriteShard(dst io.Writer, meta ShardMeta, m *core.MOVD) error {
	if len(meta.TypeNames) != len(meta.Sets) || len(meta.Kinds) != len(meta.Sets) {
		return fmt.Errorf("store: shard meta type arity mismatch: %d names, %d kinds, %d sets",
			len(meta.TypeNames), len(meta.Kinds), len(meta.Sets))
	}
	w := &writer{w: bufio.NewWriterSize(dst, 1<<16)}
	if _, err := w.w.WriteString(shardMagic); err != nil {
		return err
	}
	w.u16(shardVersion)
	w.crc = crc32.NewIEEE()
	b := appendStr(w.scratch[:0], meta.Engine)
	b = binary.LittleEndian.AppendUint32(b, uint32(meta.Shard))
	b = binary.LittleEndian.AppendUint32(b, uint32(meta.NShards))
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Version))
	b = append(b, meta.Method)
	b = appendF64(b, meta.Epsilon)
	b = appendF64(b, meta.WeightedEpsilon)
	b = appendRect(b, meta.Strip)
	b = appendRect(b, meta.Bounds)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(meta.Sets)))
	w.emit(b)
	// One checksum update and one buffered write per object set.
	for ti, set := range meta.Sets {
		b = appendStr(b[:0], meta.TypeNames[ti])
		b = append(b, meta.Kinds[ti])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(set)))
		for i := range set {
			b = appendObject(b, &set[i])
		}
		w.emit(b)
	}
	w.scratch = b
	w.i32(int32(meta.Replicas))
	crc := w.crc.Sum32()
	w.crc = nil
	w.u32(crc)
	return w.movd(m)
}

// ReadShard deserialises a shard snapshot written by WriteShard, verifying
// both the metadata checksum and the embedded MOVD's integrity footer.
func ReadShard(src io.Reader) (ShardMeta, *core.MOVD, error) {
	var meta ShardMeta
	r := newReader(src, 1<<16, true)
	mg := make([]byte, 4)
	if _, err := io.ReadFull(r.r, mg); err != nil {
		return meta, nil, err
	}
	if string(mg) != shardMagic {
		return meta, nil, ErrBadShardMagic
	}
	if v := r.u16(); v != shardVersion {
		if r.err != nil {
			return meta, nil, r.err
		}
		return meta, nil, fmt.Errorf("%w: %d", ErrBadShardVersion, v)
	}
	r.crc = crc32.NewIEEE()
	meta.Engine = r.str()
	meta.Shard = int(r.u32())
	meta.NShards = int(r.u32())
	meta.Version = r.i64()
	meta.Method = r.read(1)[0]
	meta.Epsilon = r.f64()
	meta.WeightedEpsilon = r.f64()
	meta.Strip = r.rect()
	meta.Bounds = r.rect()
	nt := r.u32()
	if r.err != nil {
		return meta, nil, r.err
	}
	if nt > 1<<16 {
		return meta, nil, fmt.Errorf("store: corrupt shard meta (type count %d)", nt)
	}
	// nt and each set's object count are untrusted: the per-type slices
	// grow as the sets arrive, and a set's objects as their bytes do.
	c := min(nt, 16)
	meta.TypeNames = make([]string, 0, c)
	meta.Kinds = make([]uint8, 0, c)
	meta.Sets = make([][]core.Object, 0, c)
	per := uint32(r.r.Size() / objectSize)
	for range nt {
		name := r.str()
		kind := r.read(1)[0]
		no := r.u32()
		if r.err != nil {
			return meta, nil, r.err
		}
		if no > maxReasonable {
			return meta, nil, fmt.Errorf("store: corrupt shard meta (object count %d)", no)
		}
		meta.TypeNames = append(meta.TypeNames, name)
		meta.Kinds = append(meta.Kinds, kind)
		meta.Sets = append(meta.Sets, r.objects(r.pois.take(int(min(no, per)))[:0], no))
	}
	meta.Replicas = int(r.i32())
	want := r.crc.Sum32()
	r.crc = nil
	got := r.u32()
	if r.err != nil {
		return meta, nil, r.err
	}
	if got != want {
		return meta, nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrShardChecksum, got, want)
	}
	// The MOVD stream continues in the same buffered reader.
	m, err := r.movd()
	if err != nil {
		return meta, nil, err
	}
	return meta, m, nil
}
