package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// hostileBudget bounds what decoding a stream may allocate: a fixed budget
// (the 64 KiB read buffer and the reader's own state) plus a small multiple
// of the bytes that actually arrived.
func hostileBudget(n int) uint64 { return 256<<10 + 16*uint64(n) }

// allocDuring reports the bytes allocated while f runs. TotalAlloc only
// grows and ReadMemStats flushes the per-P allocation caches into it, so no
// collection is needed first; the fuzz targets call this on every input.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// movdHead appends a MOVD header with the given type count (the types
// themselves are not appended) and OVR count.
func movdHead(b []byte, types uint32, count int64) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = append(b, 0) // RRB
	for _, v := range []float64{0, 0, 10, 10} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, types)
	return binary.LittleEndian.AppendUint64(b, uint64(count))
}

// shardHead appends a MOVS preamble up to and including the type count,
// with the engine name's length prefix set to nameLen (and nameLen bytes
// of name only when short).
func shardHead(b []byte, nameLen, types uint32) []byte {
	b = append(b, shardMagic...)
	b = binary.LittleEndian.AppendUint16(b, shardVersion)
	b = binary.LittleEndian.AppendUint32(b, nameLen)
	if nameLen > 8 {
		return b
	}
	b = append(b, make([]byte, nameLen)...)
	b = binary.LittleEndian.AppendUint32(b, 0) // shard
	b = binary.LittleEndian.AppendUint32(b, 1) // shards
	b = binary.LittleEndian.AppendUint64(b, 1) // version
	b = append(b, 0)                           // method
	b = append(b, make([]byte, 2*8+2*32)...)   // epsilons, strip, bounds
	return binary.LittleEndian.AppendUint32(b, types)
}

// sealMeta appends a zero replica count and the meta checksum to a MOVS
// preamble with no sets, so the embedded MOVD stream is decoded next.
func sealMeta(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, 0) // replicas
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(shardMagic)+2:]))
}

// minimalRecords appends n OVR records with no vertices and no POIs, the
// fewest bytes a record can take.
func minimalRecords(b []byte, n int) []byte {
	rec := make([]byte, 4+rectSize+4)
	for range n {
		b = append(b, rec...)
	}
	return b
}

// TestHostileHeaders feeds each untrusted count at its cap with nothing
// after it, and OVR counts that are unknown, too small or too large ahead
// of many minimal records, and checks that decoding fails while allocating
// no more than hostileBudget of the input length.
func TestHostileHeaders(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	movdCases := []struct {
		name string
		raw  []byte
	}{
		{"header type count", movdHead(nil, 1<<16, 0)},
		{"header OVR count", movdHead(nil, 0, maxReasonable)},
		{"record vertex count", u32(movdHead(nil, 0, 1), maxReasonable)},
		{"record POI count", u32(append(u32(movdHead(nil, 0, 1), 0), make([]byte, rectSize)...), maxReasonable)},
		{"unknown OVR count, many records", minimalRecords(movdHead(nil, 0, -1), 1e5)},
		{"OVR count 1, many records", minimalRecords(movdHead(nil, 0, 1), 1e5)},
		// One record past a growth step, where the unused capacity peaks.
		{"OVR count at cap, many records", minimalRecords(movdHead(nil, 0, maxReasonable), growFloor*growFactor*growFactor+1)},
	}
	for _, tc := range movdCases {
		var err error
		got := allocDuring(func() { _, err = ReadMOVD(bytes.NewReader(tc.raw)) })
		if err == nil {
			t.Errorf("ReadMOVD %s: decoded a truncated stream", tc.name)
		}
		if limit := hostileBudget(len(tc.raw)); got > limit {
			t.Errorf("ReadMOVD %s: %d-byte stream allocated %d bytes, budget %d", tc.name, len(tc.raw), got, limit)
		}
	}
	set := func(no uint32) []byte {
		b := shardHead(nil, 0, 1)
		b = u32(b, 0)    // type name length
		b = append(b, 0) // kind
		return u32(b, no)
	}
	shardCases := []struct {
		name string
		raw  []byte
	}{
		{"meta name length", shardHead(nil, 1<<16, 0)},
		{"meta type count", shardHead(nil, 0, 1<<16)},
		{"meta set object count", set(maxReasonable)},
		{"embedded OVR count", movdHead(sealMeta(shardHead(nil, 0, 0)), 0, maxReasonable)},
		{"embedded OVR count after a large set", movdHead(sealMeta(append(set(1e4), make([]byte, 1e4*objectSize)...)), 0, maxReasonable)},
	}
	for _, tc := range shardCases {
		var err error
		got := allocDuring(func() { _, _, err = ReadShard(bytes.NewReader(tc.raw)) })
		if err == nil {
			t.Errorf("ReadShard %s: decoded a truncated stream", tc.name)
		}
		if limit := hostileBudget(len(tc.raw)); got > limit {
			t.Errorf("ReadShard %s: %d-byte stream allocated %d bytes, budget %d", tc.name, len(tc.raw), got, limit)
		}
	}
}
