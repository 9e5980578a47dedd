// Package store provides the disk-based processing layer sketched in the
// paper's future work (Sec 8): binary snapshots of MOVDs, overlap with the
// result spilled to disk instead of memory, and a scan that streams a spill
// file back one OVR at a time (query's spilled solve optimizes over it
// without materialising the OVRs). The output of an overlap can dwarf
// both operands (MBRB false positives compound, Fig 14), so bounding the
// resident set by streaming the output is the difference between "fits" and
// "OOM" at the paper's largest scales.
//
// The on-disk format is a little-endian binary stream (version 2):
//
//	header:  magic "MOVD" | version u16 | mode u8 | bounds 4×f64 |
//	         nTypes u32 | types i32… | count i64 (-1 = unknown/stream)
//	per OVR: nVerts u32 | vertices 2×f64… | mbr 4×f64 |
//	         nPOIs u32 | (id i32, type i32, loc 2×f64, wt f64, wo f64)…
//	footer:  endMarker u32 (0xFFFFFFFF) | crc32(IEEE, all OVR bytes) u32 |
//	         count i64
//
// The footer makes truncation and bit-rot detectable even for spill files
// whose OVR count was unknown at write time.
//
// The codec works per record, not per field: the writer encodes a whole OVR
// into a scratch buffer and emits it with one checksum update, and the
// reader decodes each OVR from at most two buffered spans.
//
// Decode aliasing: ReadMOVD and ReadShard carve the Regions and POIs of
// many OVRs (and the shard meta's object sets) out of shared backing arrays
// (see slab). Every carved slice is capped at its own length, so appending
// to one reallocates and writing within one touches only its own elements;
// but one retained OVR keeps its whole backing array alive. IterateOVRs
// allocates each record's slices separately, so a callback may keep an OVR
// without pinning anything else.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"molq/internal/core"
	"molq/internal/geom"
)

const (
	magic     = "MOVD"
	version   = 2
	endMarker = 0xFFFFFFFF
)

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("store: not a MOVD snapshot")
	ErrBadVersion = errors.New("store: unsupported snapshot version")
	ErrTruncated  = errors.New("store: snapshot truncated (missing footer)")
	ErrChecksum   = errors.New("store: snapshot checksum mismatch")
	ErrBadCount   = errors.New("store: snapshot record count mismatch")
)

type writer struct {
	w       *bufio.Writer
	crc     hash.Hash32 // non-nil once the header is written
	err     error
	buf     [8]byte
	scratch []byte // one record's encoding, reused across records
}

// emit writes raw bytes, folding them into the running checksum when armed.
func (w *writer) emit(b []byte) {
	if w.err != nil {
		return
	}
	if w.crc != nil {
		w.crc.Write(b)
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) u16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.emit(w.buf[:2])
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.emit(w.buf[:4])
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.emit(w.buf[:8])
}

func (w *writer) i32(v int32) { w.u32(uint32(v)) }
func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) rect(r geom.Rect) {
	w.scratch = appendRect(w.scratch[:0], r)
	w.emit(w.scratch)
}

// Encoded sizes of the fixed-width records.
const (
	pointSize  = 16 // 2×f64
	rectSize   = 32 // 4×f64
	objectSize = 40 // id i32, type i32, loc 2×f64, wt f64, wo f64
)

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendPoint(b []byte, p geom.Point) []byte { return appendF64(appendF64(b, p.X), p.Y) }
func appendRect(b []byte, r geom.Rect) []byte   { return appendPoint(appendPoint(b, r.Min), r.Max) }

func appendObject(b []byte, o *core.Object) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(o.ID)))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(o.Type)))
	b = appendPoint(b, o.Loc)
	b = appendF64(b, o.TypeWeight)
	return appendF64(b, o.ObjWeight)
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func getPoint(b []byte) geom.Point { return geom.Point{X: getF64(b), Y: getF64(b[8:])} }
func getRect(b []byte) geom.Rect   { return geom.Rect{Min: getPoint(b), Max: getPoint(b[16:])} }

func getObject(b []byte) core.Object {
	return core.Object{
		ID:         int(int32(binary.LittleEndian.Uint32(b))),
		Type:       int(int32(binary.LittleEndian.Uint32(b[4:]))),
		Loc:        getPoint(b[8:]),
		TypeWeight: getF64(b[24:]),
		ObjWeight:  getF64(b[32:]),
	}
}

// ovr encodes one record into the scratch and emits it with one checksum
// update and one buffered write.
func (w *writer) ovr(o *core.OVR) {
	b := binary.LittleEndian.AppendUint32(w.scratch[:0], uint32(len(o.Region)))
	for _, p := range o.Region {
		b = appendPoint(b, p)
	}
	b = appendRect(b, o.MBR)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(o.POIs)))
	for i := range o.POIs {
		b = appendObject(b, &o.POIs[i])
	}
	w.scratch = b
	w.emit(b)
}

// footer emits the end-of-stream marker, checksum and record count. Must be
// the last thing written; the marker and trailer bytes are excluded from the
// checksum.
func (w *writer) footer(count int64) {
	crc := uint32(0)
	if w.crc != nil {
		crc = w.crc.Sum32()
	}
	w.crc = nil
	w.u32(endMarker)
	w.u32(crc)
	w.i64(count)
}

// slab carves decoded slices out of shared backing arrays of chunk
// elements, so a decoded diagram costs a few dozen allocations instead of
// two per OVR. Carved slices are capped at their length: an append by the
// holder reallocates instead of overwriting a neighbour. Slices longer than
// a quarter chunk get their own allocation, as does everything when chunk
// is 0 (the zero slab allocates per record).
//
// A slab aims to retain no more than per-record allocation would, so it
// keeps a few holes open for short slices: the rest of a chunk that a
// slice did not fit, and the slack the runtime adds when it rounds a large
// allocation up to whole pages. trim hands the unused tail of the last
// chunk back at the end.
type slab[T any] struct {
	cur   []T // the chunk being carved; cur[used:] is free
	used  int
	holes [maxHoles][]T // free rests of earlier allocations
	chunk int
}

const maxHoles = 4

// Allocations above 32 KiB are made in whole 8 KiB pages.
const (
	largeAlloc = 32 << 10
	allocPage  = 8 << 10
)

func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil // preserve nil-ness: MBRB OVRs carry no region
	}
	for i, h := range s.holes {
		if n <= len(h) {
			s.holes[i] = h[n:]
			return h[:n:n]
		}
	}
	if n > s.chunk/4 {
		return s.own(n)
	}
	if n > len(s.cur)-s.used {
		s.keep(s.cur[s.used:])
		s.cur, s.used = make([]T, s.chunk), 0
	}
	out := s.cur[s.used : s.used+n : s.used+n]
	s.used += n
	return out
}

// own allocates n elements of their own. The runtime makes a large
// allocation in whole pages; a slab keeps the slack as a hole.
func (s *slab[T]) own(n int) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if s.chunk == 0 || n*size <= largeAlloc {
		return make([]T, n)
	}
	all := make([]T, (n*size+allocPage-1)/allocPage*allocPage/size)
	s.keep(all[n:])
	return all[:n:n]
}

// keep opens rest as a hole in place of the smallest one, if larger.
func (s *slab[T]) keep(rest []T) {
	least := 0
	for i := range s.holes {
		if len(s.holes[i]) < len(s.holes[least]) {
			least = i
		}
	}
	if len(rest) > len(s.holes[least]) {
		s.holes[least] = rest
	}
}

// trim moves the slices carved from the last chunk to an array of exactly
// their total length, so the chunk's unused tail is not retained. slice(i)
// addresses the i-th of the n slices in the order they were taken.
func (s *slab[T]) trim(n int, slice func(i int) *[]T) {
	if s.used == 0 || s.used == len(s.cur) {
		return
	}
	exact := make([]T, s.used)
	copy(exact, s.cur[:s.used])
	// The last chunk's slices are the last ones carved: walk back over
	// them, past any that have their own allocation.
	end := s.used
	for i := n - 1; i >= 0 && end > 0; i-- {
		p := slice(i)
		if start := end - len(*p); len(*p) > 0 && start >= 0 && &(*p)[0] == &s.cur[start] {
			*p = exact[start:end:end]
			end = start
		}
	}
	s.cur, s.used, s.holes = nil, 0, [maxHoles][]T{}
}

// Slab chunk sizes are Go size classes filled exactly: 16 KiB of points,
// and 18 KiB of objects, which is 384 of them and so splits evenly into
// groups of one to four POIs.
const (
	slabPoints  = 16 << 10 / unsafe.Sizeof(geom.Point{})
	slabObjects = 18 << 10 / unsafe.Sizeof(core.Object{})
)

type reader struct {
	r       *bufio.Reader
	crc     hash.Hash32 // non-nil once the header is read
	lastSum uint32      // checksum snapshot taken before each record
	err     error
	n       int // bytes consumed so far
	buf     [8]byte
	regions slab[geom.Point]
	pois    slab[core.Object]
}

// newReader wraps src in a size-byte buffer. With slabs, decoded Regions
// and POIs share backing arrays (see slab); without, each record owns its
// slices.
func newReader(src io.Reader, size int, slabs bool) *reader {
	r := &reader{r: bufio.NewReaderSize(src, size)}
	if slabs {
		r.regions.chunk = int(slabPoints)
		r.pois.chunk = int(slabObjects)
	}
	return r
}

// errEndOfStream signals the footer marker was reached.
var errEndOfStream = errors.New("store: end of stream")

func (r *reader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n]
	}
	_, r.err = io.ReadFull(r.r, r.buf[:n])
	if r.err == nil {
		r.n += n
		if r.crc != nil {
			r.crc.Write(r.buf[:n])
		}
	}
	return r.buf[:n]
}

func (r *reader) u16() uint16  { return binary.LittleEndian.Uint16(r.read(2)) }
func (r *reader) u32() uint32  { return binary.LittleEndian.Uint32(r.read(4)) }
func (r *reader) u64() uint64  { return binary.LittleEndian.Uint64(r.read(8)) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) i64() int64   { return int64(r.u64()) }

func (r *reader) point() geom.Point { x := r.f64(); y := r.f64(); return geom.Point{X: x, Y: y} }
func (r *reader) rect() geom.Rect {
	mn := r.point()
	mx := r.point()
	return geom.Rect{Min: mn, Max: mx}
}

// peek returns the next n bytes, n at most the buffer size, without
// consuming them; nil once the reader has failed. The slice aliases the
// buffer: decode from it, then hand it to consume.
func (r *reader) peek(n int) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a short read
		}
		r.err = err
		return nil
	}
	return b
}

// consume folds peeked bytes into the checksum and advances past them.
func (r *reader) consume(b []byte) {
	if r.crc != nil {
		r.crc.Write(b)
	}
	r.r.Discard(len(b))
	r.n += len(b)
}

// points appends n decoded points to dst, taking at most one buffer's worth
// of bytes per read. It is the path for counts too large to peek at once:
// dst grows (growFor) only once each piece's bytes are in the buffer, so an
// untrusted count costs allocation in proportion to the data really there.
func (r *reader) points(dst geom.Polygon, n uint32) geom.Polygon {
	per := uint32(r.r.Size() / pointSize)
	total := len(dst) + int(n)
	for n > 0 {
		k := min(n, per)
		b := r.peek(int(k) * pointSize)
		if b == nil {
			break
		}
		dst = growFor(dst, int(k), total)
		for i := 0; i < int(k); i++ {
			dst = append(dst, getPoint(b[i*pointSize:]))
		}
		r.consume(b)
		n -= k
	}
	return dst
}

// objects is points for objects.
func (r *reader) objects(dst []core.Object, n uint32) []core.Object {
	per := uint32(r.r.Size() / objectSize)
	total := len(dst) + int(n)
	for n > 0 {
		k := min(n, per)
		b := r.peek(int(k) * objectSize)
		if b == nil {
			break
		}
		dst = growFor(dst, int(k), total)
		for i := 0; i < int(k); i++ {
			dst = append(dst, getObject(b[i*objectSize:]))
		}
		r.consume(b)
		n -= k
	}
	return dst
}

const maxReasonable = 1 << 28 // decoder sanity cap on counts

// growFor returns s with room for k more elements, where total is the
// element count the stream claims. Every count a decoder reads is
// untrusted, so capacity grows toward total but, past a floor of
// growFloor, to at most growFactor times what has already arrived: a
// hostile count costs allocation in proportion to the bytes really read,
// and an honest one ends at exactly total, with no slack retained. The
// factor is large so that an honest stream reaches total in one or two
// steps: a decoded shard costs about what one exact allocation did.
// When the claim is unknown or already exceeded, s grows as append grows
// it, so a stream of any length costs amortised linear time.
func growFor[T any](s []T, k, total int) []T {
	if cap(s)-len(s) >= k {
		return s
	}
	if total < len(s)+k {
		return slices.Grow(s, k)
	}
	c := max(min(total, max(growFactor*len(s), growFloor)), len(s)+k)
	grown := make([]T, len(s), c) // exactly c: decoded slices are capped
	copy(grown, s)
	return grown
}

// growFloor is the least capacity growFor grows to once data arrives.
// growFactor bounds what a hostile count costs: a minimal 40-byte record
// decodes to an 80-byte OVR, so the capacities a stream of them grows
// through total under 15 times its length.
const (
	growFloor  = 1024
	growFactor = 6
)

// ovr decodes one record in at most two reads when it fits the buffer: the
// head (vertex count, vertices, MBR and POI count), then the POIs.
func (r *reader) ovr() (core.OVR, error) {
	var o core.OVR
	if r.crc != nil {
		r.lastSum = r.crc.Sum32()
	}
	b := r.peek(4)
	if b == nil {
		return o, r.err
	}
	nv := binary.LittleEndian.Uint32(b)
	if nv == endMarker {
		r.consume(b)
		return o, errEndOfStream
	}
	if nv > maxReasonable {
		return o, fmt.Errorf("store: corrupt OVR (vertex count %d)", nv)
	}
	var np uint32
	if head := 4 + int(nv)*pointSize + rectSize + 4; head <= r.r.Size() {
		if b = r.peek(head); b == nil {
			return o, r.err
		}
		o.Region = r.regions.take(int(nv))
		for i := range o.Region {
			o.Region[i] = getPoint(b[4+i*pointSize:])
		}
		o.MBR = getRect(b[head-4-rectSize:])
		np = binary.LittleEndian.Uint32(b[head-4:])
		r.consume(b)
	} else {
		r.consume(b)
		o.Region = r.points(nil, nv)
		if b = r.peek(rectSize + 4); b == nil {
			return o, r.err
		}
		o.MBR = getRect(b)
		np = binary.LittleEndian.Uint32(b[rectSize:])
		r.consume(b)
	}
	if np > maxReasonable {
		return o, fmt.Errorf("store: corrupt OVR (poi count %d)", np)
	}
	if tail := int(np) * objectSize; tail > r.r.Size() {
		o.POIs = r.objects(nil, np)
	} else if np > 0 {
		if b = r.peek(tail); b == nil {
			return o, r.err
		}
		o.POIs = r.pois.take(int(np))
		for i := range o.POIs {
			o.POIs[i] = getObject(b[i*objectSize:])
		}
		r.consume(b)
	}
	return o, r.err
}

// header captures the snapshot preamble.
type header struct {
	mode   core.Mode
	bounds geom.Rect
	types  []int
	count  int64 // -1 when the OVR count was unknown at write time
}

func writeHeader(w *writer, mode core.Mode, bounds geom.Rect, types []int, count int64) {
	if w.err == nil {
		_, w.err = w.w.WriteString(magic)
	}
	w.u16(version)
	if w.err == nil {
		w.err = w.w.WriteByte(byte(mode))
	}
	w.rect(bounds)
	w.u32(uint32(len(types)))
	for _, t := range types {
		w.i32(int32(t))
	}
	w.i64(count)
}

func readHeader(r *reader) (header, error) {
	var h header
	mg := make([]byte, 4)
	if _, err := io.ReadFull(r.r, mg); err != nil {
		return h, err
	}
	if string(mg) != magic {
		return h, ErrBadMagic
	}
	if v := r.u16(); v != version {
		if r.err != nil {
			return h, r.err
		}
		return h, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	b, err := r.r.ReadByte()
	if err != nil {
		return h, err
	}
	h.mode = core.Mode(b)
	h.bounds = r.rect()
	nt := r.u32()
	if r.err != nil {
		return h, r.err
	}
	if nt > 1<<16 {
		return h, fmt.Errorf("store: corrupt header (type count %d)", nt)
	}
	// Grow the types as they arrive: nt is untrusted.
	h.types = make([]int, 0, min(nt, 16))
	for range nt {
		t := r.i32()
		if r.err != nil {
			break
		}
		h.types = append(h.types, int(t))
	}
	h.count = r.i64()
	if r.err == nil && (h.count < -1 || h.count > maxReasonable) {
		return h, fmt.Errorf("store: corrupt header (count %d)", h.count)
	}
	return h, r.err
}

// WriteMOVD serialises a complete MOVD.
func WriteMOVD(dst io.Writer, m *core.MOVD) error {
	w := &writer{w: bufio.NewWriterSize(dst, 1<<16)}
	return w.movd(m)
}

// movd writes m as one complete stream and flushes.
func (w *writer) movd(m *core.MOVD) error {
	writeHeader(w, m.Mode, m.Bounds, m.Types, int64(len(m.OVRs)))
	w.crc = crc32.NewIEEE()
	for i := range m.OVRs {
		w.ovr(&m.OVRs[i])
	}
	w.footer(int64(len(m.OVRs)))
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// readFooter verifies the checksum and count trailer after the end marker.
func (r *reader) readFooter(seen int64) error {
	want := r.lastSum
	r.crc = nil
	gotCRC := r.u32()
	gotCount := r.i64()
	if r.err != nil {
		return fmt.Errorf("%w: %v", ErrTruncated, r.err)
	}
	if gotCRC != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, gotCRC, want)
	}
	if gotCount != seen {
		return fmt.Errorf("%w: stored %d, read %d", ErrBadCount, gotCount, seen)
	}
	return nil
}

// ReadMOVD deserialises a snapshot written by WriteMOVD or produced by
// OverlapToFile, verifying the integrity footer.
func ReadMOVD(src io.Reader) (*core.MOVD, error) {
	return newReader(src, 1<<16, true).movd()
}

// movd decodes one complete stream, footer included.
func (r *reader) movd() (*core.MOVD, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	r.crc = crc32.NewIEEE()
	m := &core.MOVD{Mode: h.mode, Bounds: h.bounds, Types: h.types}
	// The header's count (-1 when unknown) is validated against
	// maxReasonable but still untrusted: the OVR slice grows toward it only
	// as records arrive. The bytes already read (a shard's meta precedes
	// its OVRs) pay for a first slice of up to growFactor times their size.
	total := int(max(h.count, 0))
	if c := min(total, growFactor*r.n/int(unsafe.Sizeof(core.OVR{}))); c > 0 {
		m.OVRs = make([]core.OVR, 0, c)
	}
	for {
		o, err := r.ovr()
		if errors.Is(err, errEndOfStream) {
			if err := r.readFooter(int64(len(m.OVRs))); err != nil {
				return nil, err
			}
			r.regions.trim(len(m.OVRs), func(i int) *[]geom.Point { return (*[]geom.Point)(&m.OVRs[i].Region) })
			r.pois.trim(len(m.OVRs), func(i int) *[]core.Object { return &m.OVRs[i].POIs })
			return m, nil
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTruncated
			}
			return nil, err
		}
		m.OVRs = append(growFor(m.OVRs, 1, total), o)
	}
}
