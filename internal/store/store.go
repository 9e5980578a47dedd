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
	"os"

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
	w   *bufio.Writer
	crc hash.Hash32 // non-nil once the header is written
	err error
	buf [8]byte
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

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) i32(v int32)   { w.u32(uint32(v)) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }

func (w *writer) point(p geom.Point) {
	w.f64(p.X)
	w.f64(p.Y)
}

func (w *writer) rect(r geom.Rect) {
	w.point(r.Min)
	w.point(r.Max)
}

func (w *writer) ovr(o *core.OVR) {
	w.u32(uint32(len(o.Region)))
	for _, p := range o.Region {
		w.point(p)
	}
	w.rect(o.MBR)
	w.u32(uint32(len(o.POIs)))
	for _, poi := range o.POIs {
		w.i32(int32(poi.ID))
		w.i32(int32(poi.Type))
		w.point(poi.Loc)
		w.f64(poi.TypeWeight)
		w.f64(poi.ObjWeight)
	}
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

type reader struct {
	r       *bufio.Reader
	crc     hash.Hash32 // non-nil once the header is read
	lastSum uint32      // checksum snapshot taken before each record
	err     error
	buf     [8]byte
}

// errEndOfStream signals the footer marker was reached.
var errEndOfStream = errors.New("store: end of stream")

func (r *reader) read(n int) []byte {
	if r.err != nil {
		return r.buf[:n]
	}
	_, r.err = io.ReadFull(r.r, r.buf[:n])
	if r.err == nil && r.crc != nil {
		r.crc.Write(r.buf[:n])
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

const maxReasonable = 1 << 28 // decoder sanity cap on counts

func (r *reader) ovr() (core.OVR, error) {
	var o core.OVR
	if r.crc != nil {
		r.lastSum = r.crc.Sum32()
	}
	nv := r.u32()
	if r.err != nil {
		return o, r.err
	}
	if nv == endMarker {
		return o, errEndOfStream
	}
	if nv > maxReasonable {
		return o, fmt.Errorf("store: corrupt OVR (vertex count %d)", nv)
	}
	// Grow incrementally instead of trusting the declared count with one
	// huge allocation: a corrupt count on a truncated stream fails at EOF
	// after at most one chunk of waste.
	const chunk = 1 << 16
	for i := uint32(0); i < nv; i++ {
		if r.err != nil {
			return o, r.err
		}
		if o.Region == nil {
			o.Region = make(geom.Polygon, 0, min(nv, chunk))
		}
		o.Region = append(o.Region, r.point())
	}
	o.MBR = r.rect()
	np := r.u32()
	if r.err != nil {
		return o, r.err
	}
	if np > maxReasonable {
		return o, fmt.Errorf("store: corrupt OVR (poi count %d)", np)
	}
	for i := uint32(0); i < np; i++ {
		if r.err != nil {
			return o, r.err
		}
		if o.POIs == nil {
			o.POIs = make([]core.Object, 0, min(np, chunk))
		}
		var p core.Object
		p.ID = int(r.i32())
		p.Type = int(r.i32())
		p.Loc = r.point()
		p.TypeWeight = r.f64()
		p.ObjWeight = r.f64()
		o.POIs = append(o.POIs, p)
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
	h.types = make([]int, nt)
	for i := range h.types {
		h.types[i] = int(r.i32())
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
	r := &reader{r: bufio.NewReaderSize(src, 1<<16)}
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	r.crc = crc32.NewIEEE()
	m := &core.MOVD{Mode: h.mode, Bounds: h.bounds, Types: h.types}
	if h.count > 0 {
		// The count is validated against maxReasonable but still untrusted:
		// cap the preallocation so a hostile header cannot force a huge
		// up-front allocation (append grows the slice as real records
		// arrive).
		prealloc := h.count
		if prealloc > 1<<20 {
			prealloc = 1 << 20
		}
		m.OVRs = make([]core.OVR, 0, prealloc)
	}
	for {
		o, err := r.ovr()
		if errors.Is(err, errEndOfStream) {
			if err := r.readFooter(int64(len(m.OVRs))); err != nil {
				return nil, err
			}
			return m, nil
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTruncated
			}
			return nil, err
		}
		m.OVRs = append(m.OVRs, o)
	}
}

// SaveMOVD writes a snapshot to path.
func SaveMOVD(path string, m *core.MOVD) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMOVD(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadMOVD reads a snapshot from path.
func LoadMOVD(path string) (*core.MOVD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMOVD(f)
}
