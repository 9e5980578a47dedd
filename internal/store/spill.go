package store

import (
	"bufio"
	"errors"
	"hash/crc32"
	"io"
	"os"

	"molq/internal/core"
)

// OverlapToFile evaluates a ⊕ b streaming every surviving OVR straight to
// path, so only the operands — never the (potentially far larger) result —
// are resident. The file is a standard snapshot with an unknown (-1) count
// and can be read back with LoadMOVD or scanned with IterateOVRs. prune is
// optional (see core.PruneFunc). The sweep is core.OverlapStream's
// sequential one, so the stored OVR order is deterministic.
func OverlapToFile(a, b *core.MOVD, prune core.PruneFunc, path string) (core.OverlapStats, error) {
	var stats core.OverlapStats
	f, err := os.Create(path)
	if err != nil {
		return stats, err
	}
	w := &writer{w: bufio.NewWriterSize(f, 1<<20)}
	writeHeader(w, a.Mode, a.Bounds, mergeTypes(a.Types, b.Types), -1)
	if w.err != nil {
		f.Close()
		return stats, w.err
	}
	w.crc = crc32.NewIEEE()
	var emitted int64
	stats, err = core.OverlapStream(a, b, prune, func(o *core.OVR) error {
		w.ovr(o)
		emitted++
		return w.err
	})
	if err != nil {
		f.Close()
		return stats, err
	}
	w.footer(emitted)
	if w.err == nil {
		w.err = w.w.Flush()
	}
	if w.err != nil {
		f.Close()
		return stats, w.err
	}
	return stats, f.Close()
}

// mergeTypes unions two sorted type-index slices (Eq 22's E_i ∪ E_j).
func mergeTypes(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// IterateOVRs scans a snapshot file, invoking fn for every stored OVR
// without ever holding more than one in memory. fn errors abort the scan and
// propagate.
func IterateOVRs(path string, fn func(*core.OVR) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := &reader{r: bufio.NewReaderSize(f, 1<<20)}
	if _, err := readHeader(r); err != nil {
		return err
	}
	r.crc = crc32.NewIEEE()
	var seen int64
	for {
		o, err := r.ovr()
		if errors.Is(err, errEndOfStream) {
			return r.readFooter(seen)
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return ErrTruncated
			}
			return err
		}
		seen++
		if err := fn(&o); err != nil {
			return err
		}
	}
}
