package obs

// The flight recorder: a bounded, tail-sampling retention buffer for
// completed traces. Head sampling (decide at request start) cannot catch a
// p99 spike — by definition the interesting traces are the ones that turn
// out slow, which is only known at the end. The recorder therefore sees
// every completed trace and keeps:
//
//   - the K slowest per key (route, or route+engine) within a sliding
//     window, so one pathological route cannot evict another route's
//     outliers and stale outliers from an hour ago don't shadow the
//     current regression;
//   - every errored / panicked / load-shed trace in a bounded ring,
//     pinned regardless of duration (a 2 ms 500 matters more than a
//     200 ms 200).
//
// Cost discipline: the common case — a healthy request faster than the
// bucket's current K-th slowest — must not serialize the serving path. Each
// bucket publishes its admission threshold as an atomic (minNanos, valid
// until the earliest retained entry expires); Record's fast path is one
// sync.Map load plus two atomic loads, no mutex. Only admissions, errors,
// and window expirations take the recorder lock. The threshold is
// monotonically non-decreasing between expirations, so a fast-rejected
// trace can never have belonged in the final top K.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanJSON is the JSON shape of one span node in a retained trace. Start
// offsets are relative to the root span's start, so a rendered waterfall
// needs no clock context.
type SpanJSON struct {
	Name     string      `json:"name"`
	SpanID   string      `json:"span_id,omitempty"`
	ParentID string      `json:"parent_id,omitempty"`
	StartUS  int64       `json:"start_offset_us"`
	DurUS    int64       `json:"duration_us"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// JSON converts the span tree rooted at s into its serializable shape.
// Children are ordered by start time. nil in, nil out.
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	return s.jsonRel(s.StartTime)
}

func (s *Span) jsonRel(root time.Time) *SpanJSON {
	j := &SpanJSON{
		Name:     s.Name,
		SpanID:   s.SpanID.String(),
		ParentID: s.Parent.String(),
		StartUS:  s.StartTime.Sub(root).Microseconds(),
		DurUS:    s.Duration.Microseconds(),
		Attrs:    s.Attrs(),
	}
	children := s.Children()
	sort.SliceStable(children, func(i, k int) bool {
		return children[i].StartTime.Before(children[k].StartTime)
	})
	for _, c := range children {
		j.Children = append(j.Children, c.jsonRel(root))
	}
	return j
}

// RecordedTrace is one completed, retained trace: the request identity and
// outcome plus the full phase span tree. Immutable after Record.
type RecordedTrace struct {
	TraceID    string            `json:"trace_id"`
	RequestID  string            `json:"request_id,omitempty"`
	Route      string            `json:"route"`
	Engine     string            `json:"engine,omitempty"`
	Status     int               `json:"status,omitempty"`
	Outcome    string            `json:"outcome"` // "ok", "error", "shed", "panic"
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Root       *SpanJSON         `json:"trace,omitempty"`

	root     *Span // deferred span tree; converted to Root on admission
	duration time.Duration
	deadline time.Time // when the sliding window lets go of this entry
}

// SetRoot attaches the trace's span tree without converting it: Record
// serializes it only if the trace is actually admitted, so the common
// fast-rejected request never pays the tree-to-JSON walk.
func (t *RecordedTrace) SetRoot(s *Span) { t.root = s }

// Pinned reports whether the trace is retained unconditionally (errors,
// panics, sheds) rather than by being among the K slowest.
func (t *RecordedTrace) Pinned() bool { return t.Outcome != "ok" }

// key is the retention bucket: one top-K per route+engine.
func (t *RecordedTrace) key() string { return t.Route + "\x00" + t.Engine }

// traceBucket retains the K slowest ok-traces of one key. minNanos is the
// lock-free admission threshold: a trace shorter than it cannot enter a
// full bucket, valid while the wall clock is before minValid (the earliest
// retained deadline — after that an expiration may lower the bar).
type traceBucket struct {
	minNanos atomic.Int64
	minValid atomic.Int64 // unix nanos
	entries  []*RecordedTrace
}

// RecorderStats summarize the recorder for status payloads.
type RecorderStats struct {
	Recorded  int64 `json:"recorded"` // traces offered
	Retained  int   `json:"retained"` // currently held slow traces
	Errors    int   `json:"errors"`   // currently held pinned traces
	Rejected  int64 `json:"rejected"` // fast-path rejections (not slow enough)
	K         int   `json:"k"`
	WindowSec int   `json:"window_seconds"`
}

// Recorder tail-samples completed traces. Safe for concurrent use. The
// zero value is unusable; construct with NewRecorder.
type Recorder struct {
	k      int
	window time.Duration
	errCap int

	recorded atomic.Int64
	rejected atomic.Int64

	buckets sync.Map // key() → *traceBucket

	mu   sync.Mutex
	byID map[string]*RecordedTrace
	errs []*RecordedTrace // FIFO ring, newest at the end
}

// DefaultTraceRetention is the default K (slowest traces kept per
// route+engine key).
const DefaultTraceRetention = 8

// DefaultTraceWindow is the default sliding retention window.
const DefaultTraceWindow = 5 * time.Minute

// NewRecorder returns a recorder keeping the k slowest traces per
// route+engine key within the sliding window, plus up to errCap pinned
// error traces. Non-positive arguments take the defaults (k
// DefaultTraceRetention, window DefaultTraceWindow, errCap 64).
func NewRecorder(k int, window time.Duration, errCap int) *Recorder {
	if k <= 0 {
		k = DefaultTraceRetention
	}
	if window <= 0 {
		window = DefaultTraceWindow
	}
	if errCap <= 0 {
		errCap = 64
	}
	return &Recorder{
		k:      k,
		window: window,
		errCap: errCap,
		byID:   make(map[string]*RecordedTrace),
	}
}

// Record offers a completed trace. Sub-threshold healthy traces return on
// the lock-free fast path; admitted traces may evict the bucket's current
// fastest entry (and its byID index entry).
func (r *Recorder) Record(t *RecordedTrace) {
	if t == nil || t.TraceID == "" {
		return
	}
	r.recorded.Add(1)
	now := time.Now()
	t.duration = time.Duration(t.DurationUS) * time.Microsecond
	t.deadline = now.Add(r.window)

	if t.Pinned() {
		t.materialize()
		r.recordError(t)
		return
	}
	key := t.key()
	bi, ok := r.buckets.Load(key)
	if !ok {
		bi, _ = r.buckets.LoadOrStore(key, &traceBucket{})
	}
	b := bi.(*traceBucket)
	// Fast reject: bucket full, this trace is not slower than the K-th
	// slowest, and no retained entry has expired yet (expiry could lower
	// the bar, so then we must take the lock and purge).
	if min := b.minNanos.Load(); min > 0 &&
		int64(t.duration) <= min && now.UnixNano() < b.minValid.Load() {
		r.rejected.Add(1)
		return
	}

	// Past the fast path the trace is a real candidate: serialize the span
	// tree before publishing it (readers may hold the pointer as soon as it
	// lands in the bucket, so Root must be final first).
	t.materialize()
	r.mu.Lock()
	r.purgeLocked(b, now)
	if len(b.entries) >= r.k {
		// Evict the fastest retained entry if this one is slower.
		fi := fastestIdx(b.entries)
		if t.duration <= b.entries[fi].duration {
			r.refreshThresholdLocked(b)
			r.mu.Unlock()
			r.rejected.Add(1)
			return
		}
		r.dropIDLocked(b.entries[fi])
		b.entries[fi] = b.entries[len(b.entries)-1]
		b.entries = b.entries[:len(b.entries)-1]
	}
	b.entries = append(b.entries, t)
	r.byID[t.TraceID] = t
	r.refreshThresholdLocked(b)
	r.mu.Unlock()
}

// materialize converts the deferred span tree into its JSON shape. Called
// once per admitted trace; never on the fast-rejected path.
func (t *RecordedTrace) materialize() {
	if t.Root == nil && t.root != nil {
		t.Root = t.root.JSON()
		t.root = nil
	}
}

// recordError pins t in the error ring, displacing the oldest when full.
func (r *Recorder) recordError(t *RecordedTrace) {
	r.mu.Lock()
	if len(r.errs) >= r.errCap {
		r.dropIDLocked(r.errs[0])
		copy(r.errs, r.errs[1:])
		r.errs = r.errs[:len(r.errs)-1]
	}
	r.errs = append(r.errs, t)
	r.byID[t.TraceID] = t
	r.mu.Unlock()
}

// purgeLocked drops window-expired entries from b.
func (r *Recorder) purgeLocked(b *traceBucket, now time.Time) {
	kept := b.entries[:0]
	for _, e := range b.entries {
		if now.Before(e.deadline) {
			kept = append(kept, e)
		} else {
			r.dropIDLocked(e)
		}
	}
	b.entries = kept
}

// refreshThresholdLocked republishes the bucket's fast-reject threshold.
func (r *Recorder) refreshThresholdLocked(b *traceBucket) {
	if len(b.entries) < r.k {
		b.minNanos.Store(0) // not full: everything is admissible
		return
	}
	minDur := b.entries[0].duration
	minDeadline := b.entries[0].deadline
	for _, e := range b.entries[1:] {
		if e.duration < minDur {
			minDur = e.duration
		}
		if e.deadline.Before(minDeadline) {
			minDeadline = e.deadline
		}
	}
	b.minValid.Store(minDeadline.UnixNano())
	b.minNanos.Store(int64(minDur))
}

// dropIDLocked removes e from the byID index unless the slot was
// overwritten by a newer trace reusing the same ID.
func (r *Recorder) dropIDLocked(e *RecordedTrace) {
	if cur, ok := r.byID[e.TraceID]; ok && cur == e {
		delete(r.byID, e.TraceID)
	}
}

func fastestIdx(entries []*RecordedTrace) int {
	fi := 0
	for i, e := range entries[1:] {
		if e.duration < entries[fi].duration {
			fi = i + 1
		}
	}
	return fi
}

// Get returns the retained trace with the given ID.
func (r *Recorder) Get(traceID string) (*RecordedTrace, bool) {
	r.mu.Lock()
	t, ok := r.byID[traceID]
	r.mu.Unlock()
	return t, ok
}

// Slowest returns the currently retained tail-sampled traces across all
// keys, slowest first. Window-expired entries are purged on the way.
func (r *Recorder) Slowest() []*RecordedTrace {
	now := time.Now()
	var out []*RecordedTrace
	r.mu.Lock()
	r.buckets.Range(func(_, bi any) bool {
		b := bi.(*traceBucket)
		r.purgeLocked(b, now)
		r.refreshThresholdLocked(b)
		out = append(out, b.entries...)
		return true
	})
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].duration != out[j].duration {
			return out[i].duration > out[j].duration
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// Errors returns the pinned error/shed/panic traces, newest first.
func (r *Recorder) Errors() []*RecordedTrace {
	r.mu.Lock()
	out := make([]*RecordedTrace, len(r.errs))
	for i, e := range r.errs {
		out[len(out)-1-i] = e
	}
	r.mu.Unlock()
	return out
}

// Stats summarizes the recorder's state.
func (r *Recorder) Stats() RecorderStats {
	st := RecorderStats{
		Recorded:  r.recorded.Load(),
		Rejected:  r.rejected.Load(),
		K:         r.k,
		WindowSec: int(r.window / time.Second),
	}
	now := time.Now()
	r.mu.Lock()
	r.buckets.Range(func(_, bi any) bool {
		b := bi.(*traceBucket)
		r.purgeLocked(b, now)
		st.Retained += len(b.entries)
		return true
	})
	st.Errors = len(r.errs)
	r.mu.Unlock()
	return st
}
