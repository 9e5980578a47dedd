package query

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"sync"

	"molq/internal/core"
	"molq/internal/geom"
	"molq/internal/obs"
)

// Live diagram-cache counters on the process-wide metrics registry,
// aggregated across every DiagramCache instance (a serving process holds
// one; tests may hold more). The per-instance CacheStats stay exact.
var (
	cacheHitsMetric = obs.Default.Counter("molq_diagram_cache_hits_total",
		"diagram-cache lookups that returned a memoized MOVD")
	cacheMissesMetric = obs.Default.Counter("molq_diagram_cache_misses_total",
		"diagram-cache lookups that fell through to diagram construction")
	cacheEvictionsMetric = obs.Default.Counter("molq_diagram_cache_evictions_total",
		"diagrams evicted from a cache to stay under its byte budget")
	cacheCoalescedMetric = obs.Default.Counter("molq_diagram_cache_coalesced_waits_total",
		"cache misses that waited on another goroutine's in-flight build instead of duplicating it")
	cacheInvalidationsMetric = obs.Default.Counter("molq_diagram_cache_invalidations_total",
		"diagrams dropped from a cache because an engine mutation superseded their fingerprint")
)

// This file implements the fingerprinted diagram cache: a content-addressed,
// byte-budgeted LRU memoizing diagrams at two levels. Level one is the
// per-type basic MOVDs the VD Generator (Module 1 of Fig 3) produces; level
// two is the final overlapped MOVD of the ⊕ chain (Module 2), keyed by the
// ordered basic fingerprints, so a fully warm Solve runs only the optimizer.
// A serving deployment re-derives the same diagrams over and over — every
// Solve over an unchanged object set, every NewEngine preparing the same
// data, every httpapi engine rebuilt after a restart. The cache keys on the
// content of the object set (IDs, locations, both weights), the search
// bounds, the boundary mode, the ς^o family and ε, so any semantic change
// misses while re-orderings of the same set hit.
//
// Cached diagrams are shared: callers receive the same *core.MOVD and must
// treat it as immutable. The whole pipeline already does — the sweep, the
// optimizer folding and the engine only read OVRs.

// fingerprint is the content hash identifying one basic diagram.
type fingerprint [sha256.Size]byte

// fingerprintSet hashes everything the basic MOVD of one object set depends
// on. Per-object digests are sorted before the final hash, so two sets with
// the same objects in different order produce the same fingerprint (the
// basic diagram is a set-level construct; OVR order is irrelevant to ⊕ and
// the optimizer). Epsilon does not influence the diagram itself but is
// hashed anyway: it keeps the key aligned with the full solve configuration,
// so a cache entry can never be blamed for a result produced under different
// solver settings. weightedEps, by contrast, is structural for weighted sets:
// it selects exact vs approximate construction and the approximation's cell
// resolution, so diagrams built under different weighted ε must never share
// an entry.
func fingerprintSet(set []core.Object, ti int, bounds geom.Rect, mode core.Mode, kind WeightKind, epsilon, weightedEps float64) fingerprint {
	digests := make([][sha256.Size]byte, len(set))
	for i, o := range set {
		var buf [48]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(int64(o.ID)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(o.Type)))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(o.Loc.X))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(o.Loc.Y))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(o.TypeWeight))
		binary.LittleEndian.PutUint64(buf[40:], math.Float64bits(o.ObjWeight))
		digests[i] = sha256.Sum256(buf[:])
	}
	sort.Slice(digests, func(i, j int) bool {
		return bytes.Compare(digests[i][:], digests[j][:]) < 0
	})
	h := sha256.New()
	var hdr [72]byte
	hdr[0] = 2 // fingerprint format version (2: weighted ε joined the header)
	hdr[1] = byte(mode)
	hdr[2] = byte(kind)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(ti)))
	binary.LittleEndian.PutUint64(hdr[16:], math.Float64bits(bounds.Min.X))
	binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(bounds.Min.Y))
	binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(bounds.Max.X))
	binary.LittleEndian.PutUint64(hdr[40:], math.Float64bits(bounds.Max.Y))
	binary.LittleEndian.PutUint64(hdr[48:], math.Float64bits(epsilon))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(len(set)))
	binary.LittleEndian.PutUint64(hdr[64:], math.Float64bits(weightedEps))
	h.Write(hdr[:])
	for i := range digests {
		h.Write(digests[i][:])
	}
	var fp fingerprint
	h.Sum(fp[:0])
	return fp
}

// fingerprintOverlap keys the final overlapped MOVD by the ordered basic
// fingerprints plus the pruning flag. Everything else the overlap depends on
// (bounds, mode, kind, ε, the sets themselves) is already inside the per-set
// fingerprints; Workers is deliberately excluded because the sequential fold
// and the parallel engine produce the identical diagram. Pruning changes the
// retained combinations, so pruned and unpruned results never share an entry.
func fingerprintOverlap(setFPs []fingerprint, pruned bool) fingerprint {
	h := sha256.New()
	var hdr [2]byte
	hdr[0] = 2 // level tag: overlapped diagram
	if pruned {
		hdr[1] = 1
	}
	h.Write(hdr[:])
	for i := range setFPs {
		h.Write(setFPs[i][:])
	}
	var fp fingerprint
	h.Sum(fp[:0])
	return fp
}

// movdBytes estimates the retained size of a diagram: slice payloads plus a
// fixed per-OVR overhead for headers and bookkeeping. An estimate is enough —
// the budget bounds memory order-of-magnitude, not byte-exactly.
func movdBytes(m *core.MOVD) int64 {
	const (
		ovrOverhead = 96 // OVR struct + slice headers
		objectSize  = 48 // core.Object
		vertexSize  = 16 // geom.Point
	)
	size := int64(128 + 8*len(m.Types))
	for i := range m.OVRs {
		o := &m.OVRs[i]
		size += ovrOverhead + int64(len(o.Region))*vertexSize + int64(len(o.POIs))*objectSize
	}
	return size
}

// CacheStats reports diagram-cache effectiveness. Hits and Misses are scoped
// to whatever produced the stats (one solve, one engine preparation, or the
// cache's lifetime totals from DiagramCache.Stats); Entries, Bytes and
// Capacity always snapshot the cache's current state.
type CacheStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	// Coalesced counts misses that did not build: the diagram was already
	// being built by another goroutine, so the lookup blocked on that one
	// in-flight construction instead of duplicating it.
	Coalesced int   `json:"coalesced,omitempty"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// DiagramCache memoizes basic MOVDs behind a byte-budgeted LRU. It is safe
// for concurrent use; the per-type goroutines of a parallel buildBasics and
// the httpapi's request handlers all share one instance. The zero value is
// not usable — construct with NewDiagramCache.
type DiagramCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *cacheEntry
	items  map[fingerprint]*list.Element
	// inflight coalesces concurrent misses on one fingerprint: the first
	// misser registers a flight and builds; everyone else arriving before the
	// build finishes blocks on the flight's done channel and shares the one
	// result (or the one error) instead of duplicating the construction.
	inflight  map[fingerprint]*flight
	hits      int
	misses    int
	coalesced int
}

type cacheEntry struct {
	key  fingerprint
	movd *core.MOVD
	size int64
}

// flight is one in-progress diagram build other lookups can wait on.
type flight struct {
	done chan struct{} // closed when movd/err are final
	movd *core.MOVD
	err  error
}

// lookupOutcome classifies what a getOrBuild lookup did.
type lookupOutcome uint8

const (
	lookupHit       lookupOutcome = iota // served from the cache
	lookupBuilt                          // missed and ran the build itself
	lookupCoalesced                      // missed but waited on an in-flight build
)

// DefaultCacheBytes is the byte budget of the process-wide default cache:
// large enough for the paper's biggest per-type diagrams (n=10000 RRB cells
// are a few MB) across several object sets, small enough to be irrelevant
// next to a serving process's working set.
const DefaultCacheBytes int64 = 64 << 20

// DefaultDiagramCache is the process-wide cache used when Input.Cache is nil.
// Repeated Solve calls, NewEngine preparations and httpapi engines all share
// it by default.
var DefaultDiagramCache = NewDiagramCache(DefaultCacheBytes)

// NewDiagramCache creates a cache evicting least-recently-used diagrams once
// the estimated retained bytes exceed byteBudget (≤0 uses DefaultCacheBytes).
func NewDiagramCache(byteBudget int64) *DiagramCache {
	if byteBudget <= 0 {
		byteBudget = DefaultCacheBytes
	}
	return &DiagramCache{
		budget:   byteBudget,
		ll:       list.New(),
		items:    make(map[fingerprint]*list.Element),
		inflight: make(map[fingerprint]*flight),
	}
}

// getOrBuild returns the diagram for key, building it with build on a miss.
// Concurrent calls for the same missing key are coalesced: exactly one runs
// build, the rest block until it finishes and share its result. A failed
// build is not cached — every waiter receives the error and the next lookup
// retries. build runs without the cache lock held, so distinct keys build
// concurrently.
func (c *DiagramCache) getOrBuild(key fingerprint, build func() (*core.MOVD, error)) (*core.MOVD, lookupOutcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		m := el.Value.(*cacheEntry).movd
		c.mu.Unlock()
		cacheHitsMetric.Inc()
		return m, lookupHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		cacheCoalescedMetric.Inc()
		<-f.done
		return f.movd, lookupCoalesced, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()
	cacheMissesMetric.Inc()
	f.movd, f.err = build()
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.putLocked(key, f.movd)
	}
	c.mu.Unlock()
	close(f.done)
	return f.movd, lookupBuilt, f.err
}

// put inserts a freshly built diagram, evicting LRU entries past the byte
// budget. A diagram larger than the whole budget is not cached at all. If the
// key is already present (two goroutines raced on the same miss) the existing
// entry wins, so all callers keep sharing one diagram.
func (c *DiagramCache) put(key fingerprint, m *core.MOVD) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, m)
}

func (c *DiagramCache) putLocked(key fingerprint, m *core.MOVD) {
	size := movdBytes(m)
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	if size > c.budget {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, movd: m, size: size})
	c.bytes += size
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.size
		cacheEvictionsMetric.Inc()
	}
}

// invalidate removes the entry for key, reporting whether one was present.
// Engine mutations call it to retire diagrams whose object set no longer
// exists anywhere (the pre-mutation basic of the mutated type and the
// pre-mutation overlapped chain); shared *MOVD pointers held by readers stay
// valid — only the cache's reference is dropped. In-flight builds of the key
// are unaffected: their owners repopulate the entry when they finish, which
// is correct because a content-addressed entry is never wrong, merely stale
// for this engine.
func (c *DiagramCache) invalidate(key fingerprint) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, key)
	c.bytes -= e.size
	cacheInvalidationsMetric.Inc()
	return true
}

// Stats snapshots the cache state with lifetime hit/miss totals.
func (c *DiagramCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Capacity:  c.budget,
	}
}

// Reset drops every entry and zeroes the lifetime counters; benchmarks use
// it to measure cold-cache behaviour without constructing fresh caches.
func (c *DiagramCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[fingerprint]*list.Element)
	c.bytes = 0
	c.hits = 0
	c.misses = 0
	c.coalesced = 0
	// In-flight builds are left alone: their owners delete the entries when
	// they finish, and a post-reset putLocked simply repopulates the cache.
}

// cache resolves which cache an input uses: its own, the process default, or
// none.
func (in *Input) diagramCache() *DiagramCache {
	if in.DisableDiagramCache {
		return nil
	}
	if in.Cache != nil {
		return in.Cache
	}
	return DefaultDiagramCache
}
