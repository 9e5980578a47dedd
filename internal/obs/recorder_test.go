package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkTrace(route, engine, outcome string, dur time.Duration) *RecordedTrace {
	return &RecordedTrace{
		TraceID:    NewTraceID().String(),
		Route:      route,
		Engine:     engine,
		Outcome:    outcome,
		Status:     200,
		Start:      time.Now(),
		DurationUS: dur.Microseconds(),
	}
}

// TestRecorderKeepsKSlowest feeds durations 1..N ms and checks exactly the
// K slowest survive, in descending order.
func TestRecorderKeepsKSlowest(t *testing.T) {
	const k, n = 4, 32
	r := NewRecorder(k, time.Minute, 0)
	for i := 1; i <= n; i++ {
		r.Record(mkTrace("POST /v1/solve", "", "ok", time.Duration(i)*time.Millisecond))
	}
	// Sub-threshold traces after the bucket is full take the lock-free
	// fast-reject path.
	const rejected = 10
	for i := 0; i < rejected; i++ {
		r.Record(mkTrace("POST /v1/solve", "", "ok", time.Millisecond))
	}
	got := r.Slowest()
	if len(got) != k {
		t.Fatalf("retained %d traces, want %d", len(got), k)
	}
	for i, tr := range got {
		want := time.Duration(n-i) * time.Millisecond
		if tr.duration != want {
			t.Errorf("slowest[%d] = %v, want %v", i, tr.duration, want)
		}
		if _, ok := r.Get(tr.TraceID); !ok {
			t.Errorf("slowest[%d] (%s) not retrievable by ID", i, tr.TraceID)
		}
	}
	st := r.Stats()
	if st.Recorded != n+rejected || st.Retained != k {
		t.Errorf("stats = %+v, want recorded %d retained %d", st, n+rejected, k)
	}
	if st.Rejected != rejected {
		t.Errorf("stats.Rejected = %d, want %d fast-path rejections", st.Rejected, rejected)
	}
}

// TestRecorderBucketsPerKey checks one route's flood cannot evict another
// route+engine key's outliers.
func TestRecorderBucketsPerKey(t *testing.T) {
	r := NewRecorder(2, time.Minute, 0)
	slow := mkTrace("POST /v1/engines/{name}/query", "loadbench", "ok", 50*time.Millisecond)
	r.Record(slow)
	for i := 0; i < 100; i++ {
		r.Record(mkTrace("POST /v1/solve", "", "ok", time.Duration(100+i)*time.Millisecond))
	}
	if _, ok := r.Get(slow.TraceID); !ok {
		t.Fatalf("engine-query outlier evicted by solve flood; buckets must be independent")
	}
}

// TestRecorderErrorPinning checks errored traces are pinned regardless of
// duration and the ring displaces oldest-first.
func TestRecorderErrorPinning(t *testing.T) {
	const cap = 4
	r := NewRecorder(2, time.Minute, cap)
	var ids []string
	for i := 0; i < cap+2; i++ {
		tr := mkTrace("POST /v1/solve", "", "error", time.Microsecond) // faster than anything
		tr.Status = 500
		r.Record(tr)
		ids = append(ids, tr.TraceID)
	}
	errs := r.Errors()
	if len(errs) != cap {
		t.Fatalf("pinned %d errors, want cap %d", len(errs), cap)
	}
	// Newest first; the two oldest were displaced.
	if errs[0].TraceID != ids[len(ids)-1] {
		t.Errorf("newest pinned = %s, want %s", errs[0].TraceID, ids[len(ids)-1])
	}
	for _, old := range ids[:2] {
		if _, ok := r.Get(old); ok {
			t.Errorf("displaced error %s still retrievable", old)
		}
	}
	// Pinned entries never appear among the tail-sampled slowest.
	if got := r.Slowest(); len(got) != 0 {
		t.Errorf("Slowest() returned %d pinned traces, want 0", len(got))
	}
}

// TestRecorderWindowExpiry checks entries fall out after the sliding window
// and the admission threshold relaxes.
func TestRecorderWindowExpiry(t *testing.T) {
	r := NewRecorder(1, 30*time.Millisecond, 0)
	old := mkTrace("POST /v1/solve", "", "ok", 100*time.Millisecond)
	r.Record(old)
	time.Sleep(50 * time.Millisecond)
	// Much faster than the expired entry: admissible only if the window
	// actually let go.
	fresh := mkTrace("POST /v1/solve", "", "ok", time.Millisecond)
	r.Record(fresh)
	got := r.Slowest()
	if len(got) != 1 || got[0].TraceID != fresh.TraceID {
		t.Fatalf("after expiry retained %v, want only the fresh trace", summaryIDs(got))
	}
	if _, ok := r.Get(old.TraceID); ok {
		t.Errorf("expired trace %s still retrievable", old.TraceID)
	}
}

func summaryIDs(ts []*RecordedTrace) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = fmt.Sprintf("%s/%v", tr.TraceID[:8], tr.duration)
	}
	return out
}

// TestRecorderConcurrent hammers one recorder from many goroutines mixing
// routes, durations and outcomes; under -race this is the data-race check,
// and afterwards the K-slowest invariant must hold exactly per bucket.
func TestRecorderConcurrent(t *testing.T) {
	const k, workers, perWorker = 8, 8, 500
	r := NewRecorder(k, time.Minute, 64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				route := "POST /v1/solve"
				if i%3 == 0 {
					route = "POST /v1/engines/{name}/query"
				}
				outcome := "ok"
				if i%97 == 0 {
					outcome = "shed"
				}
				// Unique durations per (worker, i) so the expected top K is
				// well-defined: slower as i grows, worker breaks ties.
				dur := time.Duration(i*workers+w+1) * time.Microsecond
				r.Record(mkTrace(route, "", outcome, dur))
			}
		}(w)
	}
	wg.Wait()

	slowest := r.Slowest()
	perBucket := make(map[string]int)
	for _, tr := range slowest {
		perBucket[tr.Route]++
		if tr.Outcome != "ok" {
			t.Errorf("pinned outcome %q in tail-sampled set", tr.Outcome)
		}
	}
	for route, n := range perBucket {
		if n != k {
			t.Errorf("bucket %q retained %d, want exactly %d", route, n, k)
		}
	}
	// The global slowest ok-trace has duration (perWorker-1)*workers+workers
	// µs and is never shed (its i is not divisible by 97): it MUST have been
	// retained — the lock-free fast path may only reject traces that could
	// not have made the final top K.
	wantMax := time.Duration((perWorker-1)*workers+workers) * time.Microsecond
	if slowest[0].duration != wantMax {
		t.Errorf("global slowest = %v, want %v", slowest[0].duration, wantMax)
	}
	if errs := r.Errors(); len(errs) == 0 {
		t.Errorf("no shed traces pinned; want the i%%97 sheds retained")
	}
}

// TestSpanJSON checks the span-tree serialization: relative offsets,
// start-ordered children, identity fields.
func TestSpanJSON(t *testing.T) {
	root := StartSpan("solve")
	c1 := root.Child("voronoi")
	c1.SetAttr("diagrams", 3)
	c1.End()
	c2 := root.Child("overlap")
	c2.End()
	root.End()

	j := root.JSON()
	if j == nil {
		t.Fatal("JSON() = nil for live span")
	}
	if j.Name != "solve" || j.StartUS != 0 {
		t.Errorf("root = %q start %d, want solve at offset 0", j.Name, j.StartUS)
	}
	if j.SpanID != root.SpanID.String() {
		t.Errorf("root span_id = %s, want %s", j.SpanID, root.SpanID)
	}
	if len(j.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(j.Children))
	}
	if j.Children[0].Name != "voronoi" || j.Children[1].Name != "overlap" {
		t.Errorf("children order = %s, %s; want start order voronoi, overlap",
			j.Children[0].Name, j.Children[1].Name)
	}
	if j.Children[0].ParentID != root.SpanID.String() {
		t.Errorf("child parent_id = %s, want root %s", j.Children[0].ParentID, root.SpanID)
	}
	if len(j.Children[0].Attrs) != 1 || j.Children[0].Attrs[0].Key != "diagrams" {
		t.Errorf("child attrs = %+v, want the diagrams attribute", j.Children[0].Attrs)
	}
	if (*Span)(nil).JSON() != nil {
		t.Error("nil span JSON() != nil")
	}
}
