package query

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"molq/internal/core"
	"molq/internal/geom"
)

// mutModel mirrors an engine's evolving object sets so tests can rebuild the
// ground truth from scratch at any point.
type mutModel struct {
	sets   [][]core.Object
	nextID int
}

func newMutModel(in Input) *mutModel {
	m := &mutModel{sets: make([][]core.Object, len(in.Sets))}
	for ti, set := range in.Sets {
		m.sets[ti] = append([]core.Object(nil), set...)
		for _, o := range set {
			if o.ID >= m.nextID {
				m.nextID = o.ID + 1
			}
		}
	}
	return m
}

// randomOp applies one random insert or delete to both the engine and the
// model, keeping every type at two or more objects.
func (m *mutModel) randomOp(t *testing.T, r *rand.Rand, e *Engine) UpdateStats {
	t.Helper()
	ti := r.Intn(len(m.sets))
	set := m.sets[ti]
	if r.Float64() < 0.45 && len(set) > 2 {
		at := r.Intn(len(set))
		id := set[at].ID
		us, err := e.DeleteObject(ti, id)
		if err != nil {
			t.Fatalf("delete type %d id %d: %v", ti, id, err)
		}
		m.sets[ti] = append(append([]core.Object(nil), set[:at]...), set[at+1:]...)
		return us
	}
	obj := core.Object{
		ID:         m.nextID,
		Type:       ti,
		Loc:        geom.Pt(r.Float64()*1000, r.Float64()*1000),
		TypeWeight: set[0].TypeWeight,
		ObjWeight:  set[0].ObjWeight,
	}
	m.nextID++
	us, err := e.InsertObject(obj)
	if err != nil {
		t.Fatalf("insert type %d id %d: %v", ti, obj.ID, err)
	}
	m.sets[ti] = append(append([]core.Object(nil), set...), obj)
	return us
}

func (m *mutModel) input(base Input) Input {
	in := base
	in.Sets = make([][]core.Object, len(m.sets))
	for ti := range m.sets {
		in.Sets[ti] = append([]core.Object(nil), m.sets[ti]...)
	}
	return in
}

// TestMutationEquivalence is the correctness contract of the tentpole: after
// hundreds of random inserts and deletes, a mutated engine must answer
// exactly like an engine freshly prepared over the final object sets — for
// both boundary modes — while concurrent queries hammer every intermediate
// version (the -race run proves snapshot isolation).
func TestMutationEquivalence(t *testing.T) {
	const ops = 220
	for _, method := range []Method{RRB, MBRB} {
		t.Run(method.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(4242 + int64(method)))
			in := randomInput(r, []int{14, 11, 9}, true)
			in.DisableDiagramCache = true
			eng, err := NewEngine(in, method)
			if err != nil {
				t.Fatal(err)
			}
			model := newMutModel(in)
			weights := []float64{1.5, 0.7, 3.2}

			// Concurrent readers: every loaded snapshot must be internally
			// consistent, so Query must never error and must return a cost
			// achievable at its own location.
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						res, err := eng.Query(weights)
						if err != nil {
							t.Errorf("concurrent query: %v", err)
							return
						}
						if math.IsNaN(res.Cost) || res.Cost <= 0 {
							t.Errorf("concurrent query: bad cost %v", res.Cost)
							return
						}
					}
				}()
			}

			incremental := 0
			for i := 0; i < ops; i++ {
				us := model.randomOp(t, r, eng)
				if !us.Rebuilt {
					incremental++
				}
			}
			stop.Store(true)
			wg.Wait()
			if t.Failed() {
				return
			}
			if incremental < ops*3/4 {
				t.Fatalf("only %d/%d mutations repaired incrementally", incremental, ops)
			}
			if got, want := eng.Version(), int64(1+ops); got != want {
				t.Fatalf("version = %d, want %d", got, want)
			}

			fresh, err := NewEngine(model.input(in), method)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Combinations() != fresh.Combinations() {
				t.Fatalf("combinations: mutated %d, fresh %d", eng.Combinations(), fresh.Combinations())
			}
			got, err := eng.Query(weights)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(weights)
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(got.Cost, want.Cost) > 1e-9 {
				t.Fatalf("cost: mutated %.12g, fresh %.12g", got.Cost, want.Cost)
			}
			// The optimum location must score equally under both engines'
			// MWGD (locations may differ on exact cost ties).
			if relDiff(eng.MWGDAt(got.Loc, weights), fresh.MWGDAt(got.Loc, weights)) > 1e-9 {
				t.Fatalf("MWGD disagreement at %v", got.Loc)
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestMutationValidation pins every rejection path: all of them must leave
// the engine's published version untouched.
func TestMutationValidation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randomInput(r, []int{5, 4}, false)
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	v0 := eng.Version()
	cases := []struct {
		name string
		err  error
		run  func() error
	}{
		{"bad type insert", ErrBadType, func() error {
			_, err := eng.InsertObject(core.Object{Type: 9, ID: 100, Loc: geom.Pt(1, 1), ObjWeight: 1})
			return err
		}},
		{"bad type delete", ErrBadType, func() error {
			_, err := eng.DeleteObject(-1, 0)
			return err
		}},
		{"bad weight", ErrBadWeight, func() error {
			_, err := eng.InsertObject(core.Object{Type: 0, ID: 100, Loc: geom.Pt(1, 1)})
			return err
		}},
		{"duplicate id", ErrDuplicateID, func() error {
			_, err := eng.InsertObject(core.Object{Type: 0, ID: 0, Loc: geom.Pt(1, 1), ObjWeight: 1})
			return err
		}},
		{"duplicate location", ErrDuplicateLocation, func() error {
			_, err := eng.InsertObject(core.Object{Type: 0, ID: 100, Loc: in.Sets[0][0].Loc, ObjWeight: 1})
			return err
		}},
		{"unknown object", ErrUnknownObject, func() error {
			_, err := eng.DeleteObject(0, 12345)
			return err
		}},
		{"weighted insert under exact-forced RRB", ErrWeightedRRB, func() error {
			// WeightedEpsilon < 0 forbids the approximate weighted cell
			// fallback, so a non-uniform insert must be rejected. (The
			// default engine above would instead rebuild onto approximate
			// weighted RRB cells.)
			exIn := in
			exIn.WeightedEpsilon = -1
			exactEng, err := NewEngine(exIn, RRB)
			if err != nil {
				return err
			}
			_, err = exactEng.InsertObject(core.Object{Type: 0, ID: 100, Loc: geom.Pt(1, 1), ObjWeight: 2})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, tc.err) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.err)
		}
	}
	// Deleting a type down to one object, then once more, must fail.
	for i := 1; i < len(in.Sets[1]); i++ {
		if _, err := eng.DeleteObject(1, in.Sets[1][i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.DeleteObject(1, in.Sets[1][0].ID); !errors.Is(err, ErrLastObject) {
		t.Fatalf("last object: got %v", err)
	}
	if got := eng.Version(); got != v0+int64(len(in.Sets[1])-1) {
		t.Fatalf("version advanced by rejected mutations: %d", got)
	}
}

// TestMutationWeightedRebuild pins the fallback: inserting a different
// object weight under MBRB demotes the type to weighted diagrams, which have
// no incremental path — the mutation must repair by full rebuild and still
// answer exactly like a fresh engine.
func TestMutationWeightedRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := randomInput(r, []int{6, 5}, false)
	in.DisableDiagramCache = true
	eng, err := NewEngine(in, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	obj := core.Object{ID: 100, Type: 0, Loc: geom.Pt(321.5, 456.5), TypeWeight: 1, ObjWeight: 3}
	us, err := eng.InsertObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !us.Rebuilt {
		t.Fatal("weighted insert must repair by rebuild")
	}
	in2 := in
	in2.Sets = [][]core.Object{append(append([]core.Object(nil), in.Sets[0]...), obj), in.Sets[1]}
	fresh, err := NewEngine(in2, MBRB)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{2, 1}
	got, _ := eng.Query(w)
	want, _ := fresh.Query(w)
	if relDiff(got.Cost, want.Cost) > 1e-9 {
		t.Fatalf("cost: mutated %.12g, fresh %.12g", got.Cost, want.Cost)
	}
}

// TestMutationAfterSnapshotLoad pins the snapshot interaction: an engine
// restored from a prepared diagram (NewEngineFromPrepared, the path a
// replica runs after decoding a shard snapshot) retains no basic diagrams,
// so its first mutation repairs by full rebuild — and thereby re-arms the
// incremental path for the next one.
func TestMutationAfterSnapshotLoad(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	in := randomInput(r, []int{7, 6}, false)
	in.DisableDiagramCache = true
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	movd, sets, _ := eng.Prepared()
	loadedIn := in
	loadedIn.Sets = sets
	loaded, err := NewEngineFromPrepared(loadedIn, RRB, movd)
	if err != nil {
		t.Fatal(err)
	}
	us, err := loaded.InsertObject(core.Object{ID: 100, Type: 0, Loc: geom.Pt(77, 88), TypeWeight: 1, ObjWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !us.Rebuilt {
		t.Fatal("first mutation of a loaded engine must rebuild")
	}
	us, err = loaded.InsertObject(core.Object{ID: 101, Type: 0, Loc: geom.Pt(99, 111), TypeWeight: 1, ObjWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if us.Rebuilt {
		t.Fatal("second mutation should repair incrementally")
	}
	if us.Version != 3 {
		t.Fatalf("version = %d, want 3", us.Version)
	}
}

// TestMutationCacheAdvance pins the fingerprint choreography: after a
// mutation, the superseded diagrams are out of the cache and the repaired
// ones are seeded, so preparing a fresh engine over the mutated sets is all
// cache hits.
func TestMutationCacheAdvance(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cache := NewDiagramCache(1 << 24)
	in := randomInput(r, []int{8, 7}, false)
	in.Cache = cache
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	us, err := eng.InsertObject(core.Object{ID: 100, Type: 1, Loc: geom.Pt(500.5, 250.25), TypeWeight: 1, ObjWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if us.Rebuilt {
		t.Fatal("expected incremental repair")
	}
	st := eng.state.Load()
	in2 := in
	in2.Sets = st.sets
	fresh, err := NewEngine(in2, RRB)
	if err != nil {
		t.Fatal(err)
	}
	cs := fresh.CacheStats()
	if cs.Misses != 0 || cs.Hits != len(in.Sets)+1 {
		t.Fatalf("fresh prepare over mutated sets: hits=%d misses=%d, want all %d hits",
			cs.Hits, cs.Misses, len(in.Sets)+1)
	}
	got, _ := eng.Query([]float64{1, 1})
	want, _ := fresh.Query([]float64{1, 1})
	if relDiff(got.Cost, want.Cost) > 1e-9 {
		t.Fatalf("cost: mutated %.12g, fresh %.12g", got.Cost, want.Cost)
	}
}

// TestMutationSingleType pins the degenerate chain: a one-type engine's MOVD
// is its basic diagram, and splicing with zero other operands must still be
// exact.
func TestMutationSingleType(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	in := randomInput(r, []int{12}, false)
	in.DisableDiagramCache = true
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	model := newMutModel(in)
	for i := 0; i < 40; i++ {
		model.randomOp(t, r, eng)
	}
	fresh, err := NewEngine(model.input(in), RRB)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{1}
	got, _ := eng.Query(w)
	want, _ := fresh.Query(w)
	if relDiff(got.Cost, want.Cost) > 1e-9 {
		t.Fatalf("cost: mutated %.12g, fresh %.12g", got.Cost, want.Cost)
	}
	if eng.OVRs() != fresh.OVRs() {
		t.Fatalf("OVRs: mutated %d, fresh %d", eng.OVRs(), fresh.OVRs())
	}
}

// TestMutationPointsManaged checks the PointsManaged count each
// snapshot stores: after every mutation it equals a full count of the
// snapshot's diagram, and queries report it.
func TestMutationPointsManaged(t *testing.T) {
	for _, method := range []Method{RRB, MBRB} {
		r := rand.New(rand.NewSource(91 + int64(method)))
		in := randomInput(r, []int{12, 10, 8}, true)
		in.DisableDiagramCache = true
		eng, err := NewEngine(in, method)
		if err != nil {
			t.Fatal(err)
		}
		model := newMutModel(in)
		incremental := 0
		for i := 0; i < 60; i++ {
			if us := model.randomOp(t, r, eng); !us.Rebuilt {
				incremental++
			}
			st := eng.state.Load()
			if want := st.movd.PointsManaged(); st.pointsManaged != want {
				t.Fatalf("%v op %d: snapshot counts %d points, diagram has %d", method, i, st.pointsManaged, want)
			}
			res, err := eng.Query([]float64{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PointsManaged != st.pointsManaged {
				t.Fatalf("%v op %d: query reports %d points, snapshot %d", method, i, res.Stats.PointsManaged, st.pointsManaged)
			}
		}
		if incremental == 0 {
			t.Fatalf("%v: no mutation took the incremental path", method)
		}
	}
}

// TestMutationKeySetFarFromOrigin checks that a seeded run of inserts and
// deletes leaves the engine with exactly the combinations a rebuild over
// the final sets finds, key for key. The objects form dense clusters far
// from the origin (coordinates near 5,850 with spacing near 10), the shape
// under which the Voronoi hole repair once mis-scaled its cocircularity
// tolerance and left non-Delaunay cells behind.
func TestMutationKeySetFarFromOrigin(t *testing.T) {
	r := rand.New(rand.NewSource(1421))
	near := func() geom.Point { return geom.Pt(5800+r.Float64()*100, 5250+r.Float64()*100) }
	in := Input{
		Sets:                make([][]core.Object, 2),
		Bounds:              geom.NewRect(geom.Pt(0, 0), geom.Pt(10000, 10000)),
		DisableDiagramCache: true,
	}
	for ti := range in.Sets {
		for i := 0; i < 120; i++ {
			in.Sets[ti] = append(in.Sets[ti], core.Object{ID: i, Type: ti, Loc: near(), TypeWeight: 1, ObjWeight: 1})
		}
	}
	eng, err := NewEngine(in, RRB)
	if err != nil {
		t.Fatal(err)
	}
	model := newMutModel(in)
	for op := 0; op < 400; op++ {
		ti := r.Intn(len(model.sets))
		set := model.sets[ti]
		if r.Intn(2) == 0 && len(set) > 60 {
			at := r.Intn(len(set))
			if _, err := eng.DeleteObject(ti, set[at].ID); err != nil {
				t.Fatalf("op %d: delete: %v", op, err)
			}
			model.sets[ti] = append(append([]core.Object(nil), set[:at]...), set[at+1:]...)
			continue
		}
		obj := core.Object{ID: model.nextID, Type: ti, Loc: near(), TypeWeight: 1, ObjWeight: 1}
		model.nextID++
		if _, err := eng.InsertObject(obj); err != nil {
			t.Fatalf("op %d: insert: %v", op, err)
		}
		model.sets[ti] = append(append([]core.Object(nil), set...), obj)
	}
	fresh, err := NewEngine(model.input(in), RRB)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(e *Engine) map[string]bool {
		movd, _, _ := e.Prepared()
		out := make(map[string]bool, len(movd.OVRs))
		for i := range movd.OVRs {
			out[movd.OVRs[i].DedupKey()] = true
		}
		return out
	}
	got, want := keys(eng), keys(fresh)
	missing, extra := 0, 0
	for k := range want {
		if !got[k] {
			missing++
		}
	}
	for k := range got {
		if !want[k] {
			extra++
		}
	}
	if missing > 0 || extra > 0 {
		t.Fatalf("mutated engine has %d combinations, rebuild %d: %d missing, %d extra",
			len(got), len(want), missing, extra)
	}
}
