package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"molq/internal/dataset"
	"molq/internal/httpapi"
	"molq/internal/mwvd"
	"molq/internal/query"
)

// The solve workloads post whole datasets inline to POST /v1/solve. Every
// body is spliced from one pre-encoded template: one object per type moves
// by an offset unique to the request, which changes both basic diagrams'
// fingerprints and so the overlap's, while the generator does no JSON
// encoding at all.

const (
	solveObjects  = 1000 // per type
	weightedSites = 4096 // weighted-solve's type 0: past the 2,048-site approximate-MWVD crossover
	// warmSets is how many fixed datasets the warm fifth of solve repeats.
	// Each costs about 1.7 MB in the diagram cache; with 4 of them a warm
	// set is reused every 20 requests, well inside what the 64 MiB LRU
	// keeps while the cold stream flows through it (8 sets would be reused
	// every 40 requests, right at the eviction horizon).
	warmSets = 4
	// coldStep separates the moved objects of consecutive cold requests.
	coldStep = 1e-6
	// resolveChecks is how many answered bodies are re-solved in-process.
	resolveChecks = 16
)

// sentinel marks the moved objects' x coordinates in the template; it lies
// far outside the bounds, so it occurs nowhere else in the encoding.
const sentinel = 7.25e8

type solveAnswer struct {
	ph, i           int
	off, x, y, cost float64
}

type solveScenario struct {
	weighted bool
	seed     int64
	// shift is the run's seed-driven part of every offset.
	shift float64
	types []httpapi.TypeJSON
	moved []int    // index of the moved object per type
	parts [][]byte // the template around the moved objects' x values

	api  *httpapi.Server
	stop func()
	// evict0 is the eviction count when warm-up began; solve is steady once
	// the cache has reached its budget and evicts.
	evict0 int64

	mu      sync.Mutex
	answers []solveAnswer
}

func newSolveScenario(seed int64, weighted bool) (*solveScenario, error) {
	s := &solveScenario{weighted: weighted, seed: seed, shift: 0.5 * unit(seed, phSetup, 0, 3)}
	req := httpapi.SolveRequest{Bounds: benchBounds()}
	if weighted {
		req.Method = "mbrb"
		data := derive(dataSeed, "weighted")
		s.types = append(paperTypes(data, []string{dataset.STM}, weightedSites),
			paperTypes(data, []string{dataset.CH}, solveObjects)...)
		rng := rand.New(rand.NewSource(derive(dataSeed, "weights")))
		objs := s.types[0].Objects
		for i := range objs {
			w := 0.5 + 2*rng.Float64()
			objs[i].ObjWeight = &w
		}
	} else {
		req.Method = "rrb"
		s.types = paperTypes(derive(dataSeed, "solve"), []string{dataset.STM, dataset.CH}, solveObjects)
	}
	// Move the object nearest the centre, so every offset stays in bounds.
	b := dataset.DefaultBounds
	cx, cy := (b.Min.X+b.Max.X)/2, (b.Min.Y+b.Max.Y)/2
	req.Types = make([]httpapi.TypeJSON, len(s.types))
	for t, tj := range s.types {
		best := 0
		for i, o := range tj.Objects {
			if math.Hypot(o.X-cx, o.Y-cy) < math.Hypot(tj.Objects[best].X-cx, tj.Objects[best].Y-cy) {
				best = i
			}
		}
		s.moved = append(s.moved, best)
		objs := append([]httpapi.ObjectJSON(nil), tj.Objects...)
		objs[best].X = sentinel + float64(t)
		req.Types[t] = httpapi.TypeJSON{Name: tj.Name, Objects: objs}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	for t := range s.types {
		mark := []byte(`"x":` + strconv.FormatFloat(sentinel+float64(t), 'f', -1, 64) + `,`)
		if bytes.Count(raw, mark) != 1 {
			return nil, fmt.Errorf("template: marker of type %d not unique", t)
		}
		at := bytes.Index(raw, mark)
		s.parts = append(s.parts, raw[:at+len(`"x":`)])
		raw = raw[at+len(mark)-1:]
	}
	s.parts = append(s.parts, raw)
	return s, nil
}

// offset is request (ph, i)'s displacement of the moved objects: one of
// warmSets fixed values for solve's warm fifth, otherwise unique to the
// request.
func (s *solveScenario) offset(ph, i int) float64 {
	if !s.weighted && i%5 == 4 {
		return s.warmOffset((i / 5) % warmSets)
	}
	return s.coldOffset(ph, i)
}

func (s *solveScenario) coldOffset(ph, i int) float64 {
	return float64(ph*1_000_000+i+1)*coldStep + s.shift
}

// warmOffset is warm set k's offset; negative, unlike every cold one.
func (s *solveScenario) warmOffset(k int) float64 { return -float64(k+1)*1e-3 - s.shift }

func (s *solveScenario) kind(off float64) string {
	if off < 0 {
		return "warm"
	}
	return "cold"
}

// appendBody splices the template for offset off.
func (s *solveScenario) appendBody(buf []byte, off float64) []byte {
	for t, part := range s.parts[:len(s.moved)] {
		buf = append(buf, part...)
		buf = strconv.AppendFloat(buf, s.types[t].Objects[s.moved[t]].X+off, 'f', -1, 64)
	}
	return append(buf, s.parts[len(s.moved)]...)
}

func (s *solveScenario) boot() (string, error) {
	s.api = httpapi.New(httpapi.WithAdmission(2*runtime.GOMAXPROCS(0), 256))
	url, stop, err := serve(s.api)
	if err != nil {
		return "", err
	}
	s.stop = stop
	return url, nil
}

func (s *solveScenario) close() {
	if s.stop != nil {
		s.stop()
	}
}

// setupRound times one solve of a dataset the server has not seen, with no
// other request in flight: how long a client waits for a first answer.
func (s *solveScenario) setupRound(c *conn, k int) (time.Duration, error) {
	start := time.Now()
	a, o := s.post(c, s.coldOffset(phSetup, k))
	d := time.Since(start)
	return d, s.check(c, a, o)
}

// check fails a set-up answer that is not a 2xx or not the MWGD at its
// location.
func (s *solveScenario) check(c *conn, a solveAnswer, o outcome) error {
	if o != ok {
		return fmt.Errorf("solve at offset %g: %s", a.off, c.resp)
	}
	if !s.matchesMWGD(a) {
		return fmt.Errorf("solve at offset %g: cost %g is not the MWGD at its location", a.off, a.cost)
	}
	return nil
}

func (s *solveScenario) post(c *conn, off float64) (solveAnswer, outcome) {
	c.body = s.appendBody(c.body[:0], off)
	var resp httpapi.SolveResponse
	o := c.call("POST", "/v1/solve", c.body, &resp)
	return solveAnswer{off: off, x: resp.Location.X, y: resp.Location.Y, cost: resp.Cost}, o
}

// prepare loads solve's warm sets into the cache.
func (s *solveScenario) prepare(c *conn) error {
	for k := 0; k < warmSets && !s.weighted; k++ {
		a, o := s.post(c, s.warmOffset(k))
		if err := s.check(c, a, o); err != nil {
			return err
		}
	}
	s.evict0 = evictions().Value()
	return nil
}

func (s *solveScenario) steady() bool {
	return s.weighted || evictions().Value() > s.evict0
}

func (s *solveScenario) send(c *conn, ph, i int) (string, outcome) {
	off := s.offset(ph, i)
	a, o := s.post(c, off)
	if o == ok {
		a.ph, a.i = ph, i
		s.mu.Lock()
		s.answers = append(s.answers, a)
		s.mu.Unlock()
	}
	return s.kind(off), o
}

// matchesMWGD recomputes the minimum weighted group distance at the
// answer's location from the request's objects; the returned cost must
// equal it within relative error 1e-9.
func (s *solveScenario) matchesMWGD(a solveAnswer) bool {
	total := 0.0
	for t, tj := range s.types {
		best := math.Inf(1)
		for i, o := range tj.Objects {
			x := o.X
			if i == s.moved[t] {
				x += a.off
			}
			w := 1.0
			if o.ObjWeight != nil {
				w = *o.ObjWeight
			}
			best = min(best, w*math.Hypot(a.x-x, a.y-o.Y))
		}
		total += best
	}
	return math.Abs(total-a.cost) <= 1e-9*math.Abs(total)
}

// solveInProcess decodes body the way the solve handler does and solves it
// through query.SolveContext; cold requests build their diagrams from
// scratch, warm ones read the shared cache as the server did.
func solveInProcess(body []byte, cold bool) (query.Input, query.Result, time.Duration, time.Duration, error) {
	start := time.Now()
	var req httpapi.SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return query.Input{}, query.Result{}, 0, 0, err
	}
	m, err := httpapi.ParseMethod(req.Method, true)
	if err != nil {
		return query.Input{}, query.Result{}, 0, 0, err
	}
	in, err := httpapi.BuildInput(req.Types, req.Bounds, req.Epsilon)
	if err != nil {
		return query.Input{}, query.Result{}, 0, 0, err
	}
	in.WeightedEpsilon, in.Workers, in.PruneOverlap = req.WeightedEpsilon, req.Workers, req.PruneOverlap
	in.DisableDiagramCache = cold
	decode := time.Since(start)
	start = time.Now()
	res, err := query.SolveContext(context.Background(), in, m)
	return in, res, decode, time.Since(start), err
}

// verify checks every recorded answer against the recomputed MWGD, then
// re-solves resolveChecks of them in-process: the location and cost must be
// identical.
func (s *solveScenario) verify(*conn, map[string]float64) (int, error) {
	s.mu.Lock()
	answers := append([]solveAnswer(nil), s.answers...)
	s.mu.Unlock()
	bad := 0
	for _, a := range answers {
		if !s.matchesMWGD(a) {
			bad++
		}
	}
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].ph != answers[j].ph {
			return answers[i].ph < answers[j].ph
		}
		return answers[i].i < answers[j].i
	})
	var sample []solveAnswer
	for k := 0; k < resolveChecks && len(answers) > 0; k++ {
		sample = append(sample, answers[k*len(answers)/resolveChecks])
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := 0
	for g := 0; g < conns(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(sample) {
					return
				}
				a := sample[k]
				_, res, _, _, err := solveInProcess(s.appendBody(nil, a.off), true)
				mu.Lock()
				switch {
				case err != nil && firstErr == nil:
					firstErr = err
				case err == nil && (res.Loc.X != a.x || res.Loc.Y != a.y || res.Cost != a.cost):
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return bad, firstErr
}

func (s *solveScenario) replay(c *conn, n int, _ time.Duration) ([]replayItem, map[string]float64, error) {
	var items []replayItem
	for i := 0; i < n; i++ {
		off := s.offset(phReplay, i)
		it := replayItem{op: s.kind(off), at: time.Now(), built: off > 0}
		a, o := s.post(c, off)
		if it.o = o; o != ok {
			items = append(items, it)
			continue
		}
		it.rtt = time.Since(it.at)
		in, res, decode, call, err := solveInProcess(s.appendBody(nil, off), off > 0)
		if err != nil {
			return nil, nil, err
		}
		it.decode, it.call, it.stats = decode, call, &res.Stats
		if res.Loc.X != a.x || res.Loc.Y != a.y || res.Cost != a.cost || !s.matchesMWGD(a) {
			it.o = wrong
		}
		out := httpapi.SolveResponse{
			Location: httpapi.PointJSON{X: res.Loc.X, Y: res.Loc.Y}, Cost: res.Cost,
			Method: res.Method.String(), OVRs: res.Stats.OVRs, Groups: res.Stats.Groups,
			Micros: res.Stats.TotalTime.Microseconds(),
		}
		if res.Stats.Cache.Hits+res.Stats.Cache.Misses > 0 {
			out.Cache = &httpapi.CacheJSON{Hits: res.Stats.Cache.Hits, Misses: res.Stats.Cache.Misses}
		}
		if it.encode, err = timed(func() error {
			_, err := json.Marshal(out)
			return err
		}); err != nil {
			return nil, nil, err
		}
		if s.weighted {
			// The weighted type's diagram on its own, at the ε the solve
			// picked automatically, for the filter/refine/emit split.
			sites := make([]mwvd.Site, len(in.Sets[0]))
			for j, o := range in.Sets[0] {
				sites[j] = mwvd.Site{P: o.Loc, W: o.ObjWeight}
			}
			_, st, err := mwvd.ApproxDominanceMBRs(sites, in.Bounds, mwvd.Options{
				Epsilon: mwvd.AutoEpsilon(len(sites)), Workers: in.Workers,
			})
			if err != nil {
				return nil, nil, err
			}
			it.mw = &st
		}
		items = append(items, it)
	}
	return items, nil, nil
}
