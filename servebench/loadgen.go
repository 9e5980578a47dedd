package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator. The open loop offers arrivals on a fixed schedule and
// times each request from its due time, so a stall in the stack is charged
// to every request that waited behind it; the closed loop keeps one request
// in flight per connection. Both keep raw per-request samples, and every
// percentile is read from the sorted samples.

// outcome classifies one request.
type outcome uint8

const (
	ok       outcome = iota
	failed           // transport error, non-2xx status or malformed body
	rejected         // 429 from admission control
	wrong            // 2xx whose answer failed its check
)

// sendFunc issues request i of phase ph over c. op names the request kind
// for spans.
type sendFunc func(c *conn, ph, i int) (op string, o outcome)

// conn is one client connection's worth of state: the shared client, the
// connection-acquired timestamp of its last request and reusable buffers.
// A conn is used by one goroutine at a time.
type conn struct {
	client  *http.Client
	base    string
	ctx     context.Context
	gotConn time.Time
	body    []byte
	resp    []byte
}

// newClient returns an HTTP client that never holds more than n
// connections: n in flight, n idle.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     n,
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

func newConn(client *http.Client, base string) *conn {
	c := &conn{client: client, base: base}
	c.ctx = httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { c.gotConn = time.Now() },
	})
	return c
}

// do sends one request to base+path and reads the whole response into
// c.resp.
func (c *conn) do(method, url string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(c.resp[:0])
	_, err = buf.ReadFrom(resp.Body)
	c.resp = buf.Bytes()
	return resp.StatusCode, err
}

// call sends a request to c.base+path, classifies the status and decodes a
// 2xx body into out (when non-nil).
func (c *conn) call(method, path string, body []byte, out any) outcome {
	status, err := c.do(method, c.base+path, body)
	switch {
	case err != nil:
		return failed
	case status == http.StatusTooManyRequests:
		return rejected
	case status < 200 || status > 299:
		return failed
	}
	if out != nil && json.Unmarshal(c.resp, out) != nil {
		return failed
	}
	return ok
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	attempted, failed, rejected, wrong, dropped int
	// lat is the latency of each successful request in ms: from its due time
	// (open loop) or send time (closed loop) to the end of its response.
	lat []float64
	// late is how far the generator itself lagged, in ms: in the open loop
	// from due time to enqueue, in the closed loop from the previous
	// response to the next send.
	late []float64
	// wait is the time from due time to a connection being obtained, in ms.
	wait    []float64
	elapsed time.Duration
	spans   spanLog
}

func (ps *phaseStats) record(o outcome, lat, late, wait float64) {
	ps.attempted++
	ps.late = append(ps.late, late)
	switch o {
	case ok:
		ps.lat = append(ps.lat, lat)
		ps.wait = append(ps.wait, wait)
	case rejected:
		ps.failed++
		ps.rejected++
	case wrong:
		ps.failed++
		ps.wrong++
	default:
		ps.failed++
	}
}

// traceRequest records one load request as a root span with its generator
// and round-trip children.
func (ps *phaseStats) traceRequest(t0 time.Time, op string, due, queued, got, end time.Time) {
	root := ps.spans.add(t0, -1, "request/"+op, due, end)
	ps.spans.add(t0, root, "loadgen.dispatch_late", due, queued)
	ps.spans.add(t0, root, "loadgen.queue_wait", due, got)
	ps.spans.add(t0, root, "httpapi.round_trip", got, end)
}

func mergePhases(parts []phaseStats) phaseStats {
	var out phaseStats
	for i := range parts {
		p := &parts[i]
		out.attempted += p.attempted
		out.failed += p.failed
		out.rejected += p.rejected
		out.wrong += p.wrong
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
		out.wait = append(out.wait, p.wait...)
		out.spans.merge(&p.spans)
	}
	sort.Float64s(out.lat)
	sort.Float64s(out.late)
	sort.Float64s(out.wait)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop offers rate·d arrivals at fixed intervals to one worker per
// connection. t0 anchors span timestamps; spans are recorded when traced.
func openLoop(cs []*conn, rate float64, d time.Duration, ph int, send sendFunc, traced bool, t0 time.Time) phaseStats {
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	type arrival struct {
		i           int
		due, queued time.Time
	}
	// One second of arrivals: a stack that falls further behind than that
	// has failed the workload, and later arrivals count as dropped.
	jobs := make(chan arrival, int(rate)+1)
	parts := make([]phaseStats, len(cs))
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(ps *phaseStats, c *conn) {
			defer wg.Done()
			for a := range jobs {
				op, o := send(c, ph, a.i)
				end := time.Now()
				ps.record(o, ms(end.Sub(a.due)), ms(a.queued.Sub(a.due)), ms(c.gotConn.Sub(a.due)))
				if traced {
					ps.traceRequest(t0, op, a.due, a.queued, c.gotConn, end)
				}
			}
		}(&parts[w], c)
	}
	start := time.Now()
	dropped := 0
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		// A signal can cut a sleep short; never dispatch before the due time.
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			sleepPrecise(wait)
		}
		select {
		case jobs <- arrival{i: i, due: due, queued: time.Now()}:
		default:
			dropped++
		}
	}
	close(jobs)
	wg.Wait()
	ps := mergePhases(parts)
	ps.elapsed = time.Since(start)
	ps.dropped = dropped
	ps.attempted += dropped
	ps.failed += dropped
	return ps
}

// closedLoop keeps one request in flight per connection for d.
func closedLoop(cs []*conn, d time.Duration, ph int, send sendFunc, traced bool, t0 time.Time) phaseStats {
	parts := make([]phaseStats, len(cs))
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	var last atomic.Int64 // nanoseconds after start of the latest completion
	var wg sync.WaitGroup
	for w, c := range cs {
		wg.Add(1)
		go func(ps *phaseStats, c *conn) {
			defer wg.Done()
			prev := start
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				i := int(next.Add(1) - 1)
				op, o := send(c, ph, i)
				done := time.Now()
				ps.record(o, ms(done.Sub(sent)), ms(sent.Sub(prev)), ms(c.gotConn.Sub(sent)))
				if traced {
					ps.traceRequest(t0, op, sent, sent, c.gotConn, done)
				}
				prev = done
				for {
					cur := last.Load()
					at := int64(done.Sub(start))
					if at <= cur || last.CompareAndSwap(cur, at) {
						break
					}
				}
			}
		}(&parts[w], c)
	}
	wg.Wait()
	ps := mergePhases(parts)
	ps.elapsed = time.Duration(last.Load())
	return ps
}

// throughput is successful requests per second of the phase.
func (ps *phaseStats) throughput() float64 {
	if ps.elapsed <= 0 {
		return 0
	}
	return float64(len(ps.lat)) / ps.elapsed.Seconds()
}

// span is one timed interval of the trace; Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog holds spans in memory until the run writes them out.
type spanLog struct{ spans []span }

func (l *spanLog) add(t0 time.Time, parent int, name string, start, end time.Time) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(t0)) / float64(time.Microsecond),
	})
	return id
}

// merge appends o's spans, renumbering them after l's.
func (l *spanLog) merge(o *spanLog) {
	off := len(l.spans)
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
}
