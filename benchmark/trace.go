package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcs/internal/obs"
)

// Spans are recorded only here, in benchmark files, around the calls into
// each layer: the product is measured from outside. A span is name, start,
// end, the name of the span that caused it, and the request ID all spans of
// one request share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
}

// tracer keeps spans in memory while switched on. The wrappers below stay
// installed in untraced runs, where they cost one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent, req string, start, end time.Time) {
	s := span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps h in a span named name, child of the span named parent of
// the same request (found through the request-ID header).
func (t *tracer) handler(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, parent, r.Header.Get(obs.RequestIDHeader), start, time.Now())
	})
}

// roundTripper is one client's http.RoundTripper: it records the
// client.http span (request sent to body closed), counts wire bytes, and
// remembers the request ID the mcs.Client pinned so the caller can label
// its own client.call span with it. One client is one goroutine, so the
// fields need no lock.
type roundTripper struct {
	t         *tracer
	next      http.RoundTripper
	lastReq   string
	reqBytes  int64
	respBytes int64
}

func (rt *roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.next.RoundTrip(r)
	}
	start := time.Now()
	rt.lastReq = r.Header.Get(obs.RequestIDHeader)
	rt.reqBytes += r.ContentLength
	resp, err := rt.next.RoundTrip(r)
	if err != nil {
		rt.t.add("client.http", "client.call", rt.lastReq, start, time.Now())
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, rt: rt, start: start}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	rt    *roundTripper
	start time.Time
	done  bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.respBytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.rt.t.add("client.http", "client.call", b.rt.lastReq, b.start, time.Now())
	}
	return err
}

// spanTotals is what the per-layer metrics need of one span name.
type spanTotals struct {
	count int
	dur   int64 // summed durations, ns
	self  int64 // summed self times, ns
}

// selfTimes computes, per span name, the summed duration and self time. A
// span's self time is its duration minus the part of its interval that its
// children (spans of the same request naming it as parent) cover; children
// may overlap each other, as the shards of one scatter do.
func selfTimes(spans []span) map[string]*spanTotals {
	out := map[string]*spanTotals{}
	byReq := map[string][]int{}
	for i, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	type iv struct{ a, b int64 }
	var kids []iv
	for i, s := range spans {
		kids = kids[:0]
		if s.Req != "" {
			for _, k := range byReq[s.Req] {
				c := spans[k]
				if k == i || c.Parent != s.Name {
					continue
				}
				a, b := max(c.Start, s.Start), min(c.End, s.End)
				if b > a {
					kids = append(kids, iv{a, b})
				}
			}
		}
		sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
		var covered, end int64
		end = s.Start
		for _, k := range kids {
			if k.b <= end {
				continue
			}
			covered += k.b - max(k.a, end)
			end = k.b
		}
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.count++
		t.dur += s.End - s.Start
		t.self += s.End - s.Start - covered
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
