package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("zero histogram not empty")
	}
	h.Observe(50 * time.Microsecond) // bucket 0 (<=64µs)
	h.Observe(100 * time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	want := 50*time.Microsecond + 100*time.Microsecond + time.Millisecond + time.Second
	if h.Sum() != want {
		t.Fatalf("sum = %s, want %s", h.Sum(), want)
	}
	// p50 falls in the second sample's bucket: 100µs <= 128µs.
	if q := h.Quantile(0.5); q != 128*time.Microsecond {
		t.Fatalf("p50 = %s", q)
	}
	// p100 covers the 1s sample; its bucket bound is the first power-of-two
	// multiple of 64µs at or above 1s.
	if q := h.Quantile(1.0); q < time.Second || q > 2*time.Second {
		t.Fatalf("p100 = %s", q)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)   // clamped to 0
	h.Observe(72 * time.Hour) // beyond the last finite bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.25); q != BucketBound(0) {
		t.Fatalf("p25 = %s, want %s", q, BucketBound(0))
	}
	// The overflow sample reports the last finite bound rather than +Inf.
	if q := h.Quantile(1.0); q != BucketBound(NumBuckets-1) {
		t.Fatalf("p100 = %s, want %s", q, BucketBound(NumBuckets-1))
	}
	buckets := h.Buckets()
	if buckets[NumBuckets] != 2 {
		t.Fatalf("cumulative +Inf bucket = %d", buckets[NumBuckets])
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	b := h.Buckets()
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			t.Fatalf("buckets not cumulative at %d: %v", i, b)
		}
	}
	if b[len(b)-1] != 100 {
		t.Fatalf("total = %d", b[len(b)-1])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if b := h.Buckets(); b[len(b)-1] != workers*per {
		t.Fatalf("bucket total = %d", b[len(b)-1])
	}
}

func TestRegistryCounters(t *testing.T) {
	r := NewRegistry()
	m := r.Op("createFile")
	if m != r.Op("createFile") {
		t.Fatal("Op not idempotent")
	}
	m.Begin()
	if m.InFlight() != 1 {
		t.Fatalf("inflight = %d", m.InFlight())
	}
	m.End(time.Millisecond, nil)
	m.Begin()
	m.End(2*time.Millisecond, errors.New("boom"))
	if m.Requests() != 2 || m.Errors() != 1 || m.InFlight() != 0 {
		t.Fatalf("requests=%d errors=%d inflight=%d", m.Requests(), m.Errors(), m.InFlight())
	}
	r.Malformed()
	if r.MalformedCount() != 1 {
		t.Fatalf("malformed = %d", r.MalformedCount())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	ops := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m := r.Op(ops[(w+i)%len(ops)])
				m.Begin()
				m.End(time.Duration(i)*time.Microsecond, nil)
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, m := range r.Ops() {
		total += m.Requests()
	}
	if total != 8*500 {
		t.Fatalf("total requests = %d", total)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	m := r.Op("query")
	m.Begin()
	m.End(5*time.Millisecond, nil)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Operations map[string]struct {
			Requests int64 `json:"requests"`
			P50US    int64 `json:"p50_us"`
		} `json:"operations"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	q, ok := out.Operations["query"]
	if !ok || q.Requests != 1 || q.P50US <= 0 {
		t.Fatalf("JSON = %s", buf.String())
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	m := r.Op("getFile")
	m.Begin()
	m.End(time.Millisecond, errors.New("x"))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mcs_requests_total{op="getFile"} 1`,
		`mcs_errors_total{op="getFile"} 1`,
		`mcs_in_flight{op="getFile"} 0`,
		`mcs_latency_seconds_bucket{op="getFile",le="+Inf"} 1`,
		`mcs_latency_seconds_count{op="getFile"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

// TestRegistryExternalSeries: a registered counter renders as the integer it
// is, however large; a float series renders under the type it was given.
func TestRegistryExternalSeries(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("x_ops_total", "Ops.", func() int64 { return 1 << 40 })
	r.RegisterFloat("x_seconds_total", "Seconds.", "counter", func() float64 { return 0.25 })
	r.RegisterFloat("x_bytes", "Bytes.", "gauge", func() float64 { return 7 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE x_ops_total counter\nx_ops_total 1099511627776\n",
		"# TYPE x_seconds_total counter\nx_seconds_total 0.25\n",
		"# TYPE x_bytes gauge\nx_bytes 7\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestSlowOpLog(t *testing.T) {
	var buf bytes.Buffer
	s := NewSlowOpLog(10*time.Millisecond, log.New(&buf, "", 0))
	if s.Record("fast", "r1", "/CN=a", time.Millisecond, nil) {
		t.Fatal("fast op logged")
	}
	if !s.Record("slow", "r2", "/CN=a", 20*time.Millisecond, nil) {
		t.Fatal("slow op not logged")
	}
	if !s.Record("slowerr", "r3", "", 30*time.Millisecond, errors.New("kaput")) {
		t.Fatal("slow failing op not logged")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d", s.Count())
	}
	text := buf.String()
	for _, want := range []string{"op=slow", "req=r2", "op=slowerr", "status=error: kaput", `dn="-"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in %q", want, text)
		}
	}
	if strings.Contains(text, "op=fast") {
		t.Fatalf("fast op in log: %q", text)
	}
}

func TestSlowOpLogDisabled(t *testing.T) {
	var s *SlowOpLog
	if s.Record("x", "r", "", time.Hour, nil) || s.Count() != 0 {
		t.Fatal("nil slow-op log recorded")
	}
	z := NewSlowOpLog(0, nil)
	if z.Record("x", "r", "", time.Hour, nil) {
		t.Fatal("zero-threshold slow-op log recorded")
	}
}

func TestSlowOpLogConcurrent(t *testing.T) {
	var buf syncBuffer
	s := NewSlowOpLog(time.Nanosecond, log.New(&buf, "", 0))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Record("op", NewRequestID(), "/CN=x", time.Millisecond, nil)
			}
		}()
	}
	wg.Wait()
	if s.Count() != 800 {
		t.Fatalf("count = %d", s.Count())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for concurrent log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
