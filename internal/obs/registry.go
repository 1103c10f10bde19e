package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// OpMetrics holds the counters of one operation. All fields are updated
// atomically; a single OpMetrics is shared by every request dispatching the
// operation.
type OpMetrics struct {
	name string
	// transport labels the wire that carried the operation ("json"); ""
	// (the default SOAP path) keeps the label off rendered metrics so
	// long-standing dashboards and scrapes stay stable.
	transport string
	requests  atomic.Int64
	errors    atomic.Int64
	inflight  atomic.Int64
	latency   Histogram
}

// Name returns the operation name.
func (m *OpMetrics) Name() string { return m.name }

// Transport returns the wire label, "" for the default (SOAP) path.
func (m *OpMetrics) Transport() string { return m.transport }

// Requests returns the number of dispatches (including failed ones).
func (m *OpMetrics) Requests() int64 { return m.requests.Load() }

// Errors returns the number of dispatches that returned an error.
func (m *OpMetrics) Errors() int64 { return m.errors.Load() }

// InFlight returns the number of dispatches currently executing.
func (m *OpMetrics) InFlight() int64 { return m.inflight.Load() }

// Latency returns the operation's latency histogram.
func (m *OpMetrics) Latency() *Histogram { return &m.latency }

// Begin marks a dispatch as started. Pair with End.
func (m *OpMetrics) Begin() { m.inflight.Add(1) }

// End marks a dispatch as finished, recording its duration and outcome.
func (m *OpMetrics) End(d time.Duration, err error) {
	m.inflight.Add(-1)
	m.requests.Add(1)
	if err != nil {
		m.errors.Add(1)
	}
	m.latency.Observe(d)
}

// SizeDist tracks a distribution of sizes (ops per batch, names per page)
// as count/sum/max. All fields are updated atomically.
type SizeDist struct {
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
}

// Observe records one size sample.
func (d *SizeDist) Observe(n int) {
	d.count.Add(1)
	d.sum.Add(int64(n))
	for {
		cur := d.max.Load()
		if int64(n) <= cur || d.max.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// Count returns the number of samples.
func (d *SizeDist) Count() int64 { return d.count.Load() }

// Sum returns the total of all samples.
func (d *SizeDist) Sum() int64 { return d.sum.Load() }

// Max returns the largest sample seen.
func (d *SizeDist) Max() int64 { return d.max.Load() }

// Mean returns the average sample, 0 when empty.
func (d *SizeDist) Mean() float64 {
	n := d.count.Load()
	if n == 0 {
		return 0
	}
	return float64(d.sum.Load()) / float64(n)
}

// Registry tracks per-operation metrics plus service-wide counters. The
// zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu  sync.RWMutex
	ops map[string]*OpMetrics
	// Malformed counts requests rejected before dispatch (bad envelope,
	// unknown operation, failed authentication).
	malformed atomic.Int64
	// batchSizes records ops per batchWrite; pageSizes records entries
	// returned per paged query/listing.
	batchSizes SizeDist
	pageSizes  SizeDist
	// faults counts injected faults by site (non-zero only in chaos runs
	// with a fault injector configured).
	faultMu sync.Mutex
	faults  map[string]int64
	// external holds callback-backed counters owned by other subsystems
	// (e.g. the write-ahead log), sampled at render time.
	extMu    sync.Mutex
	external []externalCounter
	start    time.Time
}

// externalCounter is a series registered via RegisterCounter or
// RegisterFloat.
type externalCounter struct {
	name string
	help string
	typ  string // its Prometheus type
	fn   func() float64
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*OpMetrics), start: time.Now()}
}

// ObserveBatchSize records the op count of one batchWrite.
func (r *Registry) ObserveBatchSize(n int) { r.batchSizes.Observe(n) }

// ObservePageSize records the entry count of one returned page.
func (r *Registry) ObservePageSize(n int) { r.pageSizes.Observe(n) }

// BatchSizes returns the distribution of ops per batch.
func (r *Registry) BatchSizes() *SizeDist { return &r.batchSizes }

// PageSizes returns the distribution of entries per page.
func (r *Registry) PageSizes() *SizeDist { return &r.pageSizes }

// Op returns the metrics of the named operation on the default (SOAP)
// transport, creating them on first use.
func (r *Registry) Op(name string) *OpMetrics {
	return r.TransportOp("", name)
}

// TransportOp returns the metrics of the named operation on the labeled
// transport, creating them on first use. The empty transport is the default
// (SOAP) path and renders without a transport label.
func (r *Registry) TransportOp(transport, name string) *OpMetrics {
	key := name
	if transport != "" {
		key = transport + "\x00" + name
	}
	r.mu.RLock()
	m, ok := r.ops[key]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok = r.ops[key]; ok {
		return m
	}
	m = &OpMetrics{name: name, transport: transport}
	r.ops[key] = m
	return m
}

// FaultInjected counts one injected fault at the named site.
func (r *Registry) FaultInjected(site string) {
	r.faultMu.Lock()
	if r.faults == nil {
		r.faults = make(map[string]int64)
	}
	r.faults[site]++
	r.faultMu.Unlock()
}

// FaultsInjected returns a copy of the per-site injected-fault counts.
func (r *Registry) FaultsInjected() map[string]int64 {
	r.faultMu.Lock()
	defer r.faultMu.Unlock()
	out := make(map[string]int64, len(r.faults))
	for k, v := range r.faults {
		out[k] = v
	}
	return out
}

// RegisterCounter exposes a counter owned by another subsystem under name
// (a full Prometheus metric name, e.g. "mcs_wal_fsyncs_total"). The
// callback is sampled on every /metrics render, so the owner keeps its own
// atomic state and the registry stays free of cross-package dependencies.
// Registering the same name again replaces the callback.
func (r *Registry) RegisterCounter(name, help string, fn func() int64) {
	r.RegisterFloat(name, help, "counter", func() float64 { return float64(fn()) })
}

// RegisterFloat is RegisterCounter for a series that is not a whole number
// (seconds) or not a counter: typ is its Prometheus type, "counter" or
// "gauge".
func (r *Registry) RegisterFloat(name, help, typ string, fn func() float64) {
	c := externalCounter{name: name, help: help, typ: typ, fn: fn}
	r.extMu.Lock()
	defer r.extMu.Unlock()
	for i := range r.external {
		if r.external[i].name == name {
			r.external[i] = c
			return
		}
	}
	r.external = append(r.external, c)
	sort.Slice(r.external, func(i, j int) bool { return r.external[i].name < r.external[j].name })
}

// Counters samples every registered external series by name.
func (r *Registry) Counters() map[string]float64 {
	r.extMu.Lock()
	ext := append([]externalCounter(nil), r.external...)
	r.extMu.Unlock()
	out := make(map[string]float64, len(ext))
	for _, c := range ext {
		out[c.name] = c.fn()
	}
	return out
}

// Malformed counts one pre-dispatch rejection.
func (r *Registry) Malformed() { r.malformed.Add(1) }

// MalformedCount returns the number of pre-dispatch rejections.
func (r *Registry) MalformedCount() int64 { return r.malformed.Load() }

// Ops returns the recorded operations sorted by name.
func (r *Registry) Ops() []*OpMetrics {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*OpMetrics, 0, len(r.ops))
	for _, m := range r.ops {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].transport < out[j].transport
	})
	return out
}

// opKey names one (operation, transport) pair in JSON renderings: the bare
// operation name on the default path, "transport:name" otherwise.
func opKey(m *OpMetrics) string {
	if m.transport == "" {
		return m.name
	}
	return m.transport + ":" + m.name
}

// opLabels renders the Prometheus label set of one (operation, transport)
// pair; the default path keeps the historical single-label form.
func opLabels(m *OpMetrics) string {
	if m.transport == "" {
		return fmt.Sprintf("op=%q", m.name)
	}
	return fmt.Sprintf("op=%q,transport=%q", m.name, m.transport)
}

// opSnapshot is the JSON shape of one operation's metrics.
type opSnapshot struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	InFlight int64   `json:"in_flight"`
	MeanUS   int64   `json:"mean_us"`
	P50US    int64   `json:"p50_us"`
	P95US    int64   `json:"p95_us"`
	P99US    int64   `json:"p99_us"`
	Buckets  []int64 `json:"buckets"`
}

// sizeSnapshot is the JSON shape of a size distribution.
type sizeSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
}

func snapshotDist(d *SizeDist) sizeSnapshot {
	return sizeSnapshot{Count: d.Count(), Sum: d.Sum(), Max: d.Max(), Mean: d.Mean()}
}

// WriteJSON renders the registry expvar-style: one JSON object keyed by
// operation name, with latency quantiles in microseconds.
func (r *Registry) WriteJSON(w io.Writer) error {
	body := struct {
		UptimeSeconds int64                 `json:"uptime_seconds"`
		Malformed     int64                 `json:"malformed_requests"`
		BatchSizes    sizeSnapshot          `json:"batch_sizes"`
		PageSizes     sizeSnapshot          `json:"page_sizes"`
		Faults        map[string]int64      `json:"faults_injected"`
		Counters      map[string]float64    `json:"counters"`
		Operations    map[string]opSnapshot `json:"operations"`
	}{
		UptimeSeconds: int64(time.Since(r.start).Seconds()),
		Malformed:     r.malformed.Load(),
		BatchSizes:    snapshotDist(&r.batchSizes),
		PageSizes:     snapshotDist(&r.pageSizes),
		Faults:        r.FaultsInjected(),
		Counters:      r.Counters(),
		Operations:    make(map[string]opSnapshot),
	}
	for _, m := range r.Ops() {
		body.Operations[opKey(m)] = opSnapshot{
			Requests: m.Requests(),
			Errors:   m.Errors(),
			InFlight: m.InFlight(),
			MeanUS:   m.latency.Mean().Microseconds(),
			P50US:    m.latency.Quantile(0.50).Microseconds(),
			P95US:    m.latency.Quantile(0.95).Microseconds(),
			P99US:    m.latency.Quantile(0.99).Microseconds(),
			Buckets:  m.latency.Buckets(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(body)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (counters, gauges and cumulative histograms).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# HELP mcs_requests_total Operations dispatched.\n# TYPE mcs_requests_total counter\n")
	for _, m := range r.Ops() {
		p("mcs_requests_total{%s} %d\n", opLabels(m), m.Requests())
	}
	p("# HELP mcs_errors_total Operations that returned an error.\n# TYPE mcs_errors_total counter\n")
	for _, m := range r.Ops() {
		p("mcs_errors_total{%s} %d\n", opLabels(m), m.Errors())
	}
	p("# HELP mcs_in_flight Operations currently executing.\n# TYPE mcs_in_flight gauge\n")
	for _, m := range r.Ops() {
		p("mcs_in_flight{%s} %d\n", opLabels(m), m.InFlight())
	}
	p("# HELP mcs_malformed_requests_total Requests rejected before dispatch.\n# TYPE mcs_malformed_requests_total counter\n")
	p("mcs_malformed_requests_total %d\n", r.malformed.Load())
	p("# HELP mcs_faults_injected_total Faults injected by the chaos harness.\n# TYPE mcs_faults_injected_total counter\n")
	faults := r.FaultsInjected()
	sites := make([]string, 0, len(faults))
	for site := range faults {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		p("mcs_faults_injected_total{site=%q} %d\n", site, faults[site])
	}
	r.extMu.Lock()
	ext := append([]externalCounter(nil), r.external...)
	r.extMu.Unlock()
	for _, c := range ext {
		p("# HELP %s %s\n# TYPE %s %s\n%s %s\n", c.name, c.help, c.name, c.typ, c.name,
			strconv.FormatFloat(c.fn(), 'f', -1, 64))
	}
	p("# HELP mcs_batch_ops Operations carried per batchWrite request.\n# TYPE mcs_batch_ops summary\n")
	p("mcs_batch_ops_sum %d\nmcs_batch_ops_count %d\n", r.batchSizes.Sum(), r.batchSizes.Count())
	p("# HELP mcs_page_entries Entries returned per result page.\n# TYPE mcs_page_entries summary\n")
	p("mcs_page_entries_sum %d\nmcs_page_entries_count %d\n", r.pageSizes.Sum(), r.pageSizes.Count())
	p("# HELP mcs_latency_seconds Operation latency.\n# TYPE mcs_latency_seconds histogram\n")
	for _, m := range r.Ops() {
		cum := m.latency.Buckets()
		labels := opLabels(m)
		for i := 0; i < NumBuckets; i++ {
			p("mcs_latency_seconds_bucket{%s,le=\"%g\"} %d\n",
				labels, BucketBound(i).Seconds(), cum[i])
		}
		p("mcs_latency_seconds_bucket{%s,le=\"+Inf\"} %d\n", labels, cum[NumBuckets])
		p("mcs_latency_seconds_sum{%s} %g\n", labels, m.latency.Sum().Seconds())
		p("mcs_latency_seconds_count{%s} %d\n", labels, m.latency.Count())
	}
	return err
}
