package mcs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mcs/internal/mcswire"
	"mcs/internal/obs"
)

// fetch GETs a diagnostic endpoint and returns its body.
func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// The /metrics endpoint must reflect real traffic: request counts, error
// counts and latency histograms per operation, in both exposition formats.
func TestMetricsEndpointReflectsTraffic(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)

	for i := 0; i < 5; i++ {
		if _, err := c.CreateFile(FileSpec{Name: fmt.Sprintf("m-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.GetFile("m-0", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := c.GetFile("no-such-file", 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err = %v, want ErrNotFound", err)
		}
	}

	// Prometheus text format (the default).
	code, text := fetch(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`mcs_requests_total{op="createFile"} 5`,
		`mcs_requests_total{op="getFile"} 5`,
		`mcs_errors_total{op="getFile"} 2`,
		`mcs_errors_total{op="createFile"} 0`,
		`mcs_latency_seconds_bucket{op="createFile",le="+Inf"} 5`,
		`mcs_latency_seconds_count{op="getFile"} 5`,
		`mcs_malformed_requests_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// JSON format.
	code, body := fetch(t, url+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json status = %d", code)
	}
	var snap struct {
		UptimeSeconds int64 `json:"uptime_seconds"`
		Malformed     int64 `json:"malformed_requests"`
		Operations    map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
			InFlight int64 `json:"in_flight"`
			P50US    int64 `json:"p50_us"`
			P99US    int64 `json:"p99_us"`
		} `json:"operations"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v\n%s", err, body)
	}
	cf := snap.Operations["createFile"]
	if cf.Requests != 5 || cf.Errors != 0 || cf.InFlight != 0 {
		t.Fatalf("createFile snapshot = %+v", cf)
	}
	gf := snap.Operations["getFile"]
	if gf.Requests != 5 || gf.Errors != 2 {
		t.Fatalf("getFile snapshot = %+v", gf)
	}
	if cf.P50US <= 0 || cf.P99US < cf.P50US {
		t.Fatalf("createFile quantiles = p50 %d, p99 %d", cf.P50US, cf.P99US)
	}
}

// A single ping must show up in the latency histogram series.
func TestMetricsEndpointContainsHistogram(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	_, text := fetch(t, url+"/metrics")
	if !strings.Contains(text, `mcs_latency_seconds_bucket{op="ping",le="+Inf"} 1`) ||
		!strings.Contains(text, `mcs_latency_seconds_count{op="ping"} 1`) {
		t.Fatalf("/metrics missing ping histogram:\n%s", text)
	}
}

// /healthz and /statz report liveness and catalog row counts.
func TestHealthzAndStatz(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)
	for i := 0; i < 3; i++ {
		if _, err := c.CreateFile(FileSpec{Name: fmt.Sprintf("s-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	code, body := fetch(t, url+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = fetch(t, url+"/statz")
	if code != http.StatusOK {
		t.Fatalf("/statz status = %d", code)
	}
	var st struct {
		Files int `json:"files"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /statz JSON: %v\n%s", err, body)
	}
	if st.Files != 3 {
		t.Fatalf("/statz files = %d, want 3", st.Files)
	}
}

// Disabling the endpoints must hide them without affecting SOAP dispatch.
func TestEndpointsDisabled(t *testing.T) {
	_, url := startServer(t, ServerOptions{Obs: ObsOptions{DisableEndpoints: true}})
	c := NewClient(url, testAlice)
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The paths fall through to the SOAP dispatcher, which never renders
	// metrics or stats content.
	for _, path := range []string{"/metrics", "/healthz", "/statz"} {
		_, body := fetch(t, url+path)
		if strings.Contains(body, "mcs_requests_total") || strings.Contains(body, "uptime_seconds") || body == "ok\n" {
			t.Fatalf("GET %s still serves diagnostics with endpoints disabled: %q", path, body)
		}
	}
}

// Metrics must stay consistent when many clients hammer the server
// concurrently (run under -race).
func TestMetricsConcurrentClients(t *testing.T) {
	srv, url := startServer(t, ServerOptions{})
	const workers, callsPerWorker = 8, 15

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(url, testAlice) // one client host per worker
			for i := 0; i < callsPerWorker; i++ {
				name := fmt.Sprintf("conc-%02d-%03d", w, i)
				if _, err := c.CreateFile(FileSpec{Name: name}); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := c.GetFile(name, 0); err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	reg := srv.Metrics()
	if reg == nil {
		t.Fatal("metrics registry is nil")
	}
	want := int64(workers * callsPerWorker)
	if got := reg.Op("createFile").Requests(); got != want {
		t.Fatalf("createFile requests = %d, want %d", got, want)
	}
	if got := reg.Op("getFile").Requests(); got != want {
		t.Fatalf("getFile requests = %d, want %d", got, want)
	}
	if got := reg.Op("createFile").Errors(); got != 0 {
		t.Fatalf("createFile errors = %d", got)
	}
	if got := reg.Op("createFile").Latency().Count(); got != want {
		t.Fatalf("createFile latency samples = %d, want %d", got, want)
	}
}

// A request ID supplied by the client must travel through the SOAP layer
// into the audit record of the write it caused; without one, the client
// generates a fresh ID per call.
func TestRequestIDPropagationEndToEnd(t *testing.T) {
	_, url := startServer(t, ServerOptions{})

	// Caller-supplied ID (e.g. from an upstream workflow system).
	c := NewClient(url, testAlice)
	c.wire.Header.Set(obs.RequestIDHeader, "workflow-step-17")
	if _, err := c.CreateFile(FileSpec{Name: "traced", Audited: true}); err != nil {
		t.Fatal(err)
	}
	recs, err := c.AuditLog(ObjectFile, "traced")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].RequestID != "workflow-step-17" {
		t.Fatalf("audit records = %+v, want RequestID workflow-step-17", recs)
	}

	// Client-generated IDs: fresh, well-formed, distinct per call.
	g := NewClient(url, testAlice)
	if _, err := g.CreateFile(FileSpec{Name: "gen-a", Audited: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateFile(FileSpec{Name: "gen-b", Audited: true}); err != nil {
		t.Fatal(err)
	}
	idPattern := regexp.MustCompile(`^[0-9a-f]{16}$`)
	var ids []string
	for _, name := range []string{"gen-a", "gen-b"} {
		recs, err := g.AuditLog(ObjectFile, name)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !idPattern.MatchString(recs[0].RequestID) {
			t.Fatalf("audit for %s = %+v, want generated hex request ID", name, recs)
		}
		ids = append(ids, recs[0].RequestID)
	}
	if ids[0] == ids[1] {
		t.Fatalf("request IDs not unique per call: %q", ids[0])
	}

	// With client-side propagation disabled the server mints its own ID,
	// so audit records stay correlatable.
	d := NewClient(url, testAlice, WithRequestIDHeader(""))
	if _, err := d.CreateFile(FileSpec{Name: "untraced", Audited: true}); err != nil {
		t.Fatal(err)
	}
	recs, err = d.AuditLog(ObjectFile, "untraced")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !idPattern.MatchString(recs[0].RequestID) {
		t.Fatalf("audit records = %+v, want server-minted hex request ID", recs)
	}
}

// syncLogBuffer is a goroutine-safe sink for the slow-op logger.
type syncLogBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// With a tiny threshold every operation is "slow" and must be logged with
// its operation name, request ID and caller DN.
func TestSlowOpLogEndToEnd(t *testing.T) {
	var buf syncLogBuffer
	_, url := startServer(t, ServerOptions{Obs: ObsOptions{
		SlowOpThreshold: time.Nanosecond,
		SlowOpLogger:    log.New(&buf, "", 0),
	}})
	c := NewClient(url, testAlice)
	c.wire.Header.Set(obs.RequestIDHeader, "slow-req-1")
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow-op op=ping") ||
		!strings.Contains(out, "req=slow-req-1") ||
		!strings.Contains(out, "threshold=1ns") {
		t.Fatalf("slow-op log = %q", out)
	}
}

// Every sentinel the catalog can raise must survive the SOAP round trip:
// the client error matches the same sentinel with errors.Is, and the
// server's human-readable message is preserved.
func TestFaultSentinelRoundTrip(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)

	// Fixtures shared by the trigger functions below.
	if _, err := c.DefineAttribute("dup", AttrString, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCollection(CollectionSpec{Name: "full"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile(FileSpec{Name: "inside", Collection: "full"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateView(ViewSpec{Name: "self"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile(FileSpec{Name: "multi"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateFile(FileSpec{Name: "multi"}); err != nil {
		t.Fatal(err)
	}

	// A second server with authorization enforced, for ErrDenied.
	_, authzURL := startServer(t, ServerOptions{
		CatalogOptions: Options{Owner: testAlice, EnforceAuthz: true},
	})
	bob := NewClient(authzURL, testBob)

	cases := []struct {
		sentinel error
		name     string
		trigger  func() error
	}{
		{ErrNotFound, "ErrNotFound", func() error {
			_, err := c.GetFile("no-such", 0)
			return err
		}},
		{ErrExists, "ErrExists", func() error {
			_, err := c.DefineAttribute("dup", AttrString, "")
			return err
		}},
		{ErrDenied, "ErrDenied", func() error {
			_, err := bob.CreateFile(FileSpec{Name: "bobs"})
			return err
		}},
		{ErrInvalidInput, "ErrInvalidInput", func() error {
			_, err := c.CreateFile(FileSpec{})
			return err
		}},
		{ErrCycle, "ErrCycle", func() error {
			return c.AddToView("self", ObjectView, "self")
		}},
		{ErrNotEmpty, "ErrNotEmpty", func() error {
			return c.DeleteCollection("full")
		}},
		{ErrAmbiguousFile, "ErrAmbiguousFile", func() error {
			_, err := c.GetFile("multi", 0)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.trigger()
		if err == nil {
			t.Errorf("%s: trigger returned nil", tc.name)
			continue
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("%s: errors.Is failed on %v", tc.name, err)
		}
		if err.Error() == "" || !strings.Contains(err.Error(), "Server.") {
			t.Errorf("%s: message lost: %q", tc.name, err)
		}
	}
}

// The fault mapping table must cover every sentinel the package exports,
// and every entry must round-trip code -> sentinel -> code.
func TestFaultSentinelTableExhaustive(t *testing.T) {
	all := map[string]error{
		"ErrNotFound":      ErrNotFound,
		"ErrExists":        ErrExists,
		"ErrDenied":        ErrDenied,
		"ErrInvalidInput":  ErrInvalidInput,
		"ErrCycle":         ErrCycle,
		"ErrNotEmpty":      ErrNotEmpty,
		"ErrAmbiguousFile": ErrAmbiguousFile,
		"ErrUnavailable":   ErrUnavailable,
		"ErrPartialResult": ErrPartialResult,
	}
	// ErrTransport is deliberately absent: it is a client-side diagnosis
	// (no decodable reply), never a wire fault code.
	if len(faultSentinels) != len(all) {
		t.Fatalf("faultSentinels has %d entries, package exports %d sentinels",
			len(faultSentinels), len(all))
	}
	covered := map[string]bool{}
	for name, sentinel := range all {
		code := mcswire.CodeForError(fmt.Errorf("wrapped: %w", sentinel))
		if code == "" {
			t.Errorf("%s missing from faultSentinels", name)
			continue
		}
		if covered[code] {
			t.Errorf("fault code %q mapped twice", code)
		}
		covered[code] = true
		back := mcswire.SentinelForCode("soapenv:Server." + code)
		if back != sentinel { //nolint:errorlint // table stores exact sentinels
			t.Errorf("%s: round trip gave %v", name, back)
		}
	}
	// Unknown and malformed codes map to nothing.
	if mcswire.SentinelForCode("soapenv:Server.Bogus") != nil || mcswire.SentinelForCode("soapenv:Server") != nil {
		t.Error("unknown fault codes must not map to sentinels")
	}
	// A generic server error carries no code suffix.
	if code := mcswire.CodeForError(errors.New("disk on fire")); code != "" {
		t.Errorf("generic error mapped to %q", code)
	}
}

// Context cancellation must abort client calls at the mcs level, and a
// transport error must not be mistaken for a catalog sentinel.
func TestClientContextCancellation(t *testing.T) {
	_, url := startServer(t, ServerOptions{})
	c := NewClient(url, testAlice)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.GetFileCtx(ctx, "whatever", 0)
	if err == nil {
		t.Fatal("call with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("transport error mapped to catalog sentinel: %v", err)
	}

	// A deadline in the future works normally.
	ctx, cancel = context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.PingCtx(ctx); err != nil {
		t.Fatal(err)
	}
}
