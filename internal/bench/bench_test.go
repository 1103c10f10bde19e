package bench_test

import (
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mcs"
	"mcs/internal/bench"
	"mcs/internal/core"
)

func TestLoadShape(t *testing.T) {
	cfg := bench.Config{Files: 250, FilesPerCollection: 100, AttrsPerFile: 10}
	cat, err := bench.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := cat.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 250 {
		t.Fatalf("files = %d", st.Files)
	}
	if st.Collections != 3 { // ceil(250/100)
		t.Fatalf("collections = %d", st.Collections)
	}
	// 10 attrs per file + 10 per collection.
	if st.Attributes != 250*10+3*10 {
		t.Fatalf("attributes = %d", st.Attributes)
	}
	if st.AttrDefs != 10 {
		t.Fatalf("attr defs = %d", st.AttrDefs)
	}
}

func TestComplexQuerySelectivity(t *testing.T) {
	// With 50 value groups, a full 10-attribute conjunction over N files
	// must match exactly N/50 files.
	cat, err := bench.Load(bench.Config{Files: 500, FilesPerCollection: 100, AttrsPerFile: 10})
	if err != nil {
		t.Fatal(err)
	}
	names, err := cat.RunQuery(bench.LoaderDN, core.Query{Predicates: bench.Predicates(10, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 10 { // 500/50
		t.Fatalf("complex query matched %d files, want 10", len(names))
	}
	// Fewer predicates match a superset (same groups), not fewer files.
	names1, err := cat.RunQuery(bench.LoaderDN, core.Query{Predicates: bench.Predicates(1, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(names1) != 10 {
		t.Fatalf("1-attr query matched %d files, want 10", len(names1))
	}
}

func TestDirectTargetOps(t *testing.T) {
	cat, err := bench.Load(bench.Config{Files: 100, FilesPerCollection: 100, AttrsPerFile: 10})
	if err != nil {
		t.Fatal(err)
	}
	d := bench.Direct{Catalog: cat}
	if err := d.AddAndDelete("tmp-file", bench.FileAttributes(3, 10)); err != nil {
		t.Fatal(err)
	}
	st, _ := cat.Stats()
	if st.Files != 100 {
		t.Fatalf("add/delete changed size: %d", st.Files)
	}
	if err := d.SimpleQuery(bench.FileName(5)); err != nil {
		t.Fatal(err)
	}
	if err := d.AttrQuery(bench.Predicates(10, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestSOAPTargetOps(t *testing.T) {
	cat, err := bench.Load(bench.Config{Files: 100, FilesPerCollection: 100, AttrsPerFile: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mcs.NewServer(mcs.ServerOptions{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	s := bench.SOAP{Client: mcs.NewClient(ts.URL, bench.LoaderDN)}
	if err := s.AddAndDelete("tmp-soap", bench.FileAttributes(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.SimpleQuery(bench.FileName(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AttrQuery(bench.Predicates(5, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestRunRateCounts(t *testing.T) {
	cat, err := bench.Load(bench.Config{Files: 200, FilesPerCollection: 100, AttrsPerFile: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.DefaultConfig(200)
	rate := bench.RunRate([]bench.Target{bench.Direct{Catalog: cat}}, 2,
		100*time.Millisecond, bench.OpSimpleQuery, cfg, 10, nil)
	if rate <= 0 {
		t.Fatalf("rate = %f", rate)
	}
}

func TestFigureSmoke(t *testing.T) {
	// A miniature end-to-end run of each of the paper's figures to prove the
	// harness works, latency histograms included.
	opt := bench.FigureOptions{
		Sizes:          []int{200},
		Threads:        []int{1, 2},
		Hosts:          []int{1, 2},
		ThreadsPerHost: 1,
		Duration:       50 * time.Millisecond,
		AttrSweep:      []int{1, 3},
		Latency:        true,
	}
	want := []int{5, 6, 7, 8, 9, 10, 11}
	if !slices.Equal(bench.Figures, want) {
		t.Fatalf("Figures = %v, want %v", bench.Figures, want)
	}
	for _, fig := range bench.Figures {
		series, err := bench.Figure(fig, opt)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if len(series) == 0 {
			t.Fatalf("figure %d produced no series", fig)
		}
		for _, s := range series {
			for _, p := range s.Points {
				if p.Y <= 0 {
					t.Fatalf("figure %d series %q has nonpositive rate at x=%d", fig, s.Label, p.X)
				}
				if p.Hist == nil || p.Hist.Count() == 0 {
					t.Fatalf("figure %d series %q has no latency at x=%d", fig, s.Label, p.X)
				}
			}
		}
		text := bench.Render(fig, series)
		if !strings.HasPrefix(text, bench.FigureTitle(fig)) || !strings.Contains(text, "per-operation latency:") {
			t.Fatalf("figure %d render missing title or latency:\n%s", fig, text)
		}
	}
}

func TestFigureUnknown(t *testing.T) {
	// Outside 5–11 there is nothing to regenerate: before the paper's
	// evaluation, or one of the retired extension sweeps (12–18).
	for _, fig := range []int{0, 4, 12, 13, 18} {
		if _, err := bench.Figure(fig, bench.FigureOptions{Sizes: []int{100}}); err == nil {
			t.Errorf("figure %d accepted", fig)
		}
	}
}
