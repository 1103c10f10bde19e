package rls

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"mcs/internal/bloom"
)

func TestLRCBasic(t *testing.T) {
	l := NewLRC("lrc://isi")
	l.Add("lfn1", "gsiftp://a/lfn1")
	l.Add("lfn1", "gsiftp://b/lfn1")
	l.Add("lfn2", "gsiftp://a/lfn2")
	if got := l.Lookup("lfn1"); len(got) != 2 {
		t.Fatalf("Lookup = %v", got)
	}
	if got := l.Lookup("nosuch"); len(got) != 0 {
		t.Fatalf("missing Lookup = %v", got)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if !l.Remove("lfn1", "gsiftp://a/lfn1") {
		t.Fatal("Remove reported false")
	}
	if l.Remove("lfn1", "gsiftp://a/lfn1") {
		t.Fatal("double Remove reported true")
	}
	l.Remove("lfn1", "gsiftp://b/lfn1")
	if l.Len() != 1 {
		t.Fatalf("Len after removes = %d", l.Len())
	}
	if got := l.LFNs(); len(got) != 1 || got[0] != "lfn2" {
		t.Fatalf("LFNs = %v", got)
	}
}

func TestRLIFullUpdates(t *testing.T) {
	r := NewRLI()
	r.UpdateFull("lrcA", []string{"f1", "f2"}, time.Minute)
	r.UpdateFull("lrcB", []string{"f2", "f3"}, time.Minute)
	if got := r.Query("f2"); len(got) != 2 {
		t.Fatalf("Query(f2) = %v", got)
	}
	if got := r.Query("f1"); len(got) != 1 || got[0] != "lrcA" {
		t.Fatalf("Query(f1) = %v", got)
	}
	if got := r.Query("nosuch"); len(got) != 0 {
		t.Fatalf("Query(miss) = %v", got)
	}
	// Replacement semantics: a new update supersedes the old list.
	r.UpdateFull("lrcA", []string{"f9"}, time.Minute)
	if got := r.Query("f1"); len(got) != 0 {
		t.Fatalf("stale mapping survived update: %v", got)
	}
}

func TestRLISoftStateExpiry(t *testing.T) {
	now := time.Now()
	r := NewRLI()
	r.SetClock(func() time.Time { return now })
	r.UpdateFull("lrcA", []string{"f1"}, 10*time.Second)
	if got := r.Query("f1"); len(got) != 1 {
		t.Fatalf("fresh Query = %v", got)
	}
	now = now.Add(11 * time.Second)
	if got := r.Query("f1"); len(got) != 0 {
		t.Fatalf("expired Query = %v", got)
	}
	if n := r.Expire(); n != 1 {
		t.Fatalf("Expire removed %d", n)
	}
	if got := r.KnownLRCs(); len(got) != 0 {
		t.Fatalf("KnownLRCs = %v", got)
	}
}

func TestRLIBloomUpdates(t *testing.T) {
	l := NewLRC("lrcA")
	for i := 0; i < 1000; i++ {
		l.Add(fmt.Sprintf("file-%04d", i), "pfn")
	}
	r := NewRLI()
	r.UpdateBloom("lrcA", l.Summary(0.01), time.Minute)
	// No false negatives.
	for i := 0; i < 1000; i++ {
		if got := r.Query(fmt.Sprintf("file-%04d", i)); len(got) != 1 {
			t.Fatalf("bloom false negative on file-%04d", i)
		}
	}
	// Bounded false positives (1% target; allow 5% slack on 1000 misses).
	fp := 0
	for i := 0; i < 1000; i++ {
		if len(r.Query(fmt.Sprintf("miss-%04d", i))) > 0 {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("false positive count = %d", fp)
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	lrc := NewLRC("lrc://site-a")
	rli := NewRLI()
	ts := httptest.NewServer(NewServer(lrc, rli))
	defer ts.Close()
	c := NewClient(ts.URL)

	if err := c.AddMapping("lfn with spaces & specials?", "gsiftp://a/x"); err != nil {
		t.Fatal(err)
	}
	pfns, err := c.Lookup("lfn with spaces & specials?")
	if err != nil || len(pfns) != 1 {
		t.Fatalf("Lookup = %v, %v", pfns, err)
	}
	// Soft-state update via HTTP, full list.
	if err := c.SendUpdate("lrc://site-a", lrc.LFNs(), nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	lrcs, err := c.QueryRLI("lfn with spaces & specials?")
	if err != nil || len(lrcs) != 1 || lrcs[0] != "lrc://site-a" {
		t.Fatalf("QueryRLI = %v, %v", lrcs, err)
	}
	// Bloom update via HTTP.
	if err := c.SendUpdate("lrc://site-b", nil, lrc.Summary(0.01), time.Minute); err != nil {
		t.Fatal(err)
	}
	lrcs, _ = c.QueryRLI("lfn with spaces & specials?")
	if len(lrcs) != 2 {
		t.Fatalf("after bloom update QueryRLI = %v", lrcs)
	}
	// Remove.
	if err := c.RemoveMapping("lfn with spaces & specials?", "gsiftp://a/x"); err != nil {
		t.Fatal(err)
	}
	pfns, _ = c.Lookup("lfn with spaces & specials?")
	if len(pfns) != 0 {
		t.Fatalf("post-remove Lookup = %v", pfns)
	}
}

func TestUpdaterPushesPeriodically(t *testing.T) {
	lrc := NewLRC("lrc://auto")
	lrc.Add("f1", "pfn1")
	rli := NewRLI()
	u := &Updater{
		LRC:      lrc,
		TTL:      time.Minute,
		Interval: 5 * time.Millisecond,
		Push: func(name string, lfns []string, summary *bloom.Filter, ttl time.Duration) error {
			rli.UpdateFull(name, lfns, ttl)
			return nil
		},
	}
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	defer u.Stop()
	// The immediate push must have registered f1.
	if got := rli.Query("f1"); len(got) != 1 {
		t.Fatalf("initial push missing: %v", got)
	}
	// A later mapping appears after the next tick.
	lrc.Add("f2", "pfn2")
	deadline := time.After(2 * time.Second)
	for {
		if got := rli.Query("f2"); len(got) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("periodic push never delivered f2")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestUpdaterBloomMode(t *testing.T) {
	lrc := NewLRC("lrc://bloom")
	lrc.Add("x", "p")
	var gotBloom *bloom.Filter
	u := &Updater{
		LRC: lrc, TTL: time.Minute, Interval: time.Hour, BloomFP: 0.01,
		Push: func(name string, lfns []string, summary *bloom.Filter, ttl time.Duration) error {
			gotBloom = summary
			return nil
		},
	}
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}
	u.Stop()
	if gotBloom == nil || !gotBloom.Test("x") {
		t.Fatal("bloom-mode push did not carry the filter")
	}
}

func TestUpdaterRequiresPush(t *testing.T) {
	u := &Updater{LRC: NewLRC("x")}
	if err := u.Start(); err == nil {
		t.Fatal("Start without Push succeeded")
	}
}
