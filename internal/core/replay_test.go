package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mcs/internal/sqldb"
)

// A retried mutation carrying the same idempotency key must be answered
// from the replay cache: applied once, audited once, same result.
func TestReplayedCreateAppliedAndAuditedOnce(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dn := "/CN=writer"
	opts := []OpOption{WithRequestID("req-1"), WithIdempotencyKey("key-1")}

	first, err := c.CreateFile(dn, FileSpec{Name: "f.dat", Audited: true}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := c.CreateFile(dn, FileSpec{Name: "f.dat", Audited: true}, opts...)
	if err != nil {
		t.Fatalf("replay = %v, want cached success (not ErrExists)", err)
	}
	if replayed.ID != first.ID || replayed.Version != first.Version {
		t.Fatalf("replayed = %+v, want the original result %+v", replayed, first)
	}
	if vs, _ := c.FileVersions(dn, "f.dat"); len(vs) != 1 {
		t.Fatalf("versions = %d, want exactly one", len(vs))
	}
	recs, err := c.AuditLog(dn, ObjectFile, "f.dat")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("audit records = %d, want 1 (replay must not re-audit)", len(recs))
	}
	if got := c.ReplayHits(); got != 1 {
		t.Fatalf("ReplayHits = %d, want 1", got)
	}
}

// Reusing an idempotency key for a different operation is a caller bug and
// must be rejected, not answered with the other operation's cached result.
func TestReplayKeyReuseAcrossActionsRejected(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dn := "/CN=writer"
	if _, err := c.CreateFile(dn, FileSpec{Name: "a"}, WithIdempotencyKey("shared")); err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateCollection(dn, CollectionSpec{Name: "c"}, WithIdempotencyKey("shared"))
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cross-action key reuse = %v, want ErrInvalidInput", err)
	}
}

// The replay cache is bounded: old records are pruned as new ones land, so
// a long-lived server cannot grow it without limit.
func TestReplayCacheBounded(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 32
	for i := 0; i < ReplayCacheBound+extra; i++ {
		key := fmt.Sprintf("k-%05d", i)
		err := c.db.Update(func(tx *sqldb.Tx) error {
			return c.replayPutTx(tx, key, "test", nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.db.Query("SELECT id FROM replay_cache")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows.Data); n != ReplayCacheBound {
		t.Fatalf("replay cache rows = %d, want pruned to %d", n, ReplayCacheBound)
	}
	// The survivors are the newest entries; the oldest were pruned.
	ok, err := c.db.Query("SELECT id FROM replay_cache WHERE idem_key = ?", sqldb.Text("k-00000"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Data) != 0 {
		t.Fatal("oldest key survived pruning")
	}
}

// Replay records ride along in snapshots: after a restart, a still-retrying
// client's replay must hit the cache, not re-apply or fail with ErrExists.
func TestReplayCacheSurvivesSnapshot(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dn := "/CN=writer"
	first, err := c.CreateFile(dn, FileSpec{Name: "snap.dat"}, WithIdempotencyKey("snap-key"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := restored.CreateFile(dn, FileSpec{Name: "snap.dat"}, WithIdempotencyKey("snap-key"))
	if err != nil {
		t.Fatalf("replay after restore = %v, want cached success", err)
	}
	if replayed.ID != first.ID {
		t.Fatalf("replayed ID = %d, want %d", replayed.ID, first.ID)
	}
	if vs, _ := restored.FileVersions(dn, "snap.dat"); len(vs) != 1 {
		t.Fatalf("versions after restore = %d, want 1", len(vs))
	}
}
