package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

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
			return c.replayPutTx(tx, key, "test", 0, nil)
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

// replyFixtures are values of every reply type withReplay records, with
// zero, repeated-text, nil and non-nil parts.
func replyFixtures() []any {
	at := sqldb.Time(time.Date(2003, 11, 15, 9, 0, 5, 0, time.UTC)).Time()
	f := File{ID: 7, Name: "lfn", Version: 2, DataType: "binary", Valid: true, CollectionID: -3,
		MasterCopy: "gsiftp://h/lfn", Creator: "/CN=a", LastModifier: "/CN=a", Created: at, Modified: at.Add(time.Microsecond)}
	return []any{
		&f,
		&File{},
		&[]BatchResult{
			{Action: "createFile", File: &f, ID: 7, Version: 2},
			{Action: "deleteFile"},
			{Action: "createFile", File: &File{Name: "createFile", Creator: "/CN=a"}, ID: 1 << 40},
		},
		&[]BatchResult{},
		new([]BatchResult),
		&AttributeDef{ID: 1, Name: "a", Type: AttrDateTime, Description: "d", Creator: "/CN=a", Created: at},
		&Annotation{ID: 2, Object: ObjectFile, ObjectID: 7, Text: "note", Creator: "/CN=b", CreatedAt: at},
		&ExternalCatalog{ID: 3, Name: "x", Type: "xml", Host: "h", IP: "10.0.0.1", Description: "h"},
		&Collection{ID: 4, Name: "c", ParentID: 1, Creator: "/CN=a", LastModifier: "/CN=b", Created: at, Audited: true},
		&View{ID: 5, Name: "v", Creator: "/CN=a", LastModifier: "/CN=a", Modified: at},
	}
}

// Every reply decodes from its record to a value deeply equal to the one
// recorded, so a retried call's reply, and its bytes on either wire, are
// the first call's.
func TestReplayRecordRoundTrip(t *testing.T) {
	for _, want := range replyFixtures() {
		const sum = 0x0123456789abcdef
		rec := replayRecord(sum, want)
		got := reflect.New(reflect.TypeOf(want).Elem())
		if err := readReplay("k", rec, sum, got.Interface()); err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		if !reflect.DeepEqual(got.Interface(), want) {
			t.Errorf("%T: decoded\n  %+v\nrecorded\n  %+v", want, got.Elem(), reflect.ValueOf(want).Elem())
		}
		for n := 1; n < len(rec); n++ { // an empty record is an older build's of no reply
			if err := readReplay("k", rec[:n], sum, reflect.New(reflect.TypeOf(want).Elem()).Interface()); !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("%T cut to %d of %d bytes: %v, want ErrInvalidInput", want, n, len(rec), err)
			}
		}
	}
}

// FuzzReplayRecord: whatever a replay_cache row holds, decoding it as a
// batch reply either succeeds or is ErrInvalidInput; it never panics.
func FuzzReplayRecord(f *testing.F) {
	fixtures := replyFixtures()
	batch := fixtures[2].(*[]BatchResult)
	js, err := json.Marshal(batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(js))
	f.Add(replayRecord(1, batch))
	f.Fuzz(func(t *testing.T, blob string) {
		var out []BatchResult
		if err := readReplay("k", blob, 1, &out); err != nil && !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("decode error %v is not ErrInvalidInput", err)
		}
	})
}
