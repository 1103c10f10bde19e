package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"syscall"
	"testing"
	"time"

	"mcs"
)

func TestRestoreOrOpenFreshWhenMissing(t *testing.T) {
	cat, restored, err := restoreOrOpen(filepath.Join(t.TempDir(), "none.mcs"), mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("missing snapshot reported as restored")
	}
	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "f"}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.mcs")
	cat, restored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored {
		t.Fatal("fresh catalog reported as restored")
	}
	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "persisted"}); err != nil {
		t.Fatal(err)
	}
	if err := snapshotTo(cat, path, &checkpointStats{}); err != nil {
		t.Fatal(err)
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left: %v", err)
	}
	// A "restarted" daemon sees the data.
	restoredCat, wasRestored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !wasRestored {
		t.Fatal("existing snapshot not reported as restored")
	}
	if _, err := restoredCat.GetFile("/CN=x", "persisted", 0); err != nil {
		t.Fatalf("restored catalog missing file: %v", err)
	}
}

func TestRestoreOrOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mcs")
	if err := os.WriteFile(path, []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := restoreOrOpen(path, mcs.Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestBootRemovesOrphanedTmp: a checkpoint killed mid-write leaves a
// snapshot-sized <snapshot>.tmp that nothing reads; boot removes it, with or
// without a real snapshot beside it, and never mistakes it for one.
func TestBootRemovesOrphanedTmp(t *testing.T) {
	for _, withSnapshot := range []bool{true, false} {
		t.Run(fmt.Sprintf("snapshot=%v", withSnapshot), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.mcs")
			if withSnapshot {
				cat, err := mcs.OpenCatalog(mcs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "persisted"}); err != nil {
					t.Fatal(err)
				}
				if err := snapshotTo(cat, path, &checkpointStats{}); err != nil {
					t.Fatal(err)
				}
			}
			// Half a snapshot, as kill -9 mid-dump leaves it.
			if err := os.WriteFile(path+".tmp", []byte("half a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
			cat, restored, err := restoreOrOpen(path, mcs.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if restored != withSnapshot {
				t.Fatalf("restored = %v with snapshot present = %v", restored, withSnapshot)
			}
			if _, err := cat.GetFile("/CN=x", "persisted", 0); (err == nil) != withSnapshot {
				t.Fatalf("GetFile after boot: %v", err)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("orphaned tmp still there after boot: %v", err)
			}
		})
	}
}

// TestBootSurvivesUnremovableTmp: failing to clear the temp file is
// housekeeping gone wrong, not a reason to refuse a catalog whose snapshot is
// intact. A non-empty directory stands in for whatever os.Remove chokes on.
func TestBootSurvivesUnremovableTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.mcs")
	cat, err := mcs.OpenCatalog(mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "persisted"}); err != nil {
		t.Fatal(err)
	}
	if err := snapshotTo(cat, path, &checkpointStats{}); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path+".tmp", "in the way"), 0o755); err != nil {
		t.Fatal(err)
	}
	cat, restored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil || !restored {
		t.Fatalf("restoreOrOpen = restored %v, %v; want the snapshot booted", restored, err)
	}
	if _, err := cat.GetFile("/CN=x", "persisted", 0); err != nil {
		t.Fatal(err)
	}
}

// fileSet lists the logical file names and versions in a catalog via the
// benchmark loader's query surface.
func fileSet(t *testing.T, cat *mcs.Catalog) []string {
	t.Helper()
	st, err := cat.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return []string{fmt.Sprintf("files=%d attrs=%d collections=%d", st.Files, st.Attributes, st.Collections)}
}

// TestSnapshotRestartMutateResnapshot covers the full lifecycle:
// snapshot → restore → mutate → re-snapshot → restore, with row-count
// equality at each hop.
func TestSnapshotRestartMutateResnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "life.mcs")
	cat, _, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: fmt.Sprintf("gen1-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotTo(cat, path, &checkpointStats{}); err != nil {
		t.Fatal(err)
	}

	second, restored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("snapshot not restored")
	}
	if got, want := fileSet(t, second), fileSet(t, cat); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored state %v != original %v", got, want)
	}
	// Mutate the restored catalog and snapshot again.
	if _, err := second.CreateFile("/CN=x", mcs.FileSpec{Name: "gen2"}); err != nil {
		t.Fatal(err)
	}
	if err := second.DeleteFile("/CN=x", "gen1-0", 0); err != nil {
		t.Fatal(err)
	}
	if err := snapshotTo(second, path, &checkpointStats{}); err != nil {
		t.Fatal(err)
	}

	third, _, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fileSet(t, third), fileSet(t, second); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-restored state %v != mutated %v", got, want)
	}
	names, err := third.RunQuery("/CN=x", mcs.Query{})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	want := []string{"gen1-1", "gen1-2", "gen1-3", "gen1-4", "gen2"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names after lifecycle = %v, want %v", names, want)
	}
}

// TestPreloadSkippedAfterRestore reproduces the restart crash: a daemon
// started with -preload and -snapshot must not re-run the preload when its
// state came from the snapshot (the duplicate creates used to Fatalf the
// server).
func TestPreloadSkippedAfterRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pre.mcs")
	cfg := config{
		addr: "127.0.0.1:0", preload: 20, snapshot: path,
		snapshotEvery: time.Hour, metrics: false, drainTimeout: 5 * time.Second,
	}
	for restart := 0; restart < 2; restart++ {
		stop := make(chan os.Signal, 1)
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- run(cfg, stop, ready) }()
		select {
		case <-ready:
		case err := <-done:
			t.Fatalf("restart %d: daemon exited early: %v", restart, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("restart %d: daemon not ready", restart)
		}
		stop <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
	}
	// The preload ran exactly once: the restored catalog holds 20 files.
	cat, restored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("final snapshot missing")
	}
	st, err := cat.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 20 {
		t.Fatalf("files after restart = %d, want 20", st.Files)
	}
}

// TestFinalSnapshotOnSignal verifies that a graceful shutdown persists
// writes that arrived after the last periodic snapshot.
func TestFinalSnapshotOnSignal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.mcs")
	cfg := config{
		addr: "127.0.0.1:0", snapshot: path,
		snapshotEvery: time.Hour, // periodic snapshots never fire in this test
		metrics:       false, drainTimeout: 5 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, stop, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon not ready")
	}

	client := mcs.NewClient("http://"+addr.String(), "/CN=tester")
	if _, err := client.CreateFile(mcs.FileSpec{Name: "unsaved-until-shutdown"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists before shutdown: %v", err)
	}

	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	cat, restored, err := restoreOrOpen(path, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("no final snapshot written on SIGTERM")
	}
	if _, err := cat.GetFile("/CN=tester", "unsaved-until-shutdown", 0); err != nil {
		t.Fatalf("write lost across graceful shutdown: %v", err)
	}
}
