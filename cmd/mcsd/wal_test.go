package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mcs"
)

// startDaemon runs the daemon in-process and returns its address plus a
// shutdown function that delivers SIGTERM and waits for exit.
func startDaemon(t *testing.T, cfg config) (net.Addr, func() error) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, stop, ready) }()
	select {
	case addr := <-ready:
		return addr, func() error {
			stop <- syscall.SIGTERM
			return <-done
		}
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon not ready")
	}
	return nil, nil
}

// TestCheckpointFailureKeepsWAL is the regression test for the latent
// truncation bug: a checkpoint that fails mid-snapshot (here: unwritable
// snapshot path) used to leave the periodic ticker free to carry on while a
// later truncation dropped log records no persisted snapshot covered. With
// truncation conditional on the persisted checkpoint LSN, every commit on
// either side of the failed checkpoint must survive a crash.
func TestCheckpointFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "cat.snap")
	walPath := snapPath + ".wal"

	cat, err := mcs.OpenCatalog(mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := cat.OpenWAL(walPath, mcs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "before-good.dat"}); err != nil {
		t.Fatal(err)
	}
	// A checkpoint that succeeds: snapshot v1 covers before-good.dat.
	if err := checkpoint(cat, w, snapPath, nil); err != nil {
		t.Fatal(err)
	}
	if w.Sealed() {
		t.Fatal("successful checkpoint left the previous generation sealed")
	}

	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "before-bad.dat"}); err != nil {
		t.Fatal(err)
	}
	// A checkpoint that fails mid-snapshotTo: the rotation happened, the
	// snapshot did not, so the sealed generation (holding before-bad.dat)
	// must be retained — the persisted snapshot does not cover it.
	doomed := filepath.Join(dir, "no-such-dir", "cat.snap")
	if err := checkpoint(cat, w, doomed, nil); err == nil {
		t.Fatal("checkpoint to unwritable path succeeded")
	}
	if !w.Sealed() {
		t.Fatal("failed checkpoint released the sealed generation")
	}
	if _, err := os.Stat(walPath + ".1"); err != nil {
		t.Fatalf("sealed generation missing after failed checkpoint: %v", err)
	}

	if _, err := cat.CreateFile("/CN=x", mcs.FileSpec{Name: "after-bad.dat"}); err != nil {
		t.Fatal(err)
	}

	// Crash (no graceful shutdown, no further checkpoint). Recovery sees
	// snapshot v1 + both log generations; nothing is lost.
	cat2, restored, err := restoreOrOpen(snapPath, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("snapshot v1 missing")
	}
	w2, stats, err := cat2.OpenWAL(walPath, mcs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 {
		t.Fatalf("replay stats = %+v, want the 2 uncovered commits", stats)
	}
	for _, name := range []string{"before-good.dat", "before-bad.dat", "after-bad.dat"} {
		if _, err := cat2.GetFile("/CN=x", name, 0); err != nil {
			t.Fatalf("commit %q lost across failed checkpoint + crash: %v", name, err)
		}
	}

	// And once a checkpoint to the real path succeeds, the backlog drains:
	// both generations are covered and the sealed file is released.
	if err := checkpoint(cat2, w2, snapPath, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(walPath + ".1"); !os.IsNotExist(err) {
		t.Fatalf("sealed generation still present after successful checkpoint: %v", err)
	}
}

// TestDaemonWALCrashRecovery runs the real daemon with -snapshot and -wal,
// writes through the wire, and snapshots the on-disk state mid-flight — the
// exact image a kill -9 would leave (no final snapshot, unclosed log). A
// second daemon booted from that image must serve the write.
func TestDaemonWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live")
	crashed := filepath.Join(dir, "crashed")
	for _, d := range []string{live, crashed} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	snapPath := filepath.Join(live, "cat.snap")
	cfg := config{
		addr: "127.0.0.1:0", snapshot: snapPath, wal: true, walSync: "always",
		snapshotEvery: time.Hour, metrics: false, drainTimeout: 5 * time.Second,
	}
	addr, shutdown := startDaemon(t, cfg)

	client := mcs.NewClient("http://"+addr.String(), "/CN=tester")
	if _, err := client.CreateFile(mcs.FileSpec{Name: "survives-kill.dat"}); err != nil {
		t.Fatal(err)
	}

	// Capture the crash image while the daemon is still running: the WAL
	// holds the commit (fsynced before the client got its reply); the
	// snapshot does not exist yet.
	walBytes, err := os.ReadFile(snapPath + ".wal")
	if err != nil || len(walBytes) == 0 {
		t.Fatalf("live wal = %d bytes, %v; want non-empty", len(walBytes), err)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot exists before shutdown: %v", err)
	}
	crashedSnap := filepath.Join(crashed, "cat.snap")
	if err := os.WriteFile(crashedSnap+".wal", walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	// Boot a daemon from the crash image and read the write back.
	cfg2 := cfg
	cfg2.snapshot = crashedSnap
	addr2, shutdown2 := startDaemon(t, cfg2)
	client2 := mcs.NewClient("http://"+addr2.String(), "/CN=tester")
	if _, err := client2.GetFile("survives-kill.dat", 0); err != nil {
		t.Fatalf("write lost across simulated crash: %v", err)
	}
	if err := shutdown2(); err != nil {
		t.Fatal(err)
	}

	// The recovered daemon shut down cleanly: its final checkpoint covers
	// the log, so a third boot restores from snapshot with nothing left to
	// replay.
	cat, restored, err := restoreOrOpen(crashedSnap, mcs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("final checkpoint snapshot missing")
	}
	_, stats, err := cat.OpenWAL(crashedSnap+".wal", mcs.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 0 {
		t.Fatalf("replay after clean shutdown applied %d records, want 0", stats.Applied)
	}
	if _, err := cat.GetFile("/CN=tester", "survives-kill.dat", 0); err != nil {
		t.Fatalf("write lost across clean restart: %v", err)
	}
}

// TestCheckpointObservable: a daemon's periodic checkpoints show up in the
// product — last_checkpoint on /statz with the covered LSN, the snapshot's
// size and the phase times, and the three checkpoint series on /metrics
// (there from boot, reading 0 until the first checkpoint).
func TestCheckpointObservable(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "cat.snap")
	cfg := config{
		addr: "127.0.0.1:0", snapshot: snapPath, wal: true, walSync: "off",
		snapshotEvery: 50 * time.Millisecond, metrics: true, drainTimeout: 5 * time.Second,
	}
	addr, shutdown := startDaemon(t, cfg)
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	client := mcs.NewClient("http://"+addr.String(), "/CN=tester")
	if _, err := client.CreateFile(mcs.FileSpec{Name: "checkpointed.dat"}); err != nil {
		t.Fatal(err)
	}
	var statz struct {
		Last *struct {
			LSN         uint64  `json:"lsn"`
			Bytes       int64   `json:"bytes"`
			Seconds     float64 `json:"seconds"`
			DumpSeconds float64 `json:"dump_seconds"`
			AgeSeconds  float64 `json:"age_seconds"`
			Error       string  `json:"error"`
		} `json:"last_checkpoint"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for statz.Last == nil || statz.Last.LSN == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint covering the write on /statz: %s", get("/statz"))
		}
		time.Sleep(20 * time.Millisecond)
		if err := json.Unmarshal([]byte(get("/statz")), &statz); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	last := statz.Last
	if last.Error != "" || last.Bytes <= 0 || last.Seconds <= 0 || last.DumpSeconds <= 0 || last.DumpSeconds > last.Seconds || last.AgeSeconds < 0 {
		t.Fatalf("last_checkpoint = %+v", *last)
	}
	// Later checkpoints of the unchanged catalog write the same bytes.
	if last.Bytes != fi.Size() {
		t.Fatalf("last_checkpoint.bytes = %d, the snapshot on disk is %d", last.Bytes, fi.Size())
	}
	metrics := get("/metrics")
	for _, series := range []string{"mcs_checkpoints_total ", "mcs_checkpoint_seconds_total 0.",
		"# TYPE mcs_snapshot_bytes gauge\n", fmt.Sprintf("mcs_snapshot_bytes %d\n", fi.Size())} {
		if !strings.Contains(metrics, "\n"+series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}
