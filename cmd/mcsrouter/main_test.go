package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"mcs"
)

func TestShardMapFlagsRefused(t *testing.T) {
	for name, cfg := range map[string]config{
		"both":    {addr: "127.0.0.1:0", shardMapFile: "shards.map", shardsInline: "a=http://x"},
		"neither": {addr: "127.0.0.1:0"},
	} {
		if err := run(cfg, make(chan os.Signal), nil); err == nil {
			t.Errorf("%s: run accepted the shard-map flags", name)
		}
	}
}

// TestServeAndDrain starts the router on an ephemeral port in front of two
// shards, pings it and, through its health probe, both shards, and stops it
// with a signal.
func TestServeAndDrain(t *testing.T) {
	var shards []string
	for _, prefix := range []string{"a-", "b-"} {
		srv, err := mcs.NewServer(mcs.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shards = append(shards, prefix+"="+ts.URL)
	}
	cfg := config{
		addr: "127.0.0.1:0", shardsInline: strings.Join(shards, ","),
		summaryInterval: time.Hour, callTimeout: 5 * time.Second,
		metrics: true, drainTimeout: 5 * time.Second,
	}
	stop := make(chan os.Signal, 1)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- run(cfg, stop, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("router exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("router not ready")
	}

	url := "http://" + addr.String()
	if _, err := mcs.NewClient(url, "/CN=router-test").Ping(); err != nil {
		t.Fatal(err)
	}
	// /healthz pings every shard through the router's backend clients.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %d %q, want both shards answering", resp.StatusCode, body)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not drain")
	}
}
