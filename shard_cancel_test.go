package mcs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"mcs/internal/shard"
)

// routerInFlight sums the router's in-flight gauges for op forwarded to any
// shard (the transport="shard:<endpoint>" series of /metrics).
func routerInFlight(t *testing.T, url, op string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Operations map[string]struct {
			InFlight int64 `json:"in_flight"`
		} `json:"operations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	var n int64
	for key, o := range m.Operations {
		if strings.HasPrefix(key, "shard:") && strings.HasSuffix(key, ":"+op) {
			n += o.InFlight
		}
	}
	return n
}

// TestShardRouterClientHangUpCancelsForwards: a client that disconnects
// mid-scatter must not leave shard subqueries running to their timeout. One
// shard stalls (a latency fault that never elapses); once the client gives
// up, the router's forward to it is cancelled and its in-flight gauge drops
// to zero long before the stall ends.
func TestShardRouterClientHangUpCancelsForwards(t *testing.T) {
	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		t.Run(string(kind), func(t *testing.T) {
			stalled := make(chan struct{}, 1)
			release := make(chan struct{})
			inj := NewFaultInjector(1, FaultRule{
				Site: FaultSiteDispatch, Kind: FaultKindLatency, Op: "stats", Delay: time.Hour,
			})
			inj.SetSleep(func(time.Duration) {
				stalled <- struct{}{}
				<-release
			})
			d := startSharded(t, shard.Options{}, ServerOptions{}, ServerOptions{FaultInjector: inj})
			t.Cleanup(func() { close(release) }) // runs before the servers close

			c := NewClient(d.url, testAlice, WithTransport(kind))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := c.StatsCtx(ctx)
				done <- err
			}()

			// settle waits for the in-flight gauge to reach want.
			settle := func(want int64, failure string) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for routerInFlight(t, d.url, "stats") != want {
					if time.Now().After(deadline) {
						t.Fatal(failure)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			<-stalled
			settle(1, "the healthy shard's subquery did not finish")
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled call returned %v", err)
			}
			settle(0, "the forward to the stalled shard outlived its client")
		})
	}
}
