// Command rlsd runs a Replica Location Service node over HTTP. A node can
// host a Local Replica Catalog (authoritative lfn→pfn mappings), a Replica
// Location Index (soft-state summaries of other LRCs), or both, and can
// push its own periodic soft-state updates to upstream RLIs — the Giggle
// framework deployment the MCS paper federates with.
//
// Usage:
//
//	rlsd -addr :9000 -name lrc://site-a
//	rlsd -addr :9001 -rli-only
//	rlsd -addr :9000 -name lrc://site-a -push http://index:9001 -bloom 0.01
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mcs/internal/bloom"
	"mcs/internal/rls"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9000", "listen address")
	name := flag.String("name", "", "LRC name (default lrc://<addr>)")
	rliOnly := flag.Bool("rli-only", false, "serve only an index (no local catalog)")
	lrcOnly := flag.Bool("lrc-only", false, "serve only a local catalog (no index)")
	push := flag.String("push", "", "comma-separated RLI endpoints to push soft-state updates to")
	ttl := flag.Duration("ttl", time.Minute, "TTL carried by soft-state updates")
	interval := flag.Duration("interval", 0, "push interval (default ttl/3)")
	bloomFP := flag.Float64("bloom", 0, "bloom-compress updates at this false-positive rate (0 = full lists)")
	flag.Parse()

	var lrc *rls.LRC
	var rli *rls.RLI
	if !*rliOnly {
		n := *name
		if n == "" {
			n = "lrc://" + *addr
		}
		lrc = rls.NewLRC(n)
	}
	if !*lrcOnly {
		rli = rls.NewRLI()
	}
	if lrc == nil && rli == nil {
		log.Fatal("rlsd: -rli-only and -lrc-only are mutually exclusive")
	}

	if *push != "" {
		if lrc == nil {
			log.Fatal("rlsd: -push requires a local catalog")
		}
		endpoints := strings.Split(*push, ",")
		clients := make([]*rls.Client, 0, len(endpoints))
		for _, ep := range endpoints {
			clients = append(clients, rls.NewClient(strings.TrimSpace(ep)))
		}
		updater := &rls.Updater{
			LRC: lrc, TTL: *ttl, Interval: *interval, BloomFP: *bloomFP,
			Push: func(name string, lfns []string, summary *bloom.Filter, ttl time.Duration) error {
				var firstErr error
				for _, c := range clients {
					if err := c.SendUpdate(name, lfns, summary, ttl); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				return firstErr
			},
		}
		if err := updater.Start(); err != nil {
			log.Fatalf("rlsd: start updater: %v", err)
		}
		defer updater.Stop()
		log.Printf("rlsd: pushing soft state to %v every %s (ttl %s)", endpoints, updater.Interval, *ttl)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("rlsd: %v", err)
	}
	roles := []string{}
	if lrc != nil {
		roles = append(roles, "LRC "+lrc.Name)
	}
	if rli != nil {
		roles = append(roles, "RLI")
	}
	fmt.Fprintf(os.Stderr, "rlsd: %s on http://%s\n", strings.Join(roles, " + "), ln.Addr())
	log.Fatal(http.Serve(ln, rls.NewServer(lrc, rli)))
}
