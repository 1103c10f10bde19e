// Command mcsbench regenerates the evaluation figures of the MCS paper
// (SC'03, Figures 5–11): add, simple-query and complex-query rates against
// the catalog directly and through the SOAP web service, swept over client
// threads, client hosts, database sizes and attribute counts.
//
// Usage:
//
//	mcsbench -fig 6                        # one figure, default settings
//	mcsbench -fig all -sizes 10000,50000   # every figure at chosen sizes
//	mcsbench -fig 11 -duration 5s          # longer measurement windows
//	mcsbench -fig 6 -latency               # p50/p95/p99 per data point
//
// Figure 11, the attribute-count sweep, runs single-threaded with a warmup
// and a forced GC before each measurement window so the 1-vs-8-attribute
// ratio is trustworthy on small hosts.
//
// The paper's full-scale databases (100k/1M/5M files) are reachable with
// -sizes 100000,1000000,5000000 given enough memory and patience; the
// defaults are scaled so a laptop run finishes in minutes while preserving
// every qualitative shape (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcs/internal/bench"
)

// mustInts parses the comma-separated positive integers of flag name,
// exiting on a malformed value.
func mustInts(name, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			log.Fatalf("mcsbench: -%s: bad value %q", name, part)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	log.SetFlags(0)
	fig := flag.String("fig", "all", `figure to regenerate: 5..11 or "all"`)
	sizes := flag.String("sizes", "10000,50000,100000", "database sizes (files), comma-separated")
	threads := flag.String("threads", "1,2,4,8,12,16", "thread sweep for figures 5-7")
	hosts := flag.String("hosts", "1,2,4,6,8,10", "host sweep for figures 8-10")
	threadsPerHost := flag.Int("threads-per-host", 4, "threads per host for figures 8-10")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per data point")
	attrSweep := flag.String("attr-sweep", "1,2,4,6,8,10", "attribute counts for figure 11")
	latency := flag.Bool("latency", false, "also report per-operation latency (p50/p95/p99) per data point")
	flag.Parse()

	opt := bench.FigureOptions{
		Sizes:          mustInts("sizes", *sizes),
		Threads:        mustInts("threads", *threads),
		Hosts:          mustInts("hosts", *hosts),
		ThreadsPerHost: *threadsPerHost,
		Duration:       *duration,
		AttrSweep:      mustInts("attr-sweep", *attrSweep),
		Latency:        *latency,
	}

	figs := bench.Figures
	if *fig != "all" {
		n, err := strconv.Atoi(*fig)
		if err != nil || !slices.Contains(bench.Figures, n) {
			log.Fatalf("mcsbench: bad -fig %q: the paper's evaluation is Figures 5–11", *fig)
		}
		figs = []int{n}
	}

	fmt.Fprintf(os.Stderr, "mcsbench: loading databases %v...\n", opt.Sizes)
	loadStart := time.Now()
	cats, err := bench.LoadAll(opt.Sizes)
	if err != nil {
		log.Fatalf("mcsbench: load: %v", err)
	}
	opt.Catalogs = cats
	fmt.Fprintf(os.Stderr, "mcsbench: databases loaded in %s\n", time.Since(loadStart).Round(time.Second))

	for _, f := range figs {
		fmt.Fprintf(os.Stderr, "mcsbench: running figure %d (sizes %v, window %s)...\n", f, opt.Sizes, *duration)
		start := time.Now()
		series, err := bench.Figure(f, opt)
		if err != nil {
			log.Fatalf("mcsbench: figure %d: %v", f, err)
		}
		fmt.Println(bench.Render(f, series))
		fmt.Fprintf(os.Stderr, "mcsbench: figure %d done in %s\n\n", f, time.Since(start).Round(time.Second))
	}
}
