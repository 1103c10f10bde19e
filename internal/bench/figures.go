package bench

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"mcs"
	"mcs/internal/core"
	"mcs/internal/obs"
)

// Figures lists the paper's evaluation figures in order; Figure accepts
// exactly these.
var Figures = []int{5, 6, 7, 8, 9, 10, 11}

// Point is one measurement: X is the swept parameter, Y the rate (ops/s).
// Hist carries the per-operation latency distribution of the measurement
// window when FigureOptions.Latency is set (nil otherwise).
type Point struct {
	X    int
	Y    float64
	Hist *obs.Histogram
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// FigureOptions parameterizes figure regeneration. The paper's full-scale
// settings (sizes 100k/1M/5M, threads to 16, hosts to 10) reproduce at
// laptop scale with smaller sizes; the shapes are preserved.
type FigureOptions struct {
	// Sizes are the database sizes (number of logical files).
	Sizes []int
	// Threads is the thread sweep for single-host figures (5–7).
	Threads []int
	// Hosts is the host sweep for multi-host figures (8–10).
	Hosts []int
	// ThreadsPerHost matches the paper's 4 for figures 8–10.
	ThreadsPerHost int
	// Duration is the measurement window per point.
	Duration time.Duration
	// AttrK is the complex-query attribute count (paper: 10).
	AttrK int
	// AttrSweep is the Fig. 11 attribute-count sweep.
	AttrSweep []int
	// Latency also records a per-operation latency histogram per data point
	// (rendered as p50/p95/p99 below the rate table).
	Latency bool
	// Catalogs supplies preloaded databases keyed by size; Figure loads any
	// missing size itself. Use LoadAll to share loads across figures.
	Catalogs map[int]*core.Catalog
}

// LoadAll prepares one catalog per size for reuse across multiple figures.
func LoadAll(sizes []int) (map[int]*core.Catalog, error) {
	return loadAll(sizes, nil)
}

// Defaults fills unset fields with laptop-scale defaults.
func (o FigureOptions) Defaults() FigureOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{10000, 50000, 100000}
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 12, 16}
	}
	if len(o.Hosts) == 0 {
		o.Hosts = []int{1, 2, 4, 6, 8, 10}
	}
	if o.ThreadsPerHost == 0 {
		o.ThreadsPerHost = 4
	}
	if o.Duration == 0 {
		o.Duration = 2 * time.Second
	}
	if o.AttrK == 0 {
		o.AttrK = 10
	}
	if len(o.AttrSweep) == 0 {
		o.AttrSweep = []int{1, 2, 4, 6, 8, 10}
	}
	return o
}

// loadAll prepares one catalog per size (expensive; shared across series).
// Sizes already present in have are reused.
func loadAll(sizes []int, have map[int]*core.Catalog) (map[int]*core.Catalog, error) {
	cats := make(map[int]*core.Catalog, len(sizes))
	for _, size := range sizes {
		if cat, ok := have[size]; ok {
			cats[size] = cat
			continue
		}
		cat, err := Load(DefaultConfig(size))
		if err != nil {
			return nil, fmt.Errorf("bench: load %d files: %w", size, err)
		}
		cats[size] = cat
	}
	return cats, nil
}

// sizeLabel renders a database size the way the paper captions it.
func sizeLabel(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000 && n%1000 == 0:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// opForFigure maps figure numbers to workloads.
func opForFigure(fig int) (Op, error) {
	switch fig {
	case 5, 8:
		return OpAdd, nil
	case 6, 9:
		return OpSimpleQuery, nil
	case 7, 10, 11:
		return OpComplexQuery, nil
	}
	return 0, fmt.Errorf("bench: no figure %d in the paper's evaluation (Figures 5–11)", fig)
}

// Figure regenerates one of the paper's Figures 5–11 and returns its series.
// Figures 5–10 measure each database size twice, directly and through the
// web service; Fig. 11 measures the engine alone (see attrPoint).
func Figure(fig int, opt FigureOptions) ([]Series, error) {
	op, err := opForFigure(fig)
	if err != nil {
		return nil, err
	}
	opt = opt.Defaults()
	cats, err := loadAll(opt.Sizes, opt.Catalogs)
	if err != nil {
		return nil, err
	}
	var out []Series
	if fig == 11 {
		for _, size := range opt.Sizes {
			s := Series{Label: sizeLabel(size) + " database"}
			for _, k := range opt.AttrSweep {
				p, err := attrPoint(Direct{Catalog: cats[size]}, k, opt)
				if err != nil {
					return nil, err
				}
				s.Points = append(s.Points, p)
			}
			out = append(out, s)
		}
		return out, nil
	}

	// Figures 5–7 sweep threads on one client host; 8–10 sweep client hosts
	// at a fixed thread count per host.
	xs, hostsThreads := opt.Threads, func(x int) (int, int) { return 1, x }
	if fig >= 8 {
		xs, hostsThreads = opt.Hosts, func(x int) (int, int) { return x, opt.ThreadsPerHost }
	}
	for _, web := range []bool{false, true} {
		for _, size := range opt.Sizes {
			s := Series{Label: sizeLabel(size) + " database, no web service"}
			if web {
				s.Label = sizeLabel(size) + " database, with web service"
			}
			for _, x := range xs {
				hosts, threads := hostsThreads(x)
				p, err := ratePoint(cats[size], size, hosts, threads, web, op, opt)
				if err != nil {
					return nil, err
				}
				p.X = x
				s.Points = append(s.Points, p)
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// ratePoint measures one point of Figures 5–10: hosts targets, each driven
// by threads workers. Through the web service every point gets a fresh
// server and every host its own client, hence its own connection pool.
func ratePoint(cat *core.Catalog, size, hosts, threads int, web bool, op Op, opt FigureOptions) (Point, error) {
	targets := make([]Target, hosts)
	for h := range targets {
		targets[h] = Direct{Catalog: cat}
	}
	if web {
		srv, err := mcs.NewServer(mcs.ServerOptions{Catalog: cat})
		if err != nil {
			return Point{}, err
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for h := range targets {
			// Complex queries over the largest database can exceed the
			// default timeout when many simulated hosts share few cores.
			targets[h] = SOAP{Client: mcs.NewClient(ts.URL, LoaderDN, mcs.WithTimeout(10*time.Minute))}
		}
	}
	var p Point
	if opt.Latency {
		p.Hist = &obs.Histogram{}
	}
	p.Y = RunRate(targets, threads, opt.Duration, op, DefaultConfig(size), opt.AttrK, p.Hist)
	return p, nil
}

// attrWarmup is the per-point warmup query count of Fig. 11.
const attrWarmup = 50

// attrRepeats is how many measurement windows each Fig. 11 point runs; the
// point keeps the fastest. Interference on a loaded host — a
// garbage-collection cycle or scheduler hiccup landing inside a window —
// only ever subtracts throughput, so the peak is the least-biased estimate
// of per-query cost.
const attrRepeats = 3

// attrPoint measures one point of Fig. 11 — complex-query rate at k
// predicates — with a methodology tuned for trustworthy ratios rather than
// peak throughput: a single query thread (so points measure per-query cost,
// not scheduler behaviour), attrWarmup warmup queries (so plan compilation
// and cache warming happen outside the window), and a forced garbage
// collection before each window. The last one matters most on small hosts:
// the loaded catalog keeps hundreds of megabytes live, a concurrent mark
// takes whole seconds of one core, and without the settle a GC cycle lands
// inside some windows and not others, swamping the effect the sweep exists
// to show.
func attrPoint(tgt Direct, k int, opt FigureOptions) (Point, error) {
	for i := 0; i < attrWarmup; i++ {
		if err := tgt.AttrQuery(Predicates(k, i%valueGroups)); err != nil {
			return Point{}, fmt.Errorf("bench: fig 11 warmup k=%d: %w", k, err)
		}
	}
	best := Point{X: k}
	for r := 0; r < attrRepeats; r++ {
		var hist *obs.Histogram
		if opt.Latency {
			hist = &obs.Histogram{}
		}
		runtime.GC()
		start := time.Now()
		n := 0
		for now := start; now.Sub(start) < opt.Duration; n++ {
			if err := tgt.AttrQuery(Predicates(k, n%valueGroups)); err != nil {
				return Point{}, fmt.Errorf("bench: fig 11 k=%d: %w", k, err)
			}
			prev := now
			now = time.Now()
			if hist != nil {
				hist.Observe(now.Sub(prev))
			}
		}
		if rate := float64(n) / time.Since(start).Seconds(); rate > best.Y {
			best.Y, best.Hist = rate, hist
		}
	}
	return best, nil
}

// FigureTitle returns the caption of a figure.
func FigureTitle(fig int) string {
	switch fig {
	case 5:
		return "Fig. 5: Add rate with varying threads on a single client host (adds/s)"
	case 6:
		return "Fig. 6: Simple query rate with varying threads on a single client host (queries/s)"
	case 7:
		return "Fig. 7: Complex query rate with varying threads on a single client host (queries/s)"
	case 8:
		return "Fig. 8: Add rate with varying client hosts, 4 threads each (adds/s)"
	case 9:
		return "Fig. 9: Simple query rate with varying client hosts (queries/s)"
	case 10:
		return "Fig. 10: Complex query rate with varying client hosts (queries/s)"
	case 11:
		return "Fig. 11: Complex query rate vs number of attributes, database only (queries/s)"
	}
	return fmt.Sprintf("unknown figure %d", fig)
}

// xAxis returns the swept-parameter label of a figure.
func xAxis(fig int) string {
	switch fig {
	case 5, 6, 7:
		return "threads"
	case 8, 9, 10:
		return "hosts"
	default:
		return "attributes"
	}
}

// Render formats figure series as an aligned text table, one row per X.
func Render(fig int, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", FigureTitle(fig))
	xs := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]int, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)

	fmt.Fprintf(&b, "%-12s", xAxis(fig))
	for _, s := range series {
		fmt.Fprintf(&b, "  %28s", s.Label)
	}
	b.WriteString("\n")
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-12d", x)
		for _, s := range series {
			val := "-"
			for _, p := range s.Points {
				if p.X == x {
					val = fmt.Sprintf("%.1f", p.Y)
					break
				}
			}
			fmt.Fprintf(&b, "  %28s", val)
		}
		b.WriteString("\n")
	}

	// Latency summaries, when the run recorded them (FigureOptions.Latency).
	withLat := false
	for _, s := range series {
		for _, p := range s.Points {
			if p.Hist != nil && p.Hist.Count() > 0 {
				withLat = true
			}
		}
	}
	if withLat {
		b.WriteString("\nper-operation latency:\n")
		for _, s := range series {
			for _, p := range s.Points {
				if p.Hist == nil || p.Hist.Count() == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %-40s %s=%-4d %s\n", s.Label, xAxis(fig), p.X, p.Hist.Summary())
			}
		}
	}
	return b.String()
}
