// Command benchmark is the catalog service's regression yardstick: one
// seeded, self-checking program that drives five named workloads against an
// in-process deployment and prints every metric by name.
//
//	go run . -seed 1                 all five workloads, tracing off
//	go run . -seed 1 -trace          all five, spans on, per-layer metrics
//	go run . -workload mixed -seed 7 one workload; the last line is JSON
//	go run . -compare A.json B.json  verdict per workload and metric
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec mirrors BENCHMARK.json: the metrics the driver reads and the bound
// by which each end-to-end one may worsen.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot locates the checkout root — the directory holding
// BENCHMARK.json — from the working directory: the root itself when
// started by the driver, benchmark/ under `go run .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from benchmark/")
}

func readSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// splitTraceArg lets -trace be given bare or, as the driver does, followed
// by 0 or 1: Go's flag package reads a boolean's value only after "=".
func splitTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	if err := run(splitTraceArg(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed is returned when a run completed but a self-check failed.
var errFailed = errors.New("self-check failed: see failed_share and the failures above")

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run: discover, ingest, mixed, mixed_soap, sharded or all")
	seed := fs.Uint64("seed", 1, "seed of every client's op stream")
	seconds := fs.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "record spans and report the per-layer metrics")
	clients := fs.Int("clients", min(runtime.NumCPU(), 4), "closed-loop client goroutines, at most nproc")
	out := fs.String("out", "", "results file to append this run to (default benchmark/out/results.json)")
	compare := fs.Bool("compare", false, "compare two results files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: the load is generated in-process, so it must be between 1 and nproc (%d)", *clients, runtime.NumCPU())
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: must be positive", *seconds)
	}
	selected := workloads
	if *workloadName != "all" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{w}
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(outDir, "results.json")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, clients: *clients, data: d20k, outDir: outDir}
	rec := newRunRecord(root, cfg)
	printHeader(cfg, rec)

	var spans []span
	failed := false
	for _, w := range selected {
		res, err := runWorkload(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(res)
		rec.Results = append(rec.Results, res)
		spans = append(spans, res.spans...)
		failed = failed || res.Failed > 0
	}
	if err := appendRun(*out, rec); err != nil {
		return err
	}
	if cfg.trace {
		if err := writeJSONL(filepath.Join(outDir, "trace.jsonl"), spans); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		line, err := driverLine(sp, rec.Results[0])
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	if failed {
		return errFailed
	}
	return nil
}

func printHeader(cfg config, rec *runRecord) {
	fmt.Printf("# seed %d, window %gs after %gs warm-up, tracing %v, %d closed-loop clients (nproc %d, GOMAXPROCS %d), %s, commit %s\n",
		cfg.seed, cfg.seconds, rec.WarmupS, cfg.trace, cfg.clients, rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit)
	fmt.Printf("# system: in-process mcs.Server on 127.0.0.1, authorization enforced, WAL flush policy: %s\n", flushPolicy)
	fmt.Printf("# dataset D%dk: %d files x %d attributes in %d leaf collections; program caches: %d slots (statement, intern, replay); mixed's zipf hot set: %d names draw %.0f%% of reads\n",
		cfg.data.files/1000, cfg.data.files, numAttrs, cfg.data.leaves(), programCacheSlots, rec.HotSetNames, 100*rec.HotSetShare)
}

func printResult(res *result) {
	if res.BuildS > 0 {
		fmt.Printf("# %s: built and cached the dataset snapshot in %.1fs (not part of setup_s)\n", res.Workload, res.BuildS)
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok || v.NA:
			fmt.Printf("%s %s n/a %s\n", res.Workload, d.name, d.unit)
		case v.N > 0:
			fmt.Printf("%s %s %.6g %s n=%d\n", res.Workload, d.name, v.V, d.unit, v.N)
		default:
			fmt.Printf("%s %s %.6g %s\n", res.Workload, d.name, v.V, d.unit)
		}
	}
	for _, f := range res.Failures {
		fmt.Printf("%s FAILURE %s\n", res.Workload, f)
	}
}

// driverLine renders the one-line JSON result the driver reads: every
// end_to_end metric of BENCHMARK.json for an untraced run, every per_layer
// metric for a traced one. A layer that is not on the workload's path
// reports 0; an end-to-end metric must exist on every workload.
func driverLine(sp *spec, res *result) (string, error) {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]m{}}
	list := sp.EndToEnd
	if res.Trace {
		list = sp.PerLayer
	}
	for _, d := range list {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("BENCHMARK.json names metric %q, which this program does not measure", d.Name)
		}
		if v.NA {
			if !res.Trace && res.Failed == 0 {
				return "", fmt.Errorf("end-to-end metric %q is n/a on workload %s", d.Name, res.Workload)
			}
			v.V = 0
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return "", fmt.Errorf("metric %q is %v", d.Name, v.V)
		}
		line.Metrics[d.Name] = m{Value: v.V, Unit: d.Unit}
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}

// programCacheSlots is the size of the product's statement, intern and
// replay caches (sqldb.maxCachedStatements, the intern table and
// core.ReplayCacheBound are all 4096).
const programCacheSlots = 4096

// runRecord is one invocation in a results file.
type runRecord struct {
	Time        string    `json:"time"`
	Commit      string    `json:"commit"`
	GoVersion   string    `json:"go_version"`
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Clients     int       `json:"clients"`
	Seed        uint64    `json:"seed"`
	Trace       bool      `json:"trace"`
	WindowS     float64   `json:"window_s"`
	WarmupS     float64   `json:"warmup_s"`
	Files       int       `json:"dataset_files"`
	Attrs       int       `json:"dataset_attrs_per_file"`
	Leaves      int       `json:"dataset_leaf_collections"`
	CacheSlots  int       `json:"program_cache_slots"`
	HotSetNames int       `json:"mixed_hot_set_names"`
	HotSetShare float64   `json:"mixed_hot_set_read_share"`
	FlushPolicy string    `json:"flush_policy"`
	Results     []*result `json:"results"`
}

func newRunRecord(root string, cfg config) *runRecord {
	// The hot set: the most popular leaf collections that still fit the
	// program's caches, and the share of zipf reads they draw.
	hotLeaves := programCacheSlots / cfg.data.perLeaf
	cdf := newStream(mixMixed, cfg.data, 0, 0).zipfCDF
	share := 0.0
	if hotLeaves > 0 && hotLeaves <= len(cdf) {
		share = cdf[hotLeaves-1]
	}
	return &runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: gitCommit(root),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Seed: cfg.seed, Trace: cfg.trace, WindowS: cfg.seconds, WarmupS: min(maxWarmup.Seconds(), cfg.seconds/4),
		Files: cfg.data.files, Attrs: numAttrs, Leaves: cfg.data.leaves(), CacheSlots: programCacheSlots,
		HotSetNames: hotLeaves * cfg.data.perLeaf, HotSetShare: share, FlushPolicy: flushPolicy,
	}
}

// gitCommit reads the checked-out commit from .git without running git; the
// driver's checkouts are not repositories and report "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

type resultsFile struct {
	Runs []*runRecord `json:"runs"`
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRun adds rec to the results file at path, creating it if absent:
// running the benchmark N times against one file makes a set of N runs,
// which is what -compare takes medians and spreads over.
func appendRun(path string, rec *runRecord) error {
	f, err := readResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
