package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints: its unit and which way
// is better. BENCHMARK.json lists the subset the driver reads, with bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are measured with tracing off. The per-class latencies and
// files_per_s exist only on workloads where the class occurs, and
// failed_share is 0 when all is well, so BENCHMARK.json can gate only the
// ones every workload has, and of those it gates the ones that hold steady
// from run to run (see README.md); the latencies are listed under per_layer.
// single_p50_ms is the median over the requests about one object (lookups
// and single writes), the one latency every workload has.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"files_per_s", "1/s", "higher"},
	{"single_p50_ms", "ms", "lower"},
	{"lookup_p50_ms", "ms", "lower"},
	{"lookup_p99_ms", "ms", "lower"},
	{"search_p50_ms", "ms", "lower"},
	{"search_p99_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"failed_share", "ratio", "lower"},
	{"restart_s", "s", "lower"},
	{"heap_bytes_per_file", "B", "lower"},
	{"disk_bytes_per_file", "B", "lower"},
}

// perLayer are measured in the traced run; layer = module name.
var perLayer = []metricDef{
	{"client.self_us_per_op", "us", "lower"},
	{"client.retries", "count", "lower"},
	{"jsonwire.self_us_per_op", "us", "lower"},
	{"soap.self_us_per_op", "us", "lower"},
	{"wire.req_bytes_per_op", "B", "lower"},
	{"wire.resp_bytes_per_op", "B", "lower"},
	{"mcswire.dispatch_us.lookup", "us", "lower"},
	{"mcswire.dispatch_us.search", "us", "lower"},
	{"mcswire.dispatch_us.write", "us", "lower"},
	{"mcswire.dispatch_us.batch", "us", "lower"},
	{"mcswire.replayed_writes", "count", "lower"},
	{"core.direct_us.lookup", "us", "lower"},
	{"core.direct_us.search", "us", "lower"},
	{"core.direct_us.write", "us", "lower"},
	{"core.direct_us.batch", "us", "lower"},
	{"core.stmts_per_op.lookup", "count", "lower"},
	{"core.stmts_per_op.search", "count", "lower"},
	{"core.stmts_per_op.write", "count", "lower"},
	{"core.stmts_per_op.batch", "count", "lower"},
	{"core.warm_read_us", "us", "lower"},
	{"core.cold_read_us", "us", "lower"},
	{"sqldb.commits", "count", "lower"},
	{"sqldb.wal_appends", "count", "lower"},
	{"sqldb.wal_fsyncs", "count", "lower"},
	{"sqldb.commits_per_fsync", "count", "higher"},
	{"sqldb.wal_bytes_per_commit", "B", "lower"},
	{"sqldb.snapshot_s", "s", "lower"},
	{"sqldb.snapshot_bytes_per_file", "B", "lower"},
	{"sqldb.load_snapshot_s", "s", "lower"},
	{"sqldb.wal_replay_records_per_s", "1/s", "higher"},
	{"sqldb.checkpoint_count", "count", "higher"},
	{"sqldb.write_p99_ms_in_checkpoint", "ms", "lower"},
	{"sqldb.write_p99_ms_outside", "ms", "lower"},
	{"batch_p50_ms", "ms", "lower"},
	{"btree.insert_ns", "ns", "lower"},
	{"btree.get_ns", "ns", "lower"},
	{"btree.insert_allocs", "count", "lower"},
	{"shard.router_self_us_per_op", "us", "lower"},
	{"shard.shard_busy_us_per_op", "us", "lower"},
	{"shard.subqueries_per_scatter", "count", "lower"},
	{"shard.bloom_fp_subqueries", "count", "lower"},
	{"shard.single_route_share", "ratio", "higher"},
	{"shard.forwarded_skew", "count", "lower"},
	{"rt.alloc_bytes_per_op", "B", "lower"},
	{"rt.allocs_per_op", "count", "lower"},
	{"rt.gc_pause_total_ms", "ms", "lower"},
	{"rt.gc_cpu_share", "ratio", "lower"},
	{"rt.cpu_s_per_kop", "s", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	// Latency by class, as seen by the client during the traced window.
	{"files_per_s", "1/s", "higher"},
	{"single_p50_ms", "ms", "lower"},
	{"lookup_p50_ms", "ms", "lower"},
	{"lookup_p99_ms", "ms", "lower"},
	{"search_p50_ms", "ms", "lower"},
	{"search_p99_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
}

// value is one reported number. n is the sample count behind a timing (0
// for counts and ratios); na marks a metric whose class or layer does not
// occur in the workload.
type value struct {
	V  float64 `json:"value"`
	N  int     `json:"n,omitempty"`
	NA bool    `json:"na,omitempty"`
}

// p99MinSamples is how many samples a p99 needs to be reported: ten beyond
// the percentile.
const p99MinSamples = 1000

// percentile returns the q-quantile (0..1) of sorted durations by the
// nearest-rank rule, so a reported value is always one that was measured.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedDurs(samples []sample, keep func(sample) bool) []int64 {
	out := make([]int64, 0, len(samples))
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.dur)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// latency fills name_p50_ms and name_p99_ms from sorted durations: n/a with
// no samples, and the p99 n/a below p99MinSamples.
func latency(out map[string]value, name string, sorted []int64) {
	n := len(sorted)
	out[name+"_p50_ms"] = value{V: ms(percentile(sorted, 0.50)), N: n, NA: n == 0}
	out[name+"_p99_ms"] = value{V: ms(percentile(sorted, 0.99)), N: n, NA: n < p99MinSamples}
}

// quartiles returns the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes spreads with. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}
