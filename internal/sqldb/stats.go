package sqldb

// Cardinality statistics for the cost-based planner.
//
// Every index carries exact distinct-prefix counts — for each prefix length
// k, how many distinct k-column key prefixes its tree holds — maintained
// incrementally as pending deltas are flushed (see index.flush): the flush
// batch is already sorted by key, so each distinct prefix group in the
// batch costs at most two read-only tree probes (one before the group's ops
// apply, one after) to detect a 0→N or N→0 transition. Row counts come
// from the trees' own lengths. The bulk path — CREATE INDEX backfill and
// snapshot restore, see build.go — counts them from the runs of equal sort
// words that also decide UNIQUE, before the tree exists.
//
// The planner never reads these fields (or the trees) directly: it consults
// a statsRegistry snapshot taken at compile time, mirroring the
// go-mysql-server Catalog/IndexRegistry split. Because compiled plans are
// cached per MVCC epoch, stats are consulted once per (statement, epoch),
// not per execution.

// indexStats is the per-index cardinality summary: distinct[k-1] counts the
// distinct k-column key prefixes in the tree, for every prefix length up to
// the index width.
type indexStats struct {
	distinct []int
}

// clone deep-copies the counts; index clones must not share the slice with
// their immutable parent, whose published root may still be read.
func (s indexStats) clone() indexStats {
	return indexStats{distinct: append([]int(nil), s.distinct...)}
}

// distinctCounts computes the distinct-prefix counts from scratch with one
// ordered tree walk: the ground truth the stats property tests hold both the
// incremental flush maintenance and the bulk build's sorted-run count to.
func (ix *index) distinctCounts() []int {
	nc := len(ix.cols)
	d := make([]int, nc)
	var prev indexEntry
	first := true
	ix.tree.Ascend(func(e indexEntry, _ struct{}) bool {
		// Prefixes longer than the columns e shares with prev are new.
		diff := 0
		if !first {
			diff = ix.keyDiff(prev, e)
		}
		for i := diff; i < nc; i++ {
			d[i]++
		}
		prev, first = e, false
		return true
	})
	return d
}

// hasPrefix reports whether the tree holds at least one entry whose first n
// key columns equal key's. It is a single read-only descent; flush uses it
// to detect distinct-count transitions around each delta group.
func (ix *index) hasPrefix(key indexEntry, n int) bool {
	found := false
	ix.scanWhile(func(e indexEntry) int { return ix.compareKey(e, key, n) }, func(indexEntry) bool {
		found = true
		return false
	})
	return found
}

// statsRegistry is the planner's read-only window onto cardinality data.
// Planning code asks it — never the tables or trees — for row counts and
// selectivity estimates, so the boundary between "what the data looks like"
// and "how to access it" stays explicit and testable. The registry reads
// the live fields of one immutable root's tables, which is safe because a
// published root is never mutated.
type statsRegistry struct{}

// tableRows returns the row count of t.
func (statsRegistry) tableRows(t *table) float64 { return float64(t.rows.Len()) }

// distinct returns the exact number of distinct k-column prefixes in ix.
func (statsRegistry) distinct(ix *index, k int) float64 {
	d := ix.stats.distinct
	switch {
	case k <= 0 || len(d) == 0:
		return 1
	case k <= len(d):
		return float64(d[k-1])
	default:
		return float64(d[len(d)-1])
	}
}

// eqRows estimates how many rows one equality probe on the leading k
// columns of ix returns, out of the rows the index holds: those with no
// NULL key cell.
func (s statsRegistry) eqRows(ix *index, k int) float64 {
	n := float64(ix.tree.Len())
	if n == 0 {
		return 0
	}
	d := s.distinct(ix, k)
	if d < 1 {
		d = 1
	}
	return n / d
}
