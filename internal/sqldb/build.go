package sqldb

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mcs/internal/btree"
)

// The one bulk index-build path. An index comes to hold rows it did not see
// inserted in exactly two situations — CREATE INDEX backfill and snapshot
// restore — and both hand the table's rows to table.buildIndexes.
//
// Sorting index entries directly would make every comparison follow two row
// pointers into 32-byte cells and, for TEXT, into the strings. Instead the
// build reads every key cell once and turns it into an order-preserving
// uint64 word, then sorts small pointer-free records of those words:
//
//   - INTEGER, BOOLEAN and DATETIME cells become N ^ 1<<63: the int64
//     payload with its sign bit flipped orders as unsigned exactly as the
//     payload orders as signed.
//   - TEXT and FLOAT cells become the dense rank of the column's distinct
//     values sorted by compareCells, so cells equal under compareCells (-0
//     and +0) share a rank.
//   - A NULL cell is flagged, not encoded: its row has no entry in an index
//     over the column (see index), so the build drops the row before it
//     sorts and never reads the word.
//
// The words order like the cells only because every stored cell is NULL or
// of its column's declared type (coerce at the write doors, the snapshot
// reader at the restore door) and no FLOAT is NaN.

// keyColumn is one table column's sort words, by row position.
type keyColumn struct {
	words []uint64 // the cell's word; meaningless for NULL
	null  []bool   // the cell is NULL; nil when no cell of the column is
}

// sortRec is one row's record at one level of index.build's sort: the row's
// word in the key column that level sorts by, and the row's position in the
// build's input. Positions follow rowid order, so ordering ties by position
// orders them by rowid, as the index does. A position fits 32 bits: 2^32
// rows would take the in-memory engine past 200 GB of row slices alone.
type sortRec struct {
	word uint64
	pos  uint32
}

// sortRecs orders recs — which arrive in position order — by word, then
// position: an LSD radix sort over the bytes in which the words differ,
// which keeps equal records in arrival order. tmp has room for len(recs).
func sortRecs(recs, tmp []sortRec) {
	if len(recs) < 2 {
		return
	}
	var diff uint64
	for _, r := range recs {
		diff |= r.word ^ recs[0].word
	}
	src, dst := recs, tmp[:len(recs)]
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, r := range src {
			at[byte(r.word>>shift)]++
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, r := range src {
			b := byte(r.word >> shift)
			dst[at[b]] = r
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// buildBuf is one build worker's scratch, reused across the indexes it
// builds: the records, the radix sort's second buffer, and the sorted
// entries handed to btree.FromSorted, which copies what it keeps.
type buildBuf struct {
	recs, tmp []sortRec
	entries   []indexEntry
}

// buildIndexes fills the new, empty indexes ixs of t from rows, the
// table's rows with their rowids in ascending rowid order. It extracts the
// key columns of all of them, then builds the indexes, each step side by
// side on at most GOMAXPROCS workers. It returns the first
// index's error; the callers then drop every index of ixs.
func (t *table) buildIndexes(rowids []int64, rows []Row, ixs []*index) error {
	var cols []int
	for _, ix := range ixs {
		cols = append(cols, ix.cols...)
	}
	keys := t.extractKeys(rows, cols)
	return parallel(len(ixs), func(i int, buf *buildBuf) error {
		return ixs[i].build(rowids, rows, keys, buf)
	})
}

// parallel runs job(i) for every i below n on at most GOMAXPROCS workers,
// each taking the next undone i and passing its own scratch buffer, and
// returns the error of the lowest failing i.
func parallel(n int, job func(i int, buf *buildBuf) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf buildBuf
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = job(i, &buf)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// extractKeys returns the sort words of the given columns over rows, by
// table column position; a column not asked for is left empty. Rows are
// scattered over the heap, so each is read once, for all the columns: the
// rows are cut into chunks of at least keyChunk rows, one job each, and the
// jobs run side by side (parallel). A chunk numbers a TEXT or FLOAT
// column's distinct values in the order it meets them; the numbers then
// count on from the chunks before, and one rank per column swaps them for
// ranks.
func (t *table) extractKeys(rows []Row, cols []int) []keyColumn {
	keys := make([]keyColumn, len(t.cols))
	var want []int
	for _, c := range cols {
		if keys[c].words == nil {
			keys[c].words = make([]uint64, len(rows))
			if !t.cols[c].NotNull {
				keys[c].null = make([]bool, len(rows))
			}
			want = append(want, c)
		}
	}
	n := max(1, min(runtime.GOMAXPROCS(0), len(rows)/keyChunk))
	// vals[ci][j] holds chunk ci's distinct values of column want[j], nulls
	// whether it met a NULL there.
	vals := make([][][]Value, n)
	nulls := make([][]bool, n)
	parallel(n, func(ci int, _ *buildBuf) error {
		lo, hi := ci*len(rows)/n, (ci+1)*len(rows)/n
		vals[ci], nulls[ci] = make([][]Value, len(want)), make([]bool, len(want))
		texts, floats := make([]map[string]uint32, len(want)), make([]map[int64]uint32, len(want))
		for j, c := range want {
			switch t.cols[c].Type {
			case TypeText:
				texts[j] = make(map[string]uint32)
			case TypeFloat:
				floats[j] = make(map[int64]uint32)
			}
		}
		for i := lo; i < hi; i++ {
			row := rows[i]
			for j, c := range want {
				k := &keys[c]
				switch v := &row[c]; {
				case v.T == TypeNull:
					k.null[i], nulls[ci][j] = true, true
				case texts[j] != nil:
					k.words[i] = number(texts[j], v.S, v, &vals[ci][j])
				case floats[j] != nil:
					k.words[i] = number(floats[j], v.N, v, &vals[ci][j])
				default:
					k.words[i] = uint64(v.N) ^ 1<<63
				}
			}
		}
		return nil
	})
	parallel(len(want), func(j int, _ *buildBuf) error {
		k := &keys[want[j]]
		if !slices.ContainsFunc(nulls, func(saw []bool) bool { return saw[j] }) {
			k.null = nil
		}
		var all []Value
		for ci := range n {
			if off := uint64(len(all)); off > 0 {
				for i := ci * len(rows) / n; i < (ci+1)*len(rows)/n; i++ {
					if k.null == nil || !k.null[i] {
						k.words[i] += off
					}
				}
			}
			all = append(all, vals[ci][j]...)
		}
		if len(all) > 0 {
			k.rank(all)
		}
		return nil
	})
	return keys
}

// keyChunk is the fewest rows extractKeys gives a job of its own.
const keyChunk = 4096

// number returns the number seen gave v, whose key is key, giving it the
// next one, and appending v to vals, if v is new.
func number[K comparable](seen map[K]uint32, key K, v *Value, vals *[]Value) uint64 {
	id, ok := seen[key]
	if !ok {
		id = uint32(len(*vals))
		seen[key] = id
		*vals = append(*vals, *v)
	}
	return uint64(id)
}

// rank replaces each word, an index into vals, by the dense rank of that
// value among vals under compareCells. A NULL cell's word 0 becomes some
// rank that nothing reads.
func (k keyColumn) rank(vals []Value) {
	order := make([]uint32, len(vals))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return compareCells(&vals[a], &vals[b]) })
	ranks := make([]uint64, len(vals))
	for i := 1; i < len(order); i++ {
		ranks[order[i]] = ranks[order[i-1]]
		if compareCells(&vals[order[i-1]], &vals[order[i]]) != 0 {
			ranks[order[i]]++
		}
	}
	for i, w := range k.words {
		k.words[i] = ranks[w]
	}
}

// build replaces the tree of a new, empty index with one entry per row of
// rows (rowids beside them, ascending) whose key cells are all non-NULL,
// using the key words keys holds for the index's columns. The records are
// sorted one key column at a time, most significant first: a level sorts a
// run of rows that agree on the columns before it, and recurses into each
// run of equal words. The runs decide only UNIQUE: a run of equal full keys
// is a violation, found without another comparison. The sorted records then
// place the entries, and the run goes to the tree's bottom-up constructor.
// On error the index is unchanged.
func (ix *index) build(rowids []int64, rows []Row, keys []keyColumn, buf *buildBuf) error {
	var nulls [][]bool
	for _, c := range ix.cols {
		if keys[c].null != nil {
			nulls = append(nulls, keys[c].null)
		}
	}
	recs := slices.Grow(buf.recs[:0], len(rows))
rows:
	for i := range rows {
		for _, null := range nulls {
			if null[i] {
				continue rows
			}
		}
		recs = append(recs, sortRec{pos: uint32(i)})
	}
	n := len(recs)
	buf.tmp = slices.Grow(buf.tmp[:0], n)
	if err := ix.sortLevel(recs, buf.tmp[:n], 0, keys); err != nil {
		return err
	}
	entries := slices.Grow(buf.entries[:0], n)[:n]
	for i, r := range recs {
		entries[i] = entryOf(rowids[r.pos], rows[r.pos])
	}
	ix.tree = btree.FromSorted[indexEntry, struct{}](indexDegree, entryLess(ix.cols), entries, nil)
	buf.recs, buf.entries = recs, entries
	return nil
}

// sortLevel sorts recs, rows that agree on key columns [0, lvl), by column
// lvl and then position, and descends into its runs of equal words. At the
// last column a run is a set of equal full keys, already in position order:
// only a UNIQUE index reads it.
func (ix *index) sortLevel(recs, tmp []sortRec, lvl int, keys []keyColumn) error {
	words := keys[ix.cols[lvl]].words
	for i := range recs {
		recs[i].word = words[recs[i].pos]
	}
	sortRecs(recs, tmp)
	if lvl == len(ix.cols)-1 {
		for i := 1; i < len(recs) && ix.unique; i++ {
			if recs[i].word == recs[i-1].word {
				return ix.uniqueViolation()
			}
		}
		return nil
	}
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].word == recs[i].word {
			j++
		}
		if j-i > 1 {
			if err := ix.sortLevel(recs[i:j], tmp[i:j], lvl+1, keys); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}
