package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Differential planner parity: every generated query runs twice — through
// the planner (DB.Query: index selection, sorted-set intersection, key
// probes, rank-ordered stages) and through the naive evaluator
// (DB.QueryNaive: the nested executor over full scans) — and the two row
// multisets must match exactly. The generator covers the planner's decision
// surface in the catalog's dialect: indexed and unindexed columns, a UNIQUE
// column (a whole unique key bound by =, and key probes through its
// one-column unique index), the INTEGER PRIMARY KEY every table is keyed
// by (=, IN and ranges on the row store, and key probes into it), INTEGER
// join keys (intersection) and TEXT and
// FLOAT join keys (which intersection must refuse, leaving the join to the
// nested executor), eq/ne/range/IN predicates, OR-disjunctions that defeat
// index selection, NULL data and NULL parameters (bind-time probe
// degradation), DISTINCT, COUNT(*) and ORDER BY. Every constant is a ?
// parameter, as in the catalog. Ordering is never asserted — rows are
// compared as canonical sorted multisets — because tie order between plans
// is unspecified.

// parityCol is one generated column: its name, declared type, and a small
// value domain the data and predicates both draw from (small domains force
// collisions, which is what makes joins and predicates selective enough to
// be interesting). A unique column is declared UNIQUE, and its rows hold
// distinct values from its domain.
type parityCol struct {
	name   string
	typ    Type
	domain []Value
	unique bool
}

// parityInts is the INTEGER domain 0..n-1.
func parityInts(n int) []Value {
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = Int(int64(i))
	}
	return vs
}

func parityDomains(rng *rand.Rand) []parityCol {
	ints := parityInts
	texts := []Value{Text("ash"), Text("birch"), Text("cedar"), Text("fir"), Text("oak")}
	floats := []Value{Float(-1.5), Float(0), Float(0.5), Float(2), Float(10.25)}
	return []parityCol{
		{name: "k", typ: TypeInt, domain: ints(3 + rng.Intn(5))},
		{name: "v", typ: TypeText, domain: texts[:2+rng.Intn(4)]},
		{name: "w", typ: TypeInt, domain: ints(10)},
		{name: "f", typ: TypeFloat, domain: floats},
		{name: "u", typ: TypeInt, domain: ints(48), unique: true},
	}
}

// buildParityDB creates 2–3 tables over the shared column palette with
// random indexes and 5–45 rows each, keyed by an INTEGER PRIMARY KEY id
// that runs from 0. Each column of each table is declared
// NOT NULL with probability ½; about one value in eight of the others is
// NULL. Both sides of the planner's NULL rule (index.serves) are therefore
// exercised: indexes over NOT NULL columns serve any predicate, indexes
// over nullable ones only a stage that compares them.
func buildParityDB(t testing.TB, rng *rand.Rand) (*DB, []string, []parityCol) {
	t.Helper()
	db := New()
	cols := parityDomains(rng)
	ntab := 2 + rng.Intn(2)
	tables := make([]string, ntab)
	for ti := 0; ti < ntab; ti++ {
		name := fmt.Sprintf("t%d", ti)
		tables[ti] = name
		ddl := fmt.Sprintf("CREATE TABLE %s (id INTEGER PRIMARY KEY", name)
		notNull := make([]bool, len(cols))
		for i, c := range cols {
			ddl += fmt.Sprintf(", %s %s", c.name, c.typ)
			if notNull[i] = rng.Intn(2) == 0; notNull[i] {
				ddl += " NOT NULL"
			}
			if c.unique {
				ddl += " UNIQUE"
			}
		}
		ddl += ")"
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		// Random index shapes: single-column, composite, and one covering
		// the (key, payload) pattern the intersection planner exploits.
		for _, idx := range [][]string{{"k"}, {"v"}, {"w"}, {"k", "v"}, {"v", "k", "w"}, {"f"}} {
			if rng.Intn(2) == 0 {
				continue
			}
			stmt := fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)",
				name, strings.Join(idx, "_"), name, strings.Join(idx, ", "))
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("index on %s: %v", name, err)
			}
		}
		nrows := 5 + rng.Intn(41)
		perm := rng.Perm(nrows) // the unique columns' values, by row
		colNames := make([]string, 0, len(cols)+1)
		colNames = append(colNames, "id")
		ph := []string{"?"}
		for _, c := range cols {
			colNames = append(colNames, c.name)
			ph = append(ph, "?")
		}
		ins := fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
			name, strings.Join(colNames, ", "), strings.Join(ph, ", "))
		for r := 0; r < nrows; r++ {
			args := []Value{Int(int64(r))}
			for i, c := range cols {
				switch {
				case !notNull[i] && rng.Intn(8) == 0:
					args = append(args, Null())
				case c.unique:
					args = append(args, Int(int64(perm[r])))
				default:
					args = append(args, c.domain[rng.Intn(len(c.domain))])
				}
			}
			if _, err := db.Exec(ins, args...); err != nil {
				t.Fatalf("insert %s: %v", name, err)
			}
		}
	}
	return db, tables, cols
}

// parityQuery generates one SELECT plus its parameters.
func parityQuery(rng *rand.Rand, tables []string, cols []parityCol) (string, []Value) {
	nstage := 1 + rng.Intn(3)
	aliases := make([]string, nstage)
	var from strings.Builder
	var params []Value
	// Predicates and joins also reach every table's key, over a domain a
	// little wider than its ids.
	cols = append(slices.Clip(cols), parityCol{name: "id", typ: TypeInt, domain: parityInts(48)})
	// Join keys come from the shared palette so any two stages can join on
	// a same-named, same-typed column; k, w, u and id (INTEGER) exercise
	// intersection, u through its unique index and id through the row
	// store, and v (TEXT) and f (FLOAT) its refusal.
	joinCols := []string{"k", "v", "w", "f", "u", "id"}
	for si := 0; si < nstage; si++ {
		aliases[si] = fmt.Sprintf("a%d", si)
		tbl := tables[rng.Intn(len(tables))]
		if si == 0 {
			fmt.Fprintf(&from, "%s %s", tbl, aliases[si])
			continue
		}
		on := joinCols[rng.Intn(len(joinCols))]
		prev := aliases[rng.Intn(si)]
		fmt.Fprintf(&from, " JOIN %s %s ON %s.%s = %s.%s",
			tbl, aliases[si], aliases[si], on, prev, on)
	}

	constOf := func(c parityCol) string {
		v := c.domain[rng.Intn(len(c.domain))]
		if rng.Intn(20) == 0 {
			v = Null() // exercises bind degradation
		}
		params = append(params, v)
		return "?"
	}
	simplePred := func() string {
		a := aliases[rng.Intn(nstage)]
		c := cols[rng.Intn(len(cols))]
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s.%s < %s", a, c.name, constOf(c))
		case 1:
			return fmt.Sprintf("%s.%s >= %s", a, c.name, constOf(c))
		case 2:
			return fmt.Sprintf("%s.%s IN (%s, %s)", a, c.name, constOf(c), constOf(c))
		case 3:
			return fmt.Sprintf("%s.%s != %s", a, c.name, constOf(c))
		case 4:
			// Cross-stage equality on possibly different columns of one
			// type: feeds the key-equality classes and the residual path.
			b := aliases[rng.Intn(nstage)]
			c2 := c
			for _, cand := range cols {
				if cand.typ == c.typ && rng.Intn(2) == 0 {
					c2 = cand
				}
			}
			return fmt.Sprintf("%s.%s = %s.%s", a, c.name, b, c2.name)
		default:
			return fmt.Sprintf("%s.%s = %s", a, c.name, constOf(c))
		}
	}
	var where []string
	for i := rng.Intn(5); i > 0; i-- {
		p := simplePred()
		if rng.Intn(6) == 0 {
			p = "(" + p + " OR " + simplePred() + ")"
		}
		where = append(where, p)
	}

	sel := "SELECT "
	if rng.Intn(4) == 0 {
		sel += "DISTINCT "
	}
	var orderBy string
	switch rng.Intn(5) {
	case 0:
		sel += "COUNT(*)"
	default:
		var outs []string
		for i := 0; i <= rng.Intn(3); i++ {
			a := aliases[rng.Intn(nstage)]
			c := cols[rng.Intn(len(cols))]
			outs = append(outs, a+"."+c.name)
		}
		sel += strings.Join(outs, ", ")
		if rng.Intn(3) == 0 {
			a := aliases[rng.Intn(nstage)]
			c := cols[rng.Intn(len(cols))]
			orderBy = fmt.Sprintf(" ORDER BY %s.%s", a, c.name)
		}
	}
	q := sel + " FROM " + from.String()
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	q += orderBy
	return q, params
}

// rowMultiset canonicalizes a result for order-free comparison. The type
// tag is part of the encoding so INTEGER 1 and TEXT '1' cannot collide.
func rowMultiset(rows *Rows) []string {
	out := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		var b strings.Builder
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%s|", v.T, v.String())
		}
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// checkParity runs one generated query through both evaluators and fails
// on any divergence — differing rows, or an error on only one side.
func checkParity(t testing.TB, db *DB, q string, params []Value) {
	t.Helper()
	planned, perr := db.Query(q, params...)
	naive, nerr := db.QueryNaive(q, params...)
	if (perr == nil) != (nerr == nil) {
		t.Fatalf("evaluators disagree on error for %q (params %v): planner=%v naive=%v",
			q, params, perr, nerr)
	}
	if perr != nil {
		return
	}
	pm, nm := rowMultiset(planned), rowMultiset(naive)
	if len(pm) != len(nm) {
		t.Fatalf("row count mismatch for %q (params %v): planner=%d naive=%d\nplan: %s",
			q, params, len(pm), len(nm), mustExplain(db, q, params))
	}
	for i := range pm {
		if pm[i] != nm[i] {
			t.Fatalf("row mismatch for %q (params %v) at %d:\n  planner %s\n  naive   %s\nplan: %s",
				q, params, i, pm[i], nm[i], mustExplain(db, q, params))
		}
	}
}

func mustExplain(db *DB, q string, params []Value) string {
	plan, err := db.Explain(q)
	if err != nil {
		return "explain error: " + err.Error()
	}
	return plan
}

// parityRound drives one seeded scenario: build a random database, then
// check a batch of random queries against it.
func parityRound(t testing.TB, seed int64, queries int) {
	rng := rand.New(rand.NewSource(seed))
	db, tables, cols := buildParityDB(t, rng)
	for i := 0; i < queries; i++ {
		q, params := parityQuery(rng, tables, cols)
		checkParity(t, db, q, params)
	}
}

// TestPlanParity is the deterministic face of the differential harness:
// 150 seeded scenarios, eight queries each. CI runs it with -count=2 -race.
func TestPlanParity(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 150; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			parityRound(t, seed, 8)
		})
	}
}

// FuzzPlanParity explores seeds beyond the fixed corpus; CI runs a 30s
// smoke (go test -fuzz=FuzzPlanParity -fuzztime=30s).
func FuzzPlanParity(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		parityRound(t, seed, 4)
	})
}
