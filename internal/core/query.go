package core

import (
	"fmt"
	"sort"
	"strings"

	"mcs/internal/sqldb"
)

// The attribute-based discovery engine. A query is a conjunction of
// predicates over predefined (static) attributes and user-defined
// attributes; the result is the set of logical names whose metadata
// matches — step (1)/(2) of the paper's Figure 2 scenario.
//
// Query compilation keeps the relational shape the original MCS server
// used against MySQL: static predicates filter the object table directly;
// each user-defined attribute predicate becomes one join against the
// user_attribute table, so an N-attribute "complex query" is an N-way
// self-join. How that join executes is the engine's business, not this
// package's: sqldb's planner turns the equi-join conjunction into
// per-attribute probes of the (attr_id, object_type, value, object_id)
// covering indexes combined by sorted-rowid intersection, the stages
// ordered by how many key columns each binds (a fixed rule over the
// schema; ties keep predicate order) — which is what keeps Fig. 11 flat
// instead of cliff-shaped as N grows. ExplainQuery exposes the generated
// SQL so tests can pin the chosen plan via EXPLAIN.

// targetTable returns the object table and alias for a query target.
func targetTable(t ObjectType) (string, error) {
	switch t {
	case ObjectFile, "":
		return "logical_file", nil
	case ObjectCollection:
		return "logical_collection", nil
	case ObjectView:
		return "logical_view", nil
	}
	return "", fmt.Errorf("%w: query target %q", ErrInvalidInput, t)
}

// staticColumnFor resolves a static attribute name for the given target.
func staticColumnFor(target ObjectType, attr string) (column string, typ AttrType, ok bool) {
	if target == ObjectFile || target == "" {
		sc, ok := staticFileColumns[attr]
		return sc.column, sc.typ, ok
	}
	// Collections and views share a small static vocabulary.
	switch attr {
	case "name", "description", "creator", "lastModifier":
		cols := map[string]string{
			"name": "name", "description": "description",
			"creator": "creator", "lastModifier": "last_modifier",
		}
		return cols[attr], AttrString, true
	}
	return "", "", false
}

// staticTypeCompatible reports whether a predicate value of type got can
// meaningfully compare against a static column of type want (numeric types
// interconvert; everything else must match exactly).
func staticTypeCompatible(want, got AttrType) bool {
	if want == got {
		return true
	}
	numeric := func(t AttrType) bool { return t == AttrInt || t == AttrFloat }
	if numeric(want) && numeric(got) {
		return true
	}
	// The datetime-ish static columns accept any of the three time kinds.
	timeish := func(t AttrType) bool { return t == AttrDate || t == AttrTime || t == AttrDateTime }
	return timeish(want) && timeish(got)
}

// sqlOp maps a query operator to its SQL spelling.
func sqlOp(op Op) (string, error) {
	switch op {
	case OpEq:
		return "=", nil
	case OpNe:
		return "!=", nil
	case OpLt, OpLe, OpGt, OpGe:
		return string(op), nil
	case OpLike:
		return "LIKE", nil
	}
	return "", fmt.Errorf("%w: operator %q", ErrInvalidInput, op)
}

// compileQuery translates a Query into SQL and its parameters, with an
// optional pagination window: when pageSize > 0 the result is restricted to
// names strictly after `after`, ordered by name, at most pageSize rows —
// the stateless cursor behind RunQueryPage.
func (c *Catalog) compileQuery(q Query, after string, pageSize int) (string, []sqldb.Value, error) {
	target := q.Target
	if target == "" {
		target = ObjectFile
	}
	table, err := targetTable(target)
	if err != nil {
		return "", nil, err
	}

	type userPred struct {
		def AttributeDef
		op  string
		val sqldb.Value
	}
	var staticConds []string
	var staticArgs []sqldb.Value
	var userPreds []userPred

	for _, p := range q.Predicates {
		op, err := sqlOp(p.Op)
		if err != nil {
			return "", nil, err
		}
		if col, typ, ok := staticColumnFor(target, p.Attribute); ok {
			v := p.Value.sqlValue()
			// The valid flag is stored as BOOLEAN; accept int 0/1 predicates.
			if p.Attribute == "valid" {
				v = sqldb.Bool(p.Value.I != 0)
			} else if !staticTypeCompatible(typ, p.Value.Type) {
				return "", nil, fmt.Errorf("%w: static attribute %q is %s, predicate value is %s",
					ErrInvalidInput, p.Attribute, typ, p.Value.Type)
			}
			staticConds = append(staticConds, fmt.Sprintf("t.%s %s ?", col, op))
			staticArgs = append(staticArgs, v)
			continue
		}
		def, err := c.GetAttributeDef(p.Attribute)
		if err != nil {
			return "", nil, err
		}
		if def.Type != p.Value.Type {
			return "", nil, fmt.Errorf("%w: attribute %q is %s, predicate value is %s",
				ErrInvalidInput, p.Attribute, def.Type, p.Value.Type)
		}
		userPreds = append(userPreds, userPred{def: def, op: op, val: p.Value.sqlValue()})
	}

	if pageSize > 0 && after != "" {
		staticConds = append(staticConds, "t.name > ?")
		staticArgs = append(staticArgs, sqldb.Text(after))
	}

	var sb strings.Builder
	var args []sqldb.Value
	if len(userPreds) == 0 {
		sb.WriteString("SELECT t.name FROM " + table + " t")
		if len(staticConds) > 0 {
			sb.WriteString(" WHERE " + strings.Join(staticConds, " AND "))
			args = append(args, staticArgs...)
		}
	} else {
		// a0 drives the scan through the (attr_id, value) index; the object
		// table and the remaining attribute instances join off it.
		sb.WriteString("SELECT DISTINCT t.name FROM user_attribute a0")
		sb.WriteString(" JOIN " + table + " t ON t.id = a0.object_id")
		for i := 1; i < len(userPreds); i++ {
			fmt.Fprintf(&sb, " JOIN user_attribute a%d ON a%d.object_id = a0.object_id", i, i)
		}
		var conds []string
		for i, up := range userPreds {
			a := fmt.Sprintf("a%d", i)
			conds = append(conds, fmt.Sprintf("%s.object_type = ?", a))
			args = append(args, sqldb.Text(string(target)))
			conds = append(conds, fmt.Sprintf("%s.attr_id = ?", a))
			args = append(args, sqldb.Int(up.def.ID))
			conds = append(conds, fmt.Sprintf("%s.%s %s ?", a, up.def.Type.storageColumn(), up.op))
			args = append(args, up.val)
		}
		conds = append(conds, staticConds...)
		args = append(args, staticArgs...)
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if pageSize > 0 {
		fmt.Fprintf(&sb, " ORDER BY t.name LIMIT %d", pageSize)
	} else if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String(), args, nil
}

// RunQuery executes an attribute-based query and returns the matching
// logical names. With authorization enabled, names the caller may not read
// are filtered from the result.
func (c *Catalog) RunQuery(dn string, q Query) ([]string, error) {
	names, err := c.matchNames(q, "", 0)
	if err != nil {
		return nil, err
	}
	names, _, err = c.readable(dn, q.Target, names)
	return names, err
}

// matchNames runs q, compiled with compileQuery's pagination window, and
// returns the matched names.
func (c *Catalog) matchNames(q Query, after string, pageSize int) ([]string, error) {
	sql, args, err := c.compileQuery(q, after, pageSize)
	if err != nil {
		return nil, err
	}
	rows, err := c.db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(rows.Data))
	for _, r := range rows.Data {
		names = append(names, r[0].S)
	}
	return names, nil
}

// readable keeps the matched names dn may read, and returns the object each
// kept name resolved to. With authorization off it keeps every name and
// returns no objects. A name that resolves to no object (it vanished since
// the match) or to several (a file name with multiple versions, which needs
// an explicit version) is dropped.
func (c *Catalog) readable(dn string, target ObjectType, names []string) ([]string, map[string][]authObject, error) {
	if !c.authz {
		return names, nil, nil
	}
	objs, err := c.resolveNames(target, names)
	if err != nil {
		return nil, nil, err
	}
	visible := names[:0]
	for _, name := range names {
		if len(objs[name]) != 1 {
			continue
		}
		ok, err := c.allowed(c.db, dn, objs[name][0], PermRead)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			visible = append(visible, name)
		}
	}
	return visible, objs, nil
}

// inChunkMax caps the width of one IN-list batch statement.
const inChunkMax = 1024

// inChunks invokes fn over items in IN-list-sized chunks, each padded to a
// power-of-two length by repeating the last element, so the engine's
// prepared-statement cache sees a handful of SQL shapes instead of one per
// distinct item count. The planner deduplicates IN values, making the
// padding free.
func inChunks[T any](items []T, fn func(chunk []T) error) error {
	for start := 0; start < len(items); start += inChunkMax {
		end := start + inChunkMax
		if end > len(items) {
			end = len(items)
		}
		chunk := items[start:end]
		n := 1
		for n < len(chunk) {
			n <<= 1
		}
		if n > len(chunk) {
			padded := make([]T, n)
			copy(padded, chunk)
			for i := len(chunk); i < n; i++ {
				padded[i] = chunk[len(chunk)-1]
			}
			chunk = padded
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
	return nil
}

// placeholders returns "?, ?, ..., ?" with n markers.
func placeholders(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('?')
	}
	return sb.String()
}

// resolveNames maps each name to its objects in target's table — ID,
// creator and the collection above it — with one IN-list statement per
// chunk. A multi-version file name maps to several objects; an absent name
// is absent from the map.
func (c *Catalog) resolveNames(target ObjectType, names []string) (map[string][]authObject, error) {
	table, err := targetTable(target)
	if err != nil {
		return nil, err
	}
	if target == "" {
		target = ObjectFile
	}
	cols := "name, id, creator"
	switch target {
	case ObjectFile:
		cols += ", collection_id"
	case ObjectCollection:
		cols += ", parent_id"
	}
	out := make(map[string][]authObject, len(names))
	err = inChunks(names, func(chunk []string) error {
		args := make([]sqldb.Value, len(chunk))
		for i, n := range chunk {
			args[i] = sqldb.Text(n)
		}
		rows, err := c.db.Query(
			"SELECT "+cols+" FROM "+table+" WHERE name IN ("+placeholders(len(chunk))+")", args...)
		if err != nil {
			return err
		}
		for _, r := range rows.Data {
			o := authObject{typ: target, id: r[1].Int(), creator: r[2].S}
			if len(r) > 3 && !r[3].IsNull() {
				o.parent = r[3].Int()
			}
			out[r[0].S] = append(out[r[0].S], o)
		}
		return nil
	})
	return out, err
}

// attributesBatch fetches the user-defined attributes of many objects in
// IN-list batches, grouped by object ID and sorted by attribute name — the
// hydration half of RunQueryAttrs without its former query per name.
func (c *Catalog) attributesBatch(objType ObjectType, ids []int64) (map[int64][]Attribute, error) {
	uniq := make([]int64, 0, len(ids))
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	out := make(map[int64][]Attribute, len(uniq))
	err := inChunks(uniq, func(chunk []int64) error {
		args := make([]sqldb.Value, 0, len(chunk)+1)
		args = append(args, sqldb.Text(string(objType)))
		for _, id := range chunk {
			args = append(args, sqldb.Int(id))
		}
		rows, err := c.db.Query(`SELECT ua.object_id, d.name, d.type, ua.sval, ua.ival, ua.fval, ua.tval
			FROM user_attribute ua JOIN attribute_def d ON d.id = ua.attr_id
			WHERE ua.object_type = ? AND ua.object_id IN (`+placeholders(len(chunk))+`)`, args...)
		if err != nil {
			return err
		}
		for _, r := range rows.Data {
			out[r[0].Int()] = append(out[r[0].Int()], decodeAttrRow(r[1:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id := range out {
		sortAttrs(out[id])
	}
	return out, nil
}

// QueryResult couples one matched logical name with the values of the
// attributes the caller asked to be returned.
type QueryResult struct {
	Name       string
	Attributes []Attribute
}

// RunQueryAttrs executes a query and, per the requirements of section 3 of
// the paper ("queries must also return the values of one or more additional
// metadata attributes associated with the logical name attribute"), fetches
// the named user-defined attributes of every match. Attributes a match does
// not carry are simply absent from its result.
func (c *Catalog) RunQueryAttrs(dn string, q Query, returnAttrs []string) ([]QueryResult, error) {
	names, err := c.matchNames(q, "", 0)
	if err != nil {
		return nil, err
	}
	names, objs, err := c.readable(dn, q.Target, names)
	if err != nil {
		return nil, err
	}
	target := q.Target
	if target == "" {
		target = ObjectFile
	}
	want := make(map[string]bool, len(returnAttrs))
	for _, a := range returnAttrs {
		if _, err := c.GetAttributeDef(a); err != nil {
			return nil, err
		}
		want[a] = true
	}
	out := make([]QueryResult, 0, len(names))
	if len(want) == 0 || len(names) == 0 {
		for _, name := range names {
			out = append(out, QueryResult{Name: name})
		}
		return out, nil
	}
	// Hydrate all matches with IN-list batches instead of one GetAttributes
	// round per name. With authorization on, readable already resolved
	// every kept name to one object dn may read; with it off, resolve here,
	// and an unresolvable name fails the call exactly as GetAttributes did.
	if objs == nil {
		if objs, err = c.resolveNames(target, names); err != nil {
			return nil, err
		}
	}
	ids := make([]int64, 0, len(names))
	for _, name := range names {
		resolved := objs[name]
		if len(resolved) == 0 {
			return nil, fmt.Errorf("%w: %s %q", ErrNotFound, target, name)
		}
		if len(resolved) > 1 {
			return nil, fmt.Errorf("%w: file %q has %d versions", ErrAmbiguousFile, name, len(resolved))
		}
		ids = append(ids, resolved[0].id)
	}
	attrsByID, err := c.attributesBatch(target, ids)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		res := QueryResult{Name: name}
		for _, a := range attrsByID[ids[i]] {
			if want[a.Name] {
				res.Attributes = append(res.Attributes, a)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// QueryFiles runs a file-targeted query and loads the full static metadata
// of each match.
func (c *Catalog) QueryFiles(dn string, q Query) ([]File, error) {
	q.Target = ObjectFile
	names, err := c.RunQuery(dn, q)
	if err != nil {
		return nil, err
	}
	return c.versionsOf(dn, names)
}

// versionsOf loads every version of every name in IN-list batches and
// returns those dn may read, grouped by name in the order given, versions
// ascending.
func (c *Catalog) versionsOf(dn string, names []string) ([]File, error) {
	uniq := make([]string, 0, len(names))
	seenName := make(map[string]bool, len(names))
	for _, name := range names {
		if !seenName[name] {
			seenName[name] = true
			uniq = append(uniq, name)
		}
	}
	byName := make(map[string][]File, len(uniq))
	err := inChunks(uniq, func(chunk []string) error {
		args := make([]sqldb.Value, len(chunk))
		for i, n := range chunk {
			args[i] = sqldb.Text(n)
		}
		rows, err := c.db.Query(
			"SELECT "+fileColumns+" FROM logical_file WHERE name IN ("+placeholders(len(chunk))+")", args...)
		if err != nil {
			return err
		}
		for _, row := range rows.Data {
			f := scanFile(row)
			byName[f.Name] = append(byName[f.Name], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	files := make([]File, 0, len(names))
	for _, name := range names {
		vs := byName[name]
		sort.Slice(vs, func(i, j int) bool { return vs[i].Version < vs[j].Version })
		for i := range vs {
			ok, err := c.allowed(c.db, dn, vs[i].ref(), PermRead)
			if err != nil {
				return nil, err
			}
			if ok {
				files = append(files, vs[i])
			}
		}
	}
	return files, nil
}

// ExplainQuery exposes the compiled SQL of a query (diagnostics, tests and
// the ablation benchmarks).
func (c *Catalog) ExplainQuery(q Query) (string, error) {
	sql, _, err := c.compileQuery(q, "", 0)
	return sql, err
}
