package main

import (
	"fmt"

	"mcs/internal/core"
)

// The oracle: what every reply must be, computed from the file index alone.

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// period is the lcm of the cardinalities of attrs: files i and j agree on
// all of them exactly when i ≡ j (mod period).
func period(attrs []int) int {
	l := 1
	for _, j := range attrs {
		l = l / gcd(l, attrCard[j]) * attrCard[j]
	}
	return l
}

var allAttrs = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// searchPreds is the conjunction "every attribute in attrs equals the value
// file j holds".
func searchPreds(attrs []int, j int) []core.Predicate {
	out := make([]core.Predicate, len(attrs))
	for k, a := range attrs {
		out[k] = core.Predicate{Attribute: attrName(a), Op: core.OpEq, Value: attrValue(a, j%attrCard[a])}
	}
	return out
}

// nameQuery is the lookup "name = <name>".
func nameQuery(name string) core.Query {
	return core.Query{Predicates: []core.Predicate{{Attribute: "name", Op: core.OpEq, Value: core.String(name)}}}
}

// writtenSpec is the createFile request for the n-th file of publisher p.
func writtenSpec(p, n int) core.FileSpec {
	return core.FileSpec{Name: writtenName(p, n), DataType: "binary", Collection: publisherColl(p), Attributes: fileAttrs(n, writtenBase)}
}

// writtenBatch is the batchWrite request creating publisher p's files
// first … first+batchFiles-1.
func writtenBatch(p, first int) []core.BatchOp {
	ops := make([]core.BatchOp, batchFiles)
	for k := range ops {
		spec := writtenSpec(p, first+k)
		ops[k] = core.BatchOp{CreateFile: &spec}
	}
	return ops
}

// progression is the arithmetic result set {first, first+step, …} of n file
// indexes.
type progression struct{ first, step, n int }

func (p progression) at(k int) int { return p.first + k*p.step }

// matches is the set of dataset files that agree with file j on attrs.
func (d dataset) matches(attrs []int, j int) progression {
	step := period(attrs)
	first := j % step
	if first >= d.files {
		return progression{step: step}
	}
	return progression{first: first, step: step, n: (d.files-1-first)/step + 1}
}

// onNode is how many files of p live on one node of a deployment of nodes
// nodes (all of them on a single server).
func (d dataset) onNode(p progression, node, nodes int) int {
	if nodes == 1 {
		return p.n
	}
	n := 0
	for k := 0; k < p.n; k++ {
		if d.shardOfLeaf(p.at(k)/d.perLeaf) == node {
			n++
		}
	}
	return n
}

// checkNames verifies an unordered query reply against a progression by
// count, smallest and largest name.
func (d dataset) checkNames(got []string, want progression) error {
	if len(got) != want.n {
		return fmt.Errorf("got %d names, want %d", len(got), want.n)
	}
	if want.n == 0 {
		return nil
	}
	lo, hi := got[0], got[0]
	for _, n := range got[1:] {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if wlo, whi := d.fileName(want.at(0)), d.fileName(want.at(want.n-1)); lo != wlo || hi != whi {
		return fmt.Errorf("names span %s..%s, want %s..%s", lo, hi, wlo, whi)
	}
	return nil
}

// pageOf says what page number page (0-based) of a paged scan must hold:
// rows [lo, lo+n) of the name-ordered progression, and whether a further
// page is announced. A server cuts its scan every pageRows rows and
// announces a next page whenever one came back full. A router scans shard by
// shard in shard order — which here is name order, s0- before s1- — and
// never fills a page across two shards.
func (d dataset) pageOf(want progression, nodes, page int) (lo, n int, more bool) {
	type chunk struct{ lo, n int }
	var chunks []chunk
	base := 0
	for node := 0; node < nodes; node++ {
		m := d.onNode(want, node, nodes)
		for off := 0; off < m; off += pageRows {
			chunks = append(chunks, chunk{base + off, min(pageRows, m-off)})
		}
		base += m
	}
	if len(chunks) == 0 || chunks[len(chunks)-1].n == pageRows {
		chunks = append(chunks, chunk{base, 0}) // the empty page that ends a scan of full pages
	}
	if page >= len(chunks) {
		return base, 0, false
	}
	return chunks[page].lo, chunks[page].n, page < len(chunks)-1
}

// checkPage verifies one page of a paged scan: its length, first and last
// row, and whether a next page is announced.
func (d dataset) checkPage(got []string, next string, want progression, nodes, page int) error {
	lo, n, more := d.pageOf(want, nodes, page)
	if len(got) != n {
		return fmt.Errorf("page %d has %d rows, want %d", page, len(got), n)
	}
	if n > 0 {
		if wf, wl := d.fileName(want.at(lo)), d.fileName(want.at(lo+n-1)); got[0] != wf || got[n-1] != wl {
			return fmt.Errorf("page %d spans %s..%s, want %s..%s", page, got[0], got[n-1], wf, wl)
		}
	}
	if (next != "") != more {
		return fmt.Errorf("page %d: next token %q after %d rows, want more=%v", page, next, n, more)
	}
	return nil
}

// checkAttrs verifies a getAttributes reply (sorted by name) against the
// expected value index of each attribute.
func checkAttrs(got []core.Attribute, want [numAttrs]int) error {
	if len(got) != numAttrs {
		return fmt.Errorf("got %d attributes, want %d", len(got), numAttrs)
	}
	for j, a := range got {
		w := attrValue(j, want[j])
		if a.Name != attrName(j) || a.Value.Type != w.Type || a.Value.Render() != w.Render() {
			return fmt.Errorf("attribute %d is %s=%s, want %s=%s", j, a.Name, a.Value.Render(), attrName(j), w.Render())
		}
	}
	return nil
}

// datasetAttrs is the value index of every attribute of dataset file i.
func datasetAttrs(i int) (v [numAttrs]int) {
	for j := range v {
		v[j] = i % attrCard[j]
	}
	return v
}

// writtenAttrs is the value index of every attribute of the n-th file a
// client registered, before any setAttribute.
func writtenAttrs(n int) (v [numAttrs]int) {
	for j := range v {
		v[j] = writtenBase + n%attrCard[j]
	}
	return v
}

// setAttrTarget is the attribute and value index a setAttribute op writes.
func setAttrTarget(o op) (attr, value int) {
	return int(o.b) % numAttrs, writtenBase + 1000 + int(o.b)
}

func checkFile(f core.File, name, creator string) error {
	if f.Name != name || f.Version != 1 || f.DataType != "binary" || !f.Valid || f.Creator != creator {
		return fmt.Errorf("file reply %+v, want name %s version 1 creator %s", f, name, creator)
	}
	return nil
}
