package main

import (
	"bytes"
	"fmt"
	"time"

	"mcs/internal/core"
)

// Dataset D20k. Everything a workload may ask about it is arithmetic on the
// file index, which is what lets the oracle check every reply without a
// second copy of the catalog: file i sits in leaf collection i/perLeaf, the
// first half of the leaves hangs under s0-top and the second under s1-top,
// and attribute aJJ holds value index i mod card[JJ].
const (
	numTops   = 2
	numAttrs  = 10
	loadBatch = 100 // ops per BatchWrite while loading

	ownerDN  = "/O=Grid/CN=bench-owner"
	readerDN = "/O=Grid/CN=bench-reader"

	// writtenBase offsets the value index of every attribute a workload
	// writes, so no written file can ever match a query over dataset values
	// and read answers stay exact under concurrent writes.
	writtenBase = 100000
)

// attrCard is the value cardinality of a00..a09. The spread (2 … 1000) is
// what makes predicate order matter to the planner; the lcm is 1000, so any
// conjunction containing a05 matches exactly the files i ≡ j (mod 1000).
var attrCard = [numAttrs]int{2, 10, 50, 50, 200, 1000, 50, 50, 50, 50}

// attrTypes is the paper's type cycle over the ten attributes.
var attrTypes = [numAttrs]core.AttrType{
	core.AttrString, core.AttrString, core.AttrFloat, core.AttrInt, core.AttrDateTime,
	core.AttrString, core.AttrString, core.AttrFloat, core.AttrInt, core.AttrDateTime,
}

var attrEpoch = time.Date(2003, 11, 15, 0, 0, 0, 0, time.UTC)

// dataset fixes the size: D20k is 20 leaf collections of 1,000 files. Tests
// use a smaller one of the same shape.
type dataset struct {
	files, perLeaf int
}

var d20k = dataset{files: 20000, perLeaf: 1000}

func (d dataset) leaves() int { return d.files / d.perLeaf }

func attrName(j int) string { return fmt.Sprintf("a%02d", j) }

// attrValue renders value index x of attribute j in that attribute's type.
func attrValue(j, x int) core.AttrValue {
	switch attrTypes[j] {
	case core.AttrString:
		return core.String(fmt.Sprintf("v%06d", x))
	case core.AttrFloat:
		return core.Float(float64(x) + 0.5)
	case core.AttrInt:
		return core.Int(int64(x))
	default:
		return core.DateTime(attrEpoch.Add(time.Duration(x) * time.Hour))
	}
}

// fileAttrs is the attribute set of a file whose value indexes derive from
// idx, shifted by base (0 for dataset files, writtenBase for written ones).
func fileAttrs(idx, base int) []core.Attribute {
	out := make([]core.Attribute, numAttrs)
	for j := 0; j < numAttrs; j++ {
		out[j] = core.Attribute{Name: attrName(j), Value: attrValue(j, base+idx%attrCard[j])}
	}
	return out
}

// shardOfLeaf maps a leaf collection to the shard whose prefix it carries.
func (d dataset) shardOfLeaf(leaf int) int { return leaf * numTops / d.leaves() }

func topName(s int) string { return fmt.Sprintf("s%d-top", s) }

func (d dataset) leafName(leaf int) string {
	return fmt.Sprintf("s%d-leaf-%02d", d.shardOfLeaf(leaf), leaf)
}

// fileName is the logical name of dataset file i. Names sort in index
// order (s0- before s1-, then zero-padded), so "first" and "last" of any
// arithmetic result set are its smallest and largest index.
func (d dataset) fileName(i int) string {
	return fmt.Sprintf("s%d-f-%05d", d.shardOfLeaf(i/d.perLeaf), i)
}

// Each client publishes under its own DN into its own root collection, on
// the shard p mod 2 so the sharded deployment splits writers evenly.
func publisherDN(p int) string   { return fmt.Sprintf("/O=Grid/CN=bench-publisher-%d", p) }
func publisherColl(p int) string { return fmt.Sprintf("s%d-pub-%d", p%numTops, p) }

// writtenName is the n-th file client p registers.
func writtenName(p, n int) string { return fmt.Sprintf("s%d-w%d-%07d", p%numTops, p, n) }

// build loads the slice of the dataset that belongs on one shard (shard < 0
// loads everything) into a fresh catalog and returns its snapshot. Attribute
// definitions, grants and publisher collections follow the same split the
// router would have produced: definitions and service-level grants on every
// shard, collections on the shard their prefix names.
func (d dataset) build(shard, publishers int) ([]byte, error) {
	cat, err := core.Open(core.Options{Owner: ownerDN, EnforceAuthz: true})
	if err != nil {
		return nil, err
	}
	here := func(s int) bool { return shard < 0 || s == shard }
	for j := 0; j < numAttrs; j++ {
		if _, err := cat.DefineAttribute(ownerDN, attrName(j), attrTypes[j], "benchmark attribute"); err != nil {
			return nil, err
		}
	}
	for s := 0; s < numTops; s++ {
		if !here(s) {
			continue
		}
		if _, err := cat.CreateCollection(ownerDN, core.CollectionSpec{Name: topName(s)}); err != nil {
			return nil, err
		}
		// The reader's only grant: files are reached through the ancestor
		// chain, never by a grant of their own.
		if err := cat.Grant(ownerDN, core.ObjectCollection, topName(s), readerDN, core.PermRead); err != nil {
			return nil, err
		}
	}
	for leaf := 0; leaf < d.leaves(); leaf++ {
		if !here(d.shardOfLeaf(leaf)) {
			continue
		}
		if _, err := cat.CreateCollection(ownerDN, core.CollectionSpec{
			Name: d.leafName(leaf), Parent: topName(d.shardOfLeaf(leaf)),
		}); err != nil {
			return nil, err
		}
	}
	for p := 0; p < publishers; p++ {
		if err := cat.Grant(ownerDN, core.ObjectService, "", publisherDN(p), core.PermCreate); err != nil {
			return nil, err
		}
		if !here(p % numTops) {
			continue
		}
		if _, err := cat.CreateCollection(ownerDN, core.CollectionSpec{Name: publisherColl(p)}); err != nil {
			return nil, err
		}
		for _, perm := range []core.Permission{core.PermRead, core.PermWrite} {
			if err := cat.Grant(ownerDN, core.ObjectCollection, publisherColl(p), publisherDN(p), perm); err != nil {
				return nil, err
			}
		}
	}
	ops := make([]core.BatchOp, 0, loadBatch)
	flush := func() error {
		if len(ops) == 0 {
			return nil
		}
		_, err := cat.BatchWrite(ownerDN, ops)
		ops = ops[:0]
		return err
	}
	for i := 0; i < d.files; i++ {
		leaf := i / d.perLeaf
		if !here(d.shardOfLeaf(leaf)) {
			continue
		}
		ops = append(ops, core.BatchOp{CreateFile: &core.FileSpec{
			Name: d.fileName(i), DataType: "binary", Collection: d.leafName(leaf),
			Attributes: fileAttrs(i, 0),
		}})
		if len(ops) == loadBatch {
			if err := flush(); err != nil {
				return nil, fmt.Errorf("load batch ending at file %d: %w", i, err)
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cat.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
