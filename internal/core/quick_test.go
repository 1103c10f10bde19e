package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property-based tests over catalog invariants.

// TestQuickUniqueAttrQueryFindsExactlyOne: for any set of files each tagged
// with a unique integer attribute, querying that value returns exactly that
// file.
func TestQuickUniqueAttrQueryFindsExactlyOne(t *testing.T) {
	c := openCatalog(t)
	if _, err := c.DefineAttribute(alice, "uid", AttrInt, ""); err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		base := rng.Int63n(1 << 40)
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("q-%d-%d", seed, i)
			if _, err := c.CreateFile(alice, FileSpec{
				Name:       names[i],
				Attributes: []Attribute{{Name: "uid", Value: Int(base + int64(i))}},
			}); err != nil {
				return false
			}
		}
		defer func() {
			for _, name := range names {
				c.DeleteFile(alice, name, 0) //nolint:errcheck
			}
		}()
		for i := 0; i < n; i++ {
			got, err := c.RunQuery(alice, Query{Predicates: []Predicate{
				{Attribute: "uid", Op: OpEq, Value: Int(base + int64(i))},
			}})
			if err != nil || len(got) != 1 || got[0] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeQueryMatchesFilter: a range predicate returns exactly the
// files whose attribute satisfies it.
func TestQuickRangeQueryMatchesFilter(t *testing.T) {
	c := openCatalog(t)
	if _, err := c.DefineAttribute(alice, "val", AttrFloat, ""); err != nil {
		t.Fatal(err)
	}
	vals := []float64{-3.5, -1, 0, 0.5, 2, 2, 7.25, 100}
	for i, v := range vals {
		if _, err := c.CreateFile(alice, FileSpec{
			Name:       fmt.Sprintf("r-%02d", i),
			Attributes: []Attribute{{Name: "val", Value: Float(v)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	f := func(threshold float64) bool {
		if threshold != threshold { // NaN
			return true
		}
		got, err := c.RunQuery(alice, Query{Predicates: []Predicate{
			{Attribute: "val", Op: OpGt, Value: Float(threshold)},
		}})
		if err != nil {
			return false
		}
		want := 0
		for _, v := range vals {
			if v > threshold {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetAttributeLastWriteWins: any sequence of Set calls on the same
// attribute leaves exactly the final value.
func TestQuickSetAttributeLastWriteWins(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "s", AttrString, "") //nolint:errcheck
	c.CreateFile(alice, FileSpec{Name: "f"})      //nolint:errcheck
	f := func(writes []string) bool {
		if len(writes) == 0 {
			return true
		}
		for _, w := range writes {
			if err := c.SetAttribute(alice, ObjectFile, "f", "s", String(w)); err != nil {
				return false
			}
		}
		attrs, err := c.GetAttributes(alice, ObjectFile, "f")
		if err != nil || len(attrs) != 1 {
			return false
		}
		return attrs[0].Value.S == writes[len(writes)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCollectionChainNeverCycles: random sequences of re-parenting
// operations never produce a cycle (rejected moves leave the tree intact).
func TestQuickCollectionChainNeverCycles(t *testing.T) {
	c := openCatalog(t)
	const n = 8
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("qc-%d", i)
		if _, err := c.CreateCollection(alice, CollectionSpec{Name: names[i]}); err != nil {
			t.Fatal(err)
		}
	}
	f := func(moves []uint8) bool {
		for _, m := range moves {
			child := names[int(m)%n]
			parent := names[int(m/16)%n]
			// The call either succeeds or reports a cycle; both are fine.
			c.SetCollectionParent(alice, child, parent) //nolint:errcheck
		}
		// Invariant: walking up from any collection terminates.
		tree, err := c.collectionTree(c.db)
		if err != nil {
			return false
		}
		for _, name := range names {
			col, err := c.GetCollection(alice, name)
			if err != nil {
				return false
			}
			if _, err := tree.walkUp(col.ID, func(int64) bool { return false }); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVersionsMonotonic: repeated creates of the same name assign
// strictly increasing versions, and every version is fetchable.
func TestQuickVersionsMonotonic(t *testing.T) {
	c := openCatalog(t)
	f := func(nRaw uint8) bool {
		n := int(nRaw%5) + 2
		name := fmt.Sprintf("ver-%d-%d", nRaw, time.Now().UnixNano())
		for i := 1; i <= n; i++ {
			fl, err := c.CreateFile(alice, FileSpec{Name: name})
			if err != nil || fl.Version != i {
				return false
			}
		}
		vs, err := c.FileVersions(alice, name)
		if err != nil || len(vs) != n {
			return false
		}
		for i, v := range vs {
			if v.Version != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddDeleteLeavesNoResidue: create-with-attributes then delete
// always returns the catalog to its prior row counts.
func TestQuickAddDeleteLeavesNoResidue(t *testing.T) {
	c := openCatalog(t)
	c.DefineAttribute(alice, "k1", AttrString, "") //nolint:errcheck
	c.DefineAttribute(alice, "k2", AttrInt, "")    //nolint:errcheck
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	f := func(name string, v int64) bool {
		if name == "" {
			return true
		}
		full := fmt.Sprintf("res-%x-%d", name, v)
		if _, err := c.CreateFile(alice, FileSpec{
			Name: full,
			Attributes: []Attribute{
				{Name: "k1", Value: String(name)},
				{Name: "k2", Value: Int(v)},
			},
			Provenance: "residue test",
		}); err != nil {
			return false
		}
		if _, err := c.Annotate(alice, ObjectFile, full, "tmp"); err != nil {
			return false
		}
		if err := c.DeleteFile(alice, full, 0); err != nil {
			return false
		}
		after, err := c.Stats()
		return err == nil && after == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
