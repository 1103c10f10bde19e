package btree

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkInvariants asserts the structural invariants every tree must hold
// however it was built: keys strictly ascending, all leaves at one depth,
// children = items+1 in interior nodes, every node within maxItems, every
// non-root node at or above minItems (the occupancy Delete's rebalancing
// assumes), and the item count equal to Len.
func checkInvariants[K, V any](t *testing.T, tr *Tree[K, V]) {
	t.Helper()
	leafDepth, count := -1, 0
	var prev *K
	var walk func(n *node[K, V], depth int)
	walk = func(n *node[K, V], depth int) {
		if len(n.items) > tr.maxItems {
			t.Fatalf("node holds %d items, max %d", len(n.items), tr.maxItems)
		}
		if n != tr.root && len(n.items) < tr.minItems {
			t.Fatalf("non-root node holds %d items, min %d", len(n.items), tr.minItems)
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf at depth %d, others at %d", depth, leafDepth)
			}
		} else if len(n.children) != len(n.items)+1 {
			t.Fatalf("interior node has %d children for %d items", len(n.children), len(n.items))
		}
		for i := range n.items {
			if !n.leaf() {
				walk(n.children[i], depth+1)
			}
			if prev != nil && !tr.less(*prev, n.items[i].key) {
				t.Fatalf("keys out of order at item %d", count)
			}
			prev = &n.items[i].key
			count++
		}
		if !n.leaf() {
			walk(n.children[len(n.children)-1], depth+1)
		}
	}
	walk(tr.root, 0)
	if count != tr.Len() {
		t.Fatalf("tree holds %d items, Len() = %d", count, tr.Len())
	}
}

// boundarySizes returns 0, 1 and the sizes around every point where a tree
// of the given degree gains a node at some level: the capacities of trees of
// height 0..2 and their neighbours, plus a few sizes in between.
func boundarySizes(degree int) []int {
	m := 2*degree - 1
	sizes := []int{0, 1, 2, degree - 1, degree}
	capacity := m
	for h := 0; h < 3 && capacity < 40000; h++ {
		for d := -2; d <= 2; d++ {
			sizes = append(sizes, capacity+d)
		}
		sizes = append(sizes, capacity+capacity/2, 2*capacity+1, 2*capacity+2)
		capacity = m + (m+1)*capacity
	}
	return sizes
}

func lessInt(a, b int) bool { return a < b }

// sameTree asserts that bulk and ref agree under every read: Len, Min, Max,
// Ascend order and values, Get of every key and of the gaps between keys.
func sameTree(t *testing.T, bulk, ref *Tree[int, int]) {
	t.Helper()
	if bulk.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", bulk.Len(), ref.Len())
	}
	bk, bv, bok := bulk.Min()
	rk, rv, rok := ref.Min()
	if bk != rk || bv != rv || bok != rok {
		t.Fatalf("Min = %d,%d,%v want %d,%d,%v", bk, bv, bok, rk, rv, rok)
	}
	bk, bv, bok = bulk.Max()
	rk, rv, rok = ref.Max()
	if bk != rk || bv != rv || bok != rok {
		t.Fatalf("Max = %d,%d,%v want %d,%d,%v", bk, bv, bok, rk, rv, rok)
	}
	type kv struct{ k, v int }
	var want []kv
	ref.Ascend(func(k, v int) bool { want = append(want, kv{k, v}); return true })
	i := 0
	bulk.Ascend(func(k, v int) bool {
		if i >= len(want) || want[i] != (kv{k, v}) {
			t.Fatalf("Ascend item %d = %d→%d, want %+v", i, k, v, want[min(i, len(want)-1)])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("Ascend visited %d items, want %d", i, len(want))
	}
	for _, e := range want {
		if v, ok := bulk.Get(e.k); !ok || v != e.v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", e.k, v, ok, e.v)
		}
		if _, ok := bulk.Get(e.k + 1); ok { // keys are even; odd ones are gaps
			t.Fatalf("Get(%d) found a key never stored", e.k+1)
		}
	}
}

// TestFromSortedEqualsInsertBuilt is the bulk constructor's property test:
// for sizes at and around every node boundary (and 100k), a tree built
// bottom-up from sorted input reads exactly like one built by insertion and
// holds the structural invariants; it then survives a random Set/Delete/
// Clone mix — invariants asserted after every operation, contents checked
// against a model — without the frozen clone taken first ever changing.
func TestFromSortedEqualsInsertBuilt(t *testing.T) {
	for _, degree := range []int{2, 3, 8, DefaultDegree} {
		sizes := boundarySizes(degree)
		if degree == 8 || degree == DefaultDegree {
			sizes = append(sizes, 100000)
		}
		for _, n := range sizes {
			t.Run(fmt.Sprintf("degree=%d/n=%d", degree, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(degree*1000003 + n)))
				keys := make([]int, n)
				vals := make([]int, n)
				ref := NewDegree[int, int](degree, lessInt)
				for i := range keys {
					keys[i], vals[i] = 2*i, rng.Int()
				}
				for _, i := range rng.Perm(n) {
					ref.Set(keys[i], vals[i])
				}
				bulk := FromSorted(degree, lessInt, keys, vals)
				checkInvariants(t, bulk)
				sameTree(t, bulk, ref)

				// Freeze the bulk-built generation, then churn its clone.
				frozen := bulk
				cur := frozen.Clone()
				model := make(map[int]int, n)
				for i, k := range keys {
					model[k] = vals[i]
				}
				ops := 400
				if n > 20000 {
					ops = 150 // each invariant walk is O(n)
				}
				span := 2*n + 8
				for op := 0; op < ops; op++ {
					k := rng.Intn(span)
					switch rng.Intn(7) {
					case 0, 1, 2:
						v := rng.Int()
						_, had := model[k]
						if cur.Set(k, v) != had {
							t.Fatalf("Set(%d) replaced = %v, want %v", k, !had, had)
						}
						model[k] = v
					case 3, 4, 5:
						_, had := model[k]
						if cur.Delete(k) != had {
							t.Fatalf("Delete(%d) = %v, want %v", k, !had, had)
						}
						delete(model, k)
					default:
						cur = cur.Clone()
					}
					checkInvariants(t, cur)
				}
				if cur.Len() != len(model) {
					t.Fatalf("after churn Len = %d, want %d", cur.Len(), len(model))
				}
				for k, v := range model {
					if got, ok := cur.Get(k); !ok || got != v {
						t.Fatalf("after churn Get(%d) = %d,%v want %d,true", k, got, ok, v)
					}
				}
				// Copy-on-write isolation: the bulk-built generation still
				// reads exactly like the insert-built reference.
				checkInvariants(t, frozen)
				sameTree(t, frozen, ref)
			})
		}
	}
}

// TestFromSortedDrain deletes every key of a bulk-built tree, in random
// order: the packed nodes must merge and rotate their way down to empty like
// any other tree's.
func TestFromSortedDrain(t *testing.T) {
	for _, degree := range []int{2, 3, 8} {
		const n = 3000
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i
		}
		tr := FromSorted[int, struct{}](degree, lessInt, keys, nil)
		for i, k := range rand.New(rand.NewSource(int64(degree))).Perm(n) {
			if !tr.Delete(k) {
				t.Fatalf("degree %d: Delete(%d) missed", degree, k)
			}
			if i%97 == 0 {
				checkInvariants(t, tr)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("degree %d: Len = %d after drain", degree, tr.Len())
		}
	}
}

func TestFromSortedRejectsMismatchedVals(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSorted with len(vals) != len(keys) did not panic")
		}
	}()
	FromSorted(8, lessInt, []int{1, 2, 3}, []int{1})
}

// tagged is a key that carries more than its ordering, like sqldb's index
// entries: ord decides position, tag rides along.
type tagged struct{ ord, tag int }

// TestSetReplacesKey pins the rule sqldb's row-pointer index entries depend
// on: Set under an equal key replaces the stored key itself, wherever the
// old one sits — leaf, interior separator, or the median a split has just
// promoted. The re-Sets are interleaved with fresh inserts so all three
// sites are hit while the tree keeps splitting.
func TestSetReplacesKey(t *testing.T) {
	for _, degree := range []int{2, 3, 8} {
		tr := NewDegree[tagged, int](degree, func(a, b tagged) bool { return a.ord < b.ord })
		rng := rand.New(rand.NewSource(int64(degree)))
		latest := map[int]int{}
		tag := 0
		for round := 0; round < 6000; round++ {
			ord := rng.Intn(1500)
			tag++
			_, had := latest[ord]
			if tr.Set(tagged{ord, tag}, tag) != had {
				t.Fatalf("degree %d: Set(ord %d) replaced = %v, want %v", degree, ord, !had, had)
			}
			latest[ord] = tag
			if round%500 == 0 {
				tr = tr.Clone() // shared nodes: the replacement must copy, not write through
			}
		}
		seen := 0
		tr.Ascend(func(k tagged, v int) bool {
			if k.tag != latest[k.ord] || v != latest[k.ord] {
				t.Fatalf("degree %d: ord %d holds key tag %d / value %d, want %d",
					degree, k.ord, k.tag, v, latest[k.ord])
			}
			seen++
			return true
		})
		if seen != len(latest) {
			t.Fatalf("degree %d: %d keys, want %d", degree, seen, len(latest))
		}
	}
}

// TestAscendFrom checks the comparator-driven seek against AscendGE on
// every possible start position, including before the first key and past
// the last.
func TestAscendFrom(t *testing.T) {
	tr := NewDegree[int, int](3, lessInt)
	for i := 0; i < 400; i++ {
		tr.Set(3*i, i)
	}
	for start := -2; start < 1205; start++ {
		var want, got []int
		tr.AscendGE(start, func(k, _ int) bool { want = append(want, k); return len(want) < 7 })
		tr.AscendFrom(func(k int) bool { return k >= start }, func(k, _ int) bool {
			got = append(got, k)
			return len(got) < 7
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("AscendFrom(>= %d) = %v, want %v", start, got, want)
		}
	}
}

func BenchmarkFromSorted(b *testing.B) {
	const n = 200000
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromSorted[int, struct{}](8, lessInt, keys, nil)
	}
}
