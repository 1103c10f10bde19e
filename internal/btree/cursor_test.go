package btree

import (
	"math/rand"
	"slices"
	"testing"
)

// seekRef is the reference a cursor seek is held to: the first key of the
// sorted keys at or after from that is >= target, and its index.
func seekRef(keys []int, from, target int) (int, bool) {
	i := from + lowerBoundInts(keys[from:], target)
	return i, i < len(keys)
}

func lowerBoundInts(keys []int, target int) int {
	i, _ := slices.BinarySearch(keys, target)
	return i
}

// TestCursorSeekAfterDeletesInClone walks a cloned tree, with deletes applied
// to the clone only, by random ascending seeks and steps: each must land
// where a binary search of the clone's sorted keys says, while the original
// keeps every key.
func TestCursorSeekAfterDeletesInClone(t *testing.T) {
	for _, degree := range []int{2, 3, 8, 32} {
		rng := rand.New(rand.NewSource(int64(degree)))
		orig := NewDegree[int, int](degree, func(a, b int) bool { return a < b })
		for _, k := range rng.Perm(3000) {
			orig.Set(k*2, k) // even keys, so odd targets fall between items
		}
		clone := orig.Clone()
		var keys []int
		for k := 0; k < 6000; k += 2 {
			if rng.Intn(3) == 0 {
				clone.Delete(k)
			} else {
				keys = append(keys, k)
			}
		}
		for round := 0; round < 50; round++ {
			c := clone.Cursor()
			pos, target := -1, -5 // pos: index in keys of the cursor's item
			for {
				if rng.Intn(4) == 0 {
					if !c.Next() {
						if pos+1 != len(keys) {
							t.Fatalf("degree %d: Next ended after %d of %d", degree, pos+1, len(keys))
						}
						break
					}
					if pos++; c.Key() != keys[pos] {
						t.Fatalf("degree %d: Next gave %d, want %d", degree, c.Key(), keys[pos])
					}
					target = c.Key()
					continue
				}
				target += rng.Intn(40)
				want, ok := seekRef(keys, max(pos, 0), target)
				tg := target
				if got := c.Seek(func(k int) bool { return k >= tg }); got != ok {
					t.Fatalf("degree %d: seek %d found %v, want %v", degree, target, got, ok)
				}
				if !ok {
					break
				}
				if c.Key() != keys[want] || c.Value() != keys[want]/2 {
					t.Fatalf("degree %d: seek %d landed on %d, want %d", degree, target, c.Key(), keys[want])
				}
				pos = want
			}
		}
		if orig.Len() != 3000 {
			t.Fatalf("the original lost keys: %d", orig.Len())
		}
	}
}

// TestCursorSeekEdges pins the three edge cases: a seek to the current key
// stays, a seek behind the cursor stays, and a seek past the end reports
// false and keeps reporting it, for Next too, until Reset.
func TestCursorSeekEdges(t *testing.T) {
	tr := NewDegree[int, struct{}](2, func(a, b int) bool { return a < b })
	for k := 0; k < 100; k++ {
		tr.Set(k*10, struct{}{})
	}
	c := tr.Cursor()
	at := func(k int) func(int) bool { return func(x int) bool { return x >= k } }
	if !c.Seek(at(255)) || c.Key() != 260 {
		t.Fatalf("seek 255: %v", c.Key())
	}
	if !c.Seek(at(260)) || c.Key() != 260 {
		t.Fatal("a seek to the current key moved the cursor")
	}
	if !c.Seek(at(0)) || c.Key() != 260 {
		t.Fatal("a seek behind the cursor moved it")
	}
	if !c.Next() || c.Key() != 270 {
		t.Fatal("Next after a seek")
	}
	if c.Seek(at(991)) {
		t.Fatalf("seek past the end found %d", c.Key())
	}
	if c.Seek(at(0)) || c.Next() {
		t.Fatal("a cursor at the end moved")
	}
	c.Reset()
	if !c.Seek(at(0)) || c.Key() != 0 {
		t.Fatal("Reset did not return the cursor to the root")
	}
	if !c.Seek(at(990)) || c.Key() != 990 || c.Next() {
		t.Fatal("the last key")
	}
	empty := NewDegree[int, struct{}](2, func(a, b int) bool { return a < b }).Cursor()
	if empty.Seek(at(0)) || empty.Next() {
		t.Fatal("a cursor over an empty tree found an item")
	}
}

// TestCursorNextVisitsInOrder checks that Next alone visits every key once,
// in order, at every degree.
func TestCursorNextVisitsInOrder(t *testing.T) {
	for _, degree := range []int{2, 5, 32} {
		tr := NewDegree[int, struct{}](degree, func(a, b int) bool { return a < b })
		for _, k := range rand.New(rand.NewSource(1)).Perm(2000) {
			tr.Set(k, struct{}{})
		}
		c := tr.Cursor()
		n := 0
		for c.Next() {
			if c.Key() != n {
				t.Fatalf("degree %d: item %d is %d", degree, n, c.Key())
			}
			n++
		}
		if n != 2000 {
			t.Fatalf("degree %d: visited %d", degree, n)
		}
	}
}
