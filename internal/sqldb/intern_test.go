package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestInternSharesFromTheSecondSighting pins the doorkeeper: a text seen
// once is not published (a one-off key must not evict the vocabulary), the
// second sighting publishes it, and later copies share its bytes. Many
// goroutines interning one vocabulary side by side, as the snapshot's
// decode workers do, keep the table consistent under the race detector.
func TestInternSharesFromTheSecondSighting(t *testing.T) {
	text := func() string { return strings.Repeat("intern-", 1) + "doorkeeper" } // a fresh copy each call
	first, second, third := text(), text(), text()
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if got := Intern(first); !same(got, first) {
		t.Fatal("the first sighting returned another copy")
	}
	if got := Intern(second); !same(got, second) {
		t.Fatal("the second sighting returned another copy")
	}
	if got := internBytes([]byte(third)); !same(got, second) {
		t.Fatal("the third sighting did not share the copy the second published")
	}

	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				s := fmt.Sprintf("vocab-%d", (i+w)%50)
				if got := Intern(s); got != s {
					t.Errorf("Intern(%q) = %q", s, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
