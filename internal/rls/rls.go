// Package rls implements a Replica Location Service in the style of the
// Giggle framework (Chervenak et al., SC 2002), the companion service the
// MCS paper federates with: Local Replica Catalogs (LRCs) map logical file
// names to physical locations, and Replica Location Indices (RLIs) answer
// "which LRCs know this logical name" using soft-state summaries — either
// full name lists or compressed bloom filters — that expire unless
// refreshed.
package rls

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mcs/internal/bloom"
)

// LRC is a Local Replica Catalog: authoritative logical-name → physical-
// file-name mappings for one site.
type LRC struct {
	// Name identifies this LRC in RLI indexes (typically its endpoint URL).
	Name string

	mu       sync.RWMutex
	mappings map[string]map[string]bool // lfn -> set of pfns
}

// NewLRC returns an empty local replica catalog.
func NewLRC(name string) *LRC {
	return &LRC{Name: name, mappings: make(map[string]map[string]bool)}
}

// Add registers a physical replica of a logical file.
func (l *LRC) Add(lfn, pfn string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	set, ok := l.mappings[lfn]
	if !ok {
		set = make(map[string]bool)
		l.mappings[lfn] = set
	}
	set[pfn] = true
}

// Remove deletes one replica mapping; it reports whether it existed.
func (l *LRC) Remove(lfn, pfn string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	set, ok := l.mappings[lfn]
	if !ok || !set[pfn] {
		return false
	}
	delete(set, pfn)
	if len(set) == 0 {
		delete(l.mappings, lfn)
	}
	return true
}

// Lookup returns the physical locations of a logical file at this site,
// sorted for determinism.
func (l *LRC) Lookup(lfn string) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	set := l.mappings[lfn]
	pfns := make([]string, 0, len(set))
	for pfn := range set {
		pfns = append(pfns, pfn)
	}
	sort.Strings(pfns)
	return pfns
}

// LFNs returns every logical name with at least one replica here.
func (l *LRC) LFNs() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.mappings))
	for lfn := range l.mappings {
		out = append(out, lfn)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of logical names mapped here.
func (l *LRC) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.mappings)
}

// Summary builds a bloom-filter summary of this LRC's logical names for a
// compressed soft-state update.
func (l *LRC) Summary(fpRate float64) *bloom.Filter {
	l.mu.RLock()
	defer l.mu.RUnlock()
	b := bloom.New(len(l.mappings)+1, fpRate)
	for lfn := range l.mappings {
		b.Add(lfn)
	}
	return b
}

// lrcState is what an RLI knows about one LRC.
type lrcState struct {
	full    map[string]bool // nil when a bloom summary is in use
	bloom   *bloom.Filter
	expires time.Time
}

// RLI is a Replica Location Index: it answers "which LRCs may know this
// logical name" from soft-state summaries that expire unless refreshed.
type RLI struct {
	mu      sync.RWMutex
	entries map[string]*lrcState
	clock   func() time.Time
}

// NewRLI returns an empty index.
func NewRLI() *RLI { return &RLI{entries: make(map[string]*lrcState), clock: time.Now} }

// SetClock overrides the clock (tests).
func (r *RLI) SetClock(fn func() time.Time) { r.clock = fn }

// UpdateFull replaces the index's knowledge of lrc with a full name list.
func (r *RLI) UpdateFull(lrc string, lfns []string, ttl time.Duration) {
	set := make(map[string]bool, len(lfns))
	for _, lfn := range lfns {
		set[lfn] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[lrc] = &lrcState{full: set, expires: r.clock().Add(ttl)}
}

// UpdateBloom replaces the index's knowledge of lrc with a bloom summary.
func (r *RLI) UpdateBloom(lrc string, b *bloom.Filter, ttl time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[lrc] = &lrcState{bloom: b, expires: r.clock().Add(ttl)}
}

// Query returns the names of the LRCs that may hold replicas of lfn.
// Bloom-backed answers can include false positives; clients resolve them by
// querying the LRC (exactly Giggle's contract).
func (r *RLI) Query(lfn string) []string {
	now := r.clock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, st := range r.entries {
		if now.After(st.expires) {
			continue
		}
		switch {
		case st.full != nil:
			if st.full[lfn] {
				out = append(out, name)
			}
		case st.bloom != nil:
			if st.bloom.Test(lfn) {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Expire drops entries whose TTL has lapsed; it returns how many were
// removed. Query already ignores expired entries, so calling Expire is an
// optimization, not a correctness requirement.
func (r *RLI) Expire() int {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name, st := range r.entries {
		if now.After(st.expires) {
			delete(r.entries, name)
			n++
		}
	}
	return n
}

// KnownLRCs lists the LRC names with unexpired state.
func (r *RLI) KnownLRCs() []string {
	now := r.clock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, st := range r.entries {
		if !now.After(st.expires) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Updater pushes periodic soft-state summaries from an LRC to RLIs, the
// Giggle soft-state protocol. Push targets are abstract so the same
// machinery drives in-process and HTTP-connected RLIs.
type Updater struct {
	LRC *LRC
	// TTL each update carries.
	TTL time.Duration
	// Interval between pushes; should be < TTL.
	Interval time.Duration
	// Bloom selects compressed updates at the given false-positive rate;
	// 0 sends full name lists.
	BloomFP float64
	// Push delivers one update; set by the caller.
	Push func(lrcName string, lfns []string, summary *bloom.Filter, ttl time.Duration) error

	stop chan struct{}
	done chan struct{}
}

// Start begins periodic pushes (and pushes once immediately).
func (u *Updater) Start() error {
	if u.Push == nil {
		return fmt.Errorf("rls: Updater.Push not set")
	}
	if u.TTL <= 0 {
		u.TTL = 30 * time.Second
	}
	if u.Interval <= 0 {
		u.Interval = u.TTL / 3
	}
	if err := u.pushOnce(); err != nil {
		return err
	}
	u.stop = make(chan struct{})
	u.done = make(chan struct{})
	go func() {
		defer close(u.done)
		ticker := time.NewTicker(u.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-u.stop:
				return
			case <-ticker.C:
				u.pushOnce() //nolint:errcheck // soft state tolerates lost updates
			}
		}
	}()
	return nil
}

func (u *Updater) pushOnce() error {
	if u.BloomFP > 0 {
		return u.Push(u.LRC.Name, nil, u.LRC.Summary(u.BloomFP), u.TTL)
	}
	return u.Push(u.LRC.Name, u.LRC.LFNs(), nil, u.TTL)
}

// Stop halts the updater and waits for the push loop to exit; it is safe
// to call more than once.
func (u *Updater) Stop() {
	if u.stop == nil {
		return
	}
	select {
	case <-u.stop: // already closed
	default:
		close(u.stop)
	}
	<-u.done
}
