package sqldb

import "sync/atomic"

// String interning for hot TEXT values.
//
// The MCS schema stores a small, heavily repeated vocabulary as TEXT:
// attribute names and types in user_attribute rows, data types and creators
// in logical_file rows, operation names in audit rows. Every row insert used
// to carry its own copy of each such string (the parser and wire decoders
// allocate fresh ones per statement), so a table of a million files held a
// million copies of "owner". Interning collapses those to one shared string
// per distinct value, which both shrinks the heap and makes the later
// Compare calls on index probes likelier to short-circuit on pointer-equal
// string headers.
//
// The table is a fixed-size direct-mapped cache probed lock-free with
// atomics: a hit returns the shared copy. A miss publishes the new string
// only the second time its hash is seen in that slot: the first time the
// slot remembers the hash alone. One-off strings (idempotency keys, replay
// records) then cost nothing beyond the string itself and do not evict the
// vocabulary, while a repeated value is shared from its second sighting on.
// No locks, no growth, no eviction scans — worst case (all-distinct
// strings) it degrades to two atomic operations per call. It is safe for
// concurrent use: the snapshot's decode workers call it side by side.

const (
	internSlots  = 4096
	internMaxLen = 64
)

// internSlot holds a published string and the hash of the last string seen
// there that was not published.
type internSlot struct {
	s    atomic.Pointer[string]
	seen atomic.Uint32
}

var internTab [internSlots]internSlot

// Intern returns a canonical copy of s, deduplicating recently seen strings.
// Long strings (URLs, free-text descriptions) pass through untouched: they
// rarely repeat and would only thrash the table.
func Intern(s string) string {
	if len(s) == 0 || len(s) > internMaxLen {
		return s
	}
	h := internHash(s)
	slot := &internTab[h%internSlots]
	if p := slot.s.Load(); p != nil && *p == s {
		return *p
	}
	slot.publish(h, s)
	return s
}

// internBytes is Intern for a byte slice: on a hit it returns the shared
// string without allocating a conversion copy, which is the common case when
// decoding WAL records and wire requests that repeat schema vocabulary.
func internBytes(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := internHashBytes(b)
	slot := &internTab[h%internSlots]
	if p := slot.s.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.publish(h, s)
	return s
}

// publish files s, of hash h, in the slot if h is the hash the slot saw
// last; otherwise it only remembers h.
func (slot *internSlot) publish(h uint32, s string) {
	if slot.seen.Swap(h) == h {
		p := new(string)
		*p = s
		slot.s.Store(p)
	}
}

// internHash is FNV-1a; inlined rather than hash/fnv to avoid the
// hash.Hash64 interface allocation on this very hot path.
func internHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func internHashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}
