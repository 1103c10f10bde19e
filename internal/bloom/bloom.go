// Package bloom is a fixed-size bloom filter with a JSON encoding: the
// soft-state summary structure under both the catalog's discovery summary
// (internal/federation) and the Replica Location Service's compressed
// updates (internal/rls).
package bloom

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// Filter is a fixed-size bloom filter with k independent hash functions.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
}

// New sizes a filter for n expected entries at false-positive rate p.
func New(n int, p float64) *Filter {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// hashPair derives two independent 64-bit hashes of s (Kirsch–Mitzenmacher
// double hashing drives the k probes).
func hashPair(s string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(s)) //nolint:errcheck // fnv never fails
	a := h1.Sum64()
	h2 := fnv.New64()
	h2.Write([]byte(s)) //nolint:errcheck // fnv never fails
	h2.Write([]byte{0x9e, 0x37})
	b := h2.Sum64() | 1 // odd so probes cover the space
	return a, b
}

// Add inserts s into the filter.
func (f *Filter) Add(s string) {
	h1, h2 := hashPair(s)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// Test reports whether s may be in the filter (false positives possible,
// false negatives impossible).
func (f *Filter) Test(s string) bool {
	h1, h2 := hashPair(s)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}

// filterWire is the JSON encoding of a filter.
type filterWire struct {
	M    uint64 `json:"m"`
	K    int    `json:"k"`
	Bits string `json:"bits"` // base64 of little-endian words
}

// MarshalJSON encodes the filter for soft-state transport.
func (f *Filter) MarshalJSON() ([]byte, error) {
	raw := make([]byte, len(f.bits)*8)
	for i, w := range f.bits {
		for j := 0; j < 8; j++ {
			raw[i*8+j] = byte(w >> (8 * j))
		}
	}
	return json.Marshal(filterWire{M: f.m, K: f.k, Bits: base64.StdEncoding.EncodeToString(raw)})
}

// UnmarshalJSON decodes a filter. The input comes from another host, so it
// is refused unless every probe Test can make lands inside the decoded
// words: whole 64-bit words, at least m bits of them.
func (f *Filter) UnmarshalJSON(data []byte) error {
	var w filterWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(w.Bits)
	if err != nil {
		return fmt.Errorf("bloom: decode bits: %w", err)
	}
	if w.M == 0 || w.K < 1 || w.K > 64 || len(raw)%8 != 0 || uint64(len(raw))*8 < w.M {
		return fmt.Errorf("bloom: malformed filter")
	}
	f.m = w.M
	f.k = w.K
	f.bits = make([]uint64, len(raw)/8)
	for i := range f.bits {
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(raw[i*8+j]) << (8 * j)
		}
		f.bits[i] = v
	}
	return nil
}
