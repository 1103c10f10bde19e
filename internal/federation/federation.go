// Package federation is the soft-state discovery summary of the paper's
// "Summary and Future Directions" (section 9): self-consistent local
// metadata catalogs publish periodic summaries of their discovery
// information, and an aggregating index screens queries through them before
// subquerying the catalogs — the Replica Location Service's design lifted to
// descriptive metadata. The aggregating index is the shard router
// (internal/shard), which pulls these summaries; this package owns the
// summary itself: building one from a catalog, its wire format, and the
// screening test.
//
// A summary carries a bloom filter over the catalog's (attribute, value)
// bindings plus the plain set of attribute names it defines: equality
// predicates are screened through the filter, while inequality/LIKE
// predicates (whose value sets cannot be enumerated) only require the
// attribute to be present. Screening therefore never produces false
// negatives — a catalog it rules out cannot match — and a false positive
// costs one wasted subquery, resolved by the local catalog itself.
package federation

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sort"

	"mcs/internal/bloom"
	"mcs/internal/core"
	"mcs/internal/mcswire"
)

// pairKey canonicalizes an (attribute, value) binding for the bloom filter.
func pairKey(attr, value string) string {
	return fmt.Sprintf("%d:%s=%s", len(attr), attr, value)
}

// Summary is one local catalog's soft-state discovery summary.
type Summary struct {
	// Pairs is a bloom filter over pairKey(attr, value) for every
	// user-defined attribute binding on logical files.
	Pairs *bloom.Filter
	// Attrs lists the attribute names the catalog defines.
	Attrs map[string]bool
	// Objects counts the summarized bindings (diagnostics).
	Objects int
}

// Summarize builds a summary of a local catalog at false-positive rate fp.
func Summarize(cat *core.Catalog, fp float64) (*Summary, error) {
	st, err := cat.Stats()
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Pairs: bloom.New(st.Attributes+1, fp),
		Attrs: make(map[string]bool),
	}
	defs, err := cat.ListAttributeDefs()
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		s.Attrs[d.Name] = true
	}
	err = cat.AttributePairs(core.ObjectFile, func(attr, value string) bool {
		s.Pairs.Add(pairKey(attr, value))
		s.Objects++
		return true
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Encode puts the summary on the wire: attribute names sorted, the bloom
// filter as base64 of its JSON encoding (so the same payload is legal in
// both the XML and JSON bodies). Routers and shards of different versions
// exchange these bytes, so they must not change.
func (s *Summary) Encode() (*mcswire.DiscoverySummaryResponse, error) {
	bloomJSON, err := json.Marshal(s.Pairs)
	if err != nil {
		return nil, err
	}
	attrs := make([]string, 0, len(s.Attrs))
	for name := range s.Attrs {
		attrs = append(attrs, name)
	}
	sort.Strings(attrs)
	return &mcswire.DiscoverySummaryResponse{
		Attrs:   attrs,
		Pairs:   base64.StdEncoding.EncodeToString(bloomJSON),
		Objects: s.Objects,
	}, nil
}

// Decode reads a summary off the wire. The reply comes from another host:
// a bloom filter that is not well formed is refused with an error.
func Decode(resp *mcswire.DiscoverySummaryResponse) (*Summary, error) {
	raw, err := base64.StdEncoding.DecodeString(resp.Pairs)
	if err != nil {
		return nil, fmt.Errorf("decode summary bloom: %w", err)
	}
	pairs := &bloom.Filter{}
	if err := json.Unmarshal(raw, pairs); err != nil {
		return nil, fmt.Errorf("decode summary bloom: %w", err)
	}
	attrs := make(map[string]bool, len(resp.Attrs))
	for _, a := range resp.Attrs {
		attrs[a] = true
	}
	return &Summary{Pairs: pairs, Attrs: attrs, Objects: resp.Objects}, nil
}

// staticAttrs are the predefined attribute names that every catalog can
// answer (the summary cannot screen them).
var staticAttrs = map[string]bool{
	"name": true, "version": true, "dataType": true, "creator": true,
	"lastModifier": true, "containerId": true, "containerService": true,
	"masterCopy": true, "created": true, "modified": true, "valid": true,
	"collectionId": true,
}

// MayMatch reports whether the summarized catalog may hold objects matching
// q. Static predicates (predefined attributes like name or dataType) cannot
// be screened and never rule a catalog out; every user-defined predicate
// requires its attribute to be defined at the catalog, and an equality one
// must also pass the bloom filter. False negatives are impossible — a
// summary that rules a catalog out is authoritative — while a false positive
// costs one wasted subquery.
func (s *Summary) MayMatch(q core.Query) bool {
	for _, p := range q.Predicates {
		if staticAttrs[p.Attribute] {
			continue
		}
		if !s.Attrs[p.Attribute] {
			return false
		}
		if p.Op == core.OpEq && !s.Pairs.Test(pairKey(p.Attribute, p.Value.Render())) {
			return false
		}
	}
	return true
}
