// Package shard implements horizontal sharding of the metadata catalog:
// collection subtrees are partitioned across N mcsd instances by logical-name
// prefix, and a thin stateless router (cmd/mcsrouter) mounts the same
// transport-neutral operation table as mcsd, forwarding single-collection
// operations to exactly one shard and scatter-gathering cross-shard queries.
//
// The unit of distribution is the collection subtree, exactly as the paper's
// section 9 sketches for a distributed MCS: collections are already the
// authorization and transaction scope, so every mutation is single-shard and
// no cross-shard coordination is ever needed on the write path. Deployments
// choose name prefixes (one per experiment, instrument or year, say) and
// name collections, their files and their views under the owning prefix —
// the same operational convention grid projects already use to partition
// logical namespaces. The router is also section 9's aggregating index over
// independent catalogs: a federation of sites is a shard map with one prefix
// per site. Routing metadata is soft state: the router periodically pulls
// each shard's internal/federation discovery summary and uses it to screen
// shards out of cross-shard queries. Staleness is only ever allowed to cost a wasted
// subquery (a screened-in shard that holds no match), never a wrong answer:
// a shard that received a router-forwarded mutation since its last summary
// pull is marked dirty and always included in scatters until the next
// successful pull. Writes that bypass the router are outside that guarantee
// and are seen by screened queries only after the next summary interval.
package shard

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// Rule maps one logical-name prefix to the endpoint of the shard that owns
// it. The special prefix "*" is the catch-all for names no other rule
// matches.
type Rule struct {
	Prefix   string
	Endpoint string
}

// Map is a parsed shard map: an ordered set of prefix rules. Longest
// matching prefix wins, so "ligo-s5" can override "ligo" for one subtree.
type Map struct {
	rules    []Rule // sorted by descending prefix length, then lexically
	catchAll string // endpoint of the "*" rule, "" when absent
}

// ParseMap parses the shard-map text format: one "<prefix> <endpoint>" pair
// per line, blank lines and #-comments ignored. A "*" prefix declares the
// catch-all shard. Duplicate prefixes are an error (a name must route
// deterministically), but many prefixes may share one endpoint.
func ParseMap(text string) (*Map, error) {
	m := &Map{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("shard map line %d: want \"<prefix> <endpoint>\", got %q", ln+1, line)
		}
		if err := m.add(fields[0], fields[1], seen); err != nil {
			return nil, fmt.Errorf("shard map line %d: %w", ln+1, err)
		}
	}
	return m.finish()
}

// ParseMapFile reads and parses a shard-map file.
func ParseMapFile(path string) (*Map, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseMap(string(raw))
}

// ParseInline parses the compact flag form "prefix=endpoint,prefix=endpoint"
// (use "*=endpoint" for the catch-all), for tests and one-line deployments.
func ParseInline(spec string) (*Map, error) {
	m := &Map{}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		prefix, endpoint, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("shard spec %q: want \"<prefix>=<endpoint>\"", part)
		}
		if err := m.add(strings.TrimSpace(prefix), strings.TrimSpace(endpoint), seen); err != nil {
			return nil, err
		}
	}
	return m.finish()
}

func (m *Map) add(prefix, endpoint string, seen map[string]bool) error {
	if prefix == "" || endpoint == "" {
		return fmt.Errorf("empty prefix or endpoint")
	}
	if seen[prefix] {
		return fmt.Errorf("prefix %q mapped twice", prefix)
	}
	seen[prefix] = true
	endpoint = strings.TrimSuffix(endpoint, "/")
	if prefix == "*" {
		m.catchAll = endpoint
		return nil
	}
	m.rules = append(m.rules, Rule{Prefix: prefix, Endpoint: endpoint})
	return nil
}

func (m *Map) finish() (*Map, error) {
	if len(m.rules) == 0 && m.catchAll == "" {
		return nil, fmt.Errorf("shard map is empty")
	}
	sort.Slice(m.rules, func(i, j int) bool {
		if len(m.rules[i].Prefix) != len(m.rules[j].Prefix) {
			return len(m.rules[i].Prefix) > len(m.rules[j].Prefix)
		}
		return m.rules[i].Prefix < m.rules[j].Prefix
	})
	return m, nil
}

// Route returns the endpoint owning name: the longest matching prefix rule,
// falling back to the catch-all. ok is false when no rule matches and no
// catch-all is declared — the router surfaces that as an invalid-input
// error rather than guessing.
func (m *Map) Route(name string) (endpoint string, ok bool) {
	for _, r := range m.rules {
		if strings.HasPrefix(name, r.Prefix) {
			return r.Endpoint, true
		}
	}
	if m.catchAll != "" {
		return m.catchAll, true
	}
	return "", false
}

// Endpoints returns the distinct shard endpoints, sorted. The order is
// deterministic across router restarts, which keeps composed pagination
// tokens (which index into this order) valid across a router bounce.
func (m *Map) Endpoints() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range m.rules {
		if !seen[r.Endpoint] {
			seen[r.Endpoint] = true
			out = append(out, r.Endpoint)
		}
	}
	if m.catchAll != "" && !seen[m.catchAll] {
		out = append(out, m.catchAll)
	}
	sort.Strings(out)
	return out
}

// Rules returns the prefix rules in match order (longest first), plus the
// catch-all as a trailing "*" rule when declared — for /statz diagnostics.
func (m *Map) Rules() []Rule {
	out := append([]Rule(nil), m.rules...)
	if m.catchAll != "" {
		out = append(out, Rule{Prefix: "*", Endpoint: m.catchAll})
	}
	return out
}
