package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Operation classes: the units latency is reported in.
type class uint8

const (
	clsLookup class = iota
	clsSearch
	clsWrite
	clsBatch
	numClasses
)

var classNames = [numClasses]string{"lookup", "search", "write", "batch"}

type opKind uint8

const (
	opQueryName opKind = iota // lookup: query on name =
	opGetFile                 // lookup
	opGetAttrs                // lookup
	opSearch3                 // search: a02, a04, a05
	opSearch10                // search: a00..a09
	opPage                    // search: first two 512-row pages of a00 = v
	opCreate                  // write: createFile with 10 attributes
	opSetAttr                 // write
	opDelete                  // write: the client's own oldest file
	opBatch                   // batch: quiet batchWrite of batchFiles createFile ops
	opReadBack                // lookup: getAttributes of the name just created (must hit)
)

var kindClass = [...]class{
	opQueryName: clsLookup, opGetFile: clsLookup, opGetAttrs: clsLookup,
	opSearch3: clsSearch, opSearch10: clsSearch, opPage: clsSearch,
	opCreate: clsWrite, opSetAttr: clsWrite, opDelete: clsWrite,
	opBatch: clsBatch, opReadBack: clsLookup,
}

const (
	batchFiles = 100
	pageRows   = 512
)

var search3Attrs = []int{2, 4, 5}

// op is one generated request in compact form; the client renders it into a
// wire request just before sending. For reads a is the dataset file index
// the request is derived from (the page value for opPage); for writes a is
// the serial of the client's own file and b the value-index seed.
type op struct {
	kind opKind
	a, b int32
}

// rng is splitmix64: a fixed algorithm, so a seed means the same stream on
// every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix is a traffic mix: the share of lookups and searches (the rest are
// writes), how read targets are drawn, and whether the stream is the fixed
// ingest cycle instead of a random mix.
type mix struct {
	lookup, search float64
	zipf           bool
	ingest         bool
}

var (
	mixDiscover = mix{lookup: 0.55, search: 0.45}
	mixMixed    = mix{lookup: 0.70, search: 0.20, zipf: true}
	mixIngest   = mix{ingest: true}
)

// Shares inside a class.
const (
	sharePage      = 0.04 // of searches; the rest are k=3 and k=10 searches, one to two
	shareCreate    = 0.50 // of writes
	shareSetAttr   = 0.30 // of writes; the remainder deletes
	readBackEvery  = 5    // every fifth create (20 %) is followed by a read of the new name
	deckSize       = 500  // ops per shuffled block
	zipfExponent   = 1.1
	ingestSingles  = 20 // single createFile ops per ingest cycle
	ingestCycleOps = 1 + ingestSingles + 2
)

// stream is one client's endless, deterministic op sequence. It tracks the
// range of the client's own live files [oldest, next): creates append,
// deletes take the oldest, so the range is all the state generation needs.
type stream struct {
	m       mix
	d       dataset
	r       rng
	zipfCDF []float64
	oldest  int32
	next    int32
	cycle   int  // position in the ingest cycle
	creates int  // mixed creates so far, for the read-back cadence
	pending bool // a read-back of serial next-1 is due
	deck    []opKind
	dealt   int
}

// newDeck lays out one block of op kinds holding every kind in exactly the
// mix's proportion. Dealing from shuffled blocks instead of drawing each op
// independently keeps the share of the rare, expensive kinds (a page scan
// costs as much as a hundred lookups) the same for every seed.
func newDeck(m mix) []opKind {
	var deck []opKind
	add := func(k opKind, n int) {
		for i := 0; i < n; i++ {
			deck = append(deck, k)
		}
	}
	lookups := int(math.Round(m.lookup * deckSize))
	for i := 0; i < 3; i++ {
		n := lookups / 3
		if i < lookups%3 {
			n++
		}
		add(opQueryName+opKind(i), n)
	}
	searches := int(math.Round(m.search * deckSize))
	pages := int(math.Round(sharePage * float64(searches)))
	add(opPage, pages)
	// One k=3 to two k=10, so the median search is squarely a k=10 one and
	// does not flip between the two kinds from run to run.
	k3 := (searches - pages) / 3
	add(opSearch3, k3)
	add(opSearch10, searches-pages-k3)
	writes := deckSize - lookups - searches
	creates := int(math.Round(shareCreate * float64(writes)))
	sets := int(math.Round(shareSetAttr * float64(writes)))
	add(opCreate, creates)
	add(opSetAttr, sets)
	add(opDelete, writes-creates-sets)
	return deck
}

// deal returns the next op kind, reshuffling the deck when it runs out.
func (s *stream) deal() opKind {
	if s.dealt == len(s.deck) {
		for i := len(s.deck) - 1; i > 0; i-- {
			j := s.r.intn(i + 1)
			s.deck[i], s.deck[j] = s.deck[j], s.deck[i]
		}
		s.dealt = 0
	}
	k := s.deck[s.dealt]
	s.dealt++
	return k
}

func newStream(m mix, d dataset, seed uint64, client int) *stream {
	s := &stream{m: m, d: d, r: rng{s: seed*0x100000001b3 + uint64(client)*0x9e3779b97f4a7c15 + 1}}
	if !m.ingest {
		s.deck = newDeck(m)
		s.dealt = len(s.deck)
	}
	if m.zipf {
		// Rank k (1-based) has weight k^-1.1 over the leaf collections.
		n := d.leaves()
		s.zipfCDF = make([]float64, n)
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += math.Pow(float64(k+1), -zipfExponent)
			s.zipfCDF[k] = sum
		}
		for k := range s.zipfCDF {
			s.zipfCDF[k] /= sum
		}
	}
	return s
}

// leafOfRank spreads popularity ranks alternately over the two top-level
// collections, so both shards see hot and cold collections.
func (d dataset) leafOfRank(rank int) int {
	per := d.leaves() / numTops
	return rank%numTops*per + rank/numTops
}

func (s *stream) readTarget() int32 {
	if !s.m.zipf {
		return int32(s.r.intn(s.d.files))
	}
	u := s.r.float()
	rank := 0
	for rank < len(s.zipfCDF)-1 && u > s.zipfCDF[rank] {
		rank++
	}
	return int32(s.d.leafOfRank(rank)*s.d.perLeaf + s.r.intn(s.d.perLeaf))
}

func (s *stream) create() op {
	o := op{kind: opCreate, a: s.next}
	s.next++
	return o
}

func (s *stream) nextOp() op {
	if s.pending {
		s.pending = false
		return op{kind: opReadBack, a: s.next - 1}
	}
	if s.m.ingest {
		pos := s.cycle
		s.cycle = (s.cycle + 1) % ingestCycleOps
		switch {
		case pos == 0:
			o := op{kind: opBatch, a: s.next}
			s.next += batchFiles
			return o
		case pos <= ingestSingles:
			return s.create()
		case pos == ingestSingles+1:
			return op{kind: opSetAttr, a: s.oldest + int32(s.r.intn(int(s.next-s.oldest))), b: int32(s.r.intn(1000))}
		default:
			o := op{kind: opDelete, a: s.oldest}
			s.oldest++
			return o
		}
	}
	live := s.next - s.oldest
	switch k := s.deal(); {
	case k == opPage:
		return op{kind: opPage, a: int32(s.r.intn(attrCard[0]))}
	case kindClass[k] != clsWrite:
		return op{kind: k, a: s.readTarget()}
	case k == opCreate || live == 0:
		o := s.create()
		s.creates++
		s.pending = s.creates%readBackEvery == 0
		return o
	case k == opSetAttr:
		return op{kind: opSetAttr, a: s.oldest + int32(s.r.intn(int(live))), b: int32(s.r.intn(1000))}
	default:
		o := op{kind: opDelete, a: s.oldest}
		s.oldest++
		return o
	}
}

// streamHash fingerprints the first n ops of every client's stream.
func streamHash(m mix, d dataset, seed uint64, clients, n int) string {
	h := fnv.New64a()
	var b [9]byte
	for c := 0; c < clients; c++ {
		s := newStream(m, d, seed, c)
		for i := 0; i < n; i++ {
			o := s.nextOp()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint32(b[1:], uint32(o.a))
			binary.LittleEndian.PutUint32(b[5:], uint32(o.b))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
