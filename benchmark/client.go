package main

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"mcs"
	"mcs/internal/core"
)

// sample is one timed call that began and ended inside the window.
type sample struct {
	cls class
	end int64 // ns after the window opened
	dur int64 // ns
}

// client is one closed-loop Grid client: one goroutine, one keep-alive
// connection, the next request sent only when the previous reply is in. It
// reads as the reader DN and publishes as its own publisher DN.
type client struct {
	id    int
	d     dataset
	nodes int // catalog servers behind the endpoint: 1, or 2 shards
	strm  *stream
	ops   []op // generated ahead of use; refilled if a run outlasts it
	pos   int
	read  *mcs.Client
	pub   *mcs.Client
	rt    *roundTripper
	tr    *tracer

	w0, w1 time.Time // the measured window

	samples   []sample
	attempted int
	failed    int
	files     int      // logical files registered inside the window
	errs      []string // the first few failures, for the report

	// What the server has acknowledged: this client's live files are the
	// serials [ackOldest, ackNext), and sets holds the attribute values of
	// the ones a setAttribute changed. The restart check reads these.
	ackOldest, ackNext int32
	sets               map[int32][numAttrs]int

	// corrupt makes the oracle expect one name too many from every k=3
	// search: the negative self-test.
	corrupt bool
}

// opsAhead is how many ops each client generates before the run starts.
const opsAhead = 1 << 16

func newClient(id int, d dataset, nodes int, m mix, seed uint64, endpoint string, wire mcs.TransportKind, tr *tracer) *client {
	c := &client{id: id, d: d, nodes: nodes, strm: newStream(m, d, seed, id), tr: tr, sets: map[int32][numAttrs]int{}}
	c.rt = &roundTripper{t: tr, next: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	hc := &http.Client{Transport: c.rt, Timeout: 60 * time.Second}
	opts := []mcs.ClientOption{mcs.WithTransport(wire), mcs.WithHTTPClient(hc), mcs.WithRetry(2)}
	c.read = mcs.NewClient(endpoint, readerDN, opts...)
	c.pub = mcs.NewClient(endpoint, publisherDN(id), opts...)
	c.refill()
	return c
}

func (c *client) refill() {
	c.ops, c.pos = c.ops[:0], 0
	for i := 0; i < opsAhead; i++ {
		c.ops = append(c.ops, c.strm.nextOp())
	}
}

func (c *client) close() {
	c.rt.next.(*http.Transport).CloseIdleConnections()
}

// run issues ops back to back until the window closes.
func (c *client) run() {
	for time.Now().Before(c.w1) {
		if c.pos == len(c.ops) {
			c.refill()
		}
		c.exec(c.ops[c.pos])
		c.pos++
	}
}

// done closes one timed call that began at start: it records the span and
// the sample, then judges the reply — err from the call, or what check finds
// wrong with it. It reports whether the call counted as a success.
func (c *client) done(start time.Time, cls class, err error, check func() error) bool {
	end := time.Now()
	if c.tr.on.Load() {
		c.tr.add("client.call", "", c.rt.lastReq, start, end)
	}
	if err == nil && check != nil {
		err = check()
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf("client %d %s: %v", c.id, classNames[cls], err))
		}
		return false
	}
	if !start.Before(c.w0) && !end.After(c.w1) {
		c.samples = append(c.samples, sample{cls: cls, end: int64(end.Sub(c.w0)), dur: int64(end.Sub(start))})
		return true
	}
	return false
}

func (c *client) exec(o op) {
	d := c.d
	cls := kindClass[o.kind]
	switch o.kind {
	case opQueryName:
		name := d.fileName(int(o.a))
		q := nameQuery(name)
		t := time.Now()
		got, err := c.read.RunQuery(q)
		c.done(t, cls, err, func() error {
			if len(got) != 1 || got[0] != name {
				return fmt.Errorf("query name=%s returned %v", name, got)
			}
			return nil
		})
	case opGetFile:
		name := d.fileName(int(o.a))
		t := time.Now()
		f, err := c.read.GetFile(name, 0)
		c.done(t, cls, err, func() error { return checkFile(f, name, ownerDN) })
	case opGetAttrs:
		name := d.fileName(int(o.a))
		t := time.Now()
		got, err := c.read.GetAttributes(core.ObjectFile, name)
		c.done(t, cls, err, func() error { return checkAttrs(got, datasetAttrs(int(o.a))) })
	case opSearch3, opSearch10:
		attrs := search3Attrs
		if o.kind == opSearch10 {
			attrs = allAttrs
		}
		q := core.Query{Predicates: searchPreds(attrs, int(o.a))}
		want := d.matches(attrs, int(o.a))
		if c.corrupt && o.kind == opSearch3 {
			want.n++
		}
		t := time.Now()
		got, err := c.read.RunQuery(q)
		c.done(t, cls, err, func() error { return d.checkNames(got, want) })
	case opPage:
		q := core.Query{Predicates: searchPreds([]int{0}, int(o.a))}
		want := d.matches([]int{0}, int(o.a))
		token := ""
		for page := 0; page < 2; page++ {
			t := time.Now()
			got, next, err := c.read.RunQueryPage(q, pageRows, token)
			if !c.done(t, cls, err, func() error { return d.checkPage(got, next, want, c.nodes, page) }) || next == "" {
				break
			}
			token = next
		}
	case opCreate:
		spec := writtenSpec(c.id, int(o.a))
		t := time.Now()
		f, err := c.pub.CreateFile(spec)
		if c.done(t, cls, err, func() error { return checkFile(f, spec.Name, publisherDN(c.id)) }) {
			c.files++
		}
		if err == nil {
			c.ackNext = o.a + 1
		}
	case opReadBack:
		name := writtenName(c.id, int(o.a))
		t := time.Now()
		got, err := c.pub.GetAttributes(core.ObjectFile, name)
		c.done(t, cls, err, func() error { return checkAttrs(got, c.expectedAttrs(o.a)) })
	case opSetAttr:
		name := writtenName(c.id, int(o.a))
		attr, value := setAttrTarget(o)
		t := time.Now()
		err := c.pub.SetAttribute(core.ObjectFile, name, attrName(attr), attrValue(attr, value))
		c.done(t, cls, err, nil)
		if err == nil {
			v := c.expectedAttrs(o.a)
			v[attr] = value
			c.sets[o.a] = v
		}
	case opDelete:
		t := time.Now()
		err := c.pub.DeleteFile(writtenName(c.id, int(o.a)), 0)
		c.done(t, cls, err, nil)
		if err == nil {
			c.ackOldest = o.a + 1
			delete(c.sets, o.a)
		}
	case opBatch:
		ops := writtenBatch(c.id, int(o.a))
		t := time.Now()
		applied, err := c.pub.BatchWriteQuiet(ops)
		if c.done(t, cls, err, func() error {
			if applied != batchFiles {
				return fmt.Errorf("batch applied %d ops, want %d", applied, batchFiles)
			}
			return nil
		}) {
			c.files += batchFiles
		}
		if err == nil {
			c.ackNext = o.a + batchFiles
		}
	}
}

// expectedAttrs is what the attributes of this client's file n must read as.
func (c *client) expectedAttrs(n int32) [numAttrs]int {
	if v, ok := c.sets[n]; ok {
		return v
	}
	return writtenAttrs(int(n))
}

// verifyRestart checks a catalog booted from a copy of the disk against
// everything the server acknowledged to this client: every live name
// resolves, the most recently deleted one does not, and up to attrChecks
// live files — the ones setAttribute touched first — carry the expected
// attribute values. cat picks the catalog that owns a name.
func (c *client) verifyRestart(cat func(name string) *core.Catalog) (checked int, err error) {
	dn := publisherDN(c.id)
	for n := c.ackOldest; n < c.ackNext; n++ {
		name := writtenName(c.id, int(n))
		f, err := cat(name).GetFile(dn, name, 0)
		if err != nil {
			return checked, fmt.Errorf("acknowledged file %s lost: %w", name, err)
		}
		if err := checkFile(f, name, dn); err != nil {
			return checked, err
		}
		checked++
	}
	if c.ackOldest > 0 {
		name := writtenName(c.id, int(c.ackOldest-1))
		if _, err := cat(name).GetFile(dn, name, 0); !errors.Is(err, core.ErrNotFound) {
			return checked, fmt.Errorf("deleted file %s: got %v, want not found", name, err)
		}
		checked++
	}
	const attrChecks = 200
	verify := func(n int32) error {
		name := writtenName(c.id, int(n))
		got, err := cat(name).GetAttributes(dn, core.ObjectFile, name)
		if err != nil {
			return fmt.Errorf("attributes of %s: %w", name, err)
		}
		if err := checkAttrs(got, c.expectedAttrs(n)); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		checked++
		return nil
	}
	left := attrChecks
	for n := range c.sets {
		if left == 0 {
			break
		}
		if err := verify(n); err != nil {
			return checked, err
		}
		left--
	}
	for n := c.ackNext - 1; n >= c.ackOldest && left > 0; n, left = n-1, left-1 {
		if err := verify(n); err != nil {
			return checked, err
		}
	}
	return checked, nil
}
