package mcs

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosSeeds returns the seeds the chaos suite runs under. MCS_CHAOS_SEEDS
// overrides the default three (comma-separated), so CI can pin or widen the
// schedule space without code changes.
func chaosSeeds(t *testing.T) []uint64 {
	t.Helper()
	spec := os.Getenv("MCS_CHAOS_SEEDS")
	if spec == "" {
		spec = "1,7,42"
	}
	var seeds []uint64
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("MCS_CHAOS_SEEDS: bad seed %q", part)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// retryClient returns a client configured the way the chaos suite hammers
// faulty servers: enough attempts to outlast three injected failures, tight
// backoff so the suite stays fast.
func retryClient(url string) *Client {
	return NewClient(url, testAlice,
		WithRetry(5),
		WithBackoff(time.Millisecond, 4*time.Millisecond))
}

// chaosOp is one mutating operation in the fault matrix: how to prepare its
// preconditions, how to invoke it through a faulty path, and how to prove
// afterwards that it was applied exactly once.
type chaosOp struct {
	name   string
	setup  func(t *testing.T, admin *Client)
	invoke func(c *Client) error
	verify func(t *testing.T, admin *Client)
}

// auditCount asserts the object's audit log holds exactly want records —
// the strongest exactly-once witness available over the wire.
func auditCount(t *testing.T, admin *Client, objType ObjectType, name string, want int) {
	t.Helper()
	recs, err := admin.AuditLog(objType, name)
	if err != nil {
		t.Fatalf("audit log: %v", err)
	}
	if len(recs) != want {
		t.Fatalf("audit records for %s = %d, want %d (%+v)", name, len(recs), want, recs)
	}
}

// chaosOps is the fault matrix's operation axis: every mutating client
// operation, each with an exactly-once postcondition.
func chaosOps() []chaosOp {
	dataType := "hdf5"
	return []chaosOp{
		{
			name:   "createFile",
			invoke: func(c *Client) error { _, err := c.CreateFile(FileSpec{Name: "cf.dat", Audited: true}); return err },
			verify: func(t *testing.T, admin *Client) {
				vs, err := admin.FileVersions("cf.dat")
				if err != nil || len(vs) != 1 || vs[0].Version != 1 {
					t.Fatalf("versions = %+v, %v; want exactly one v1", vs, err)
				}
				auditCount(t, admin, ObjectFile, "cf.dat", 1)
			},
		},
		{
			name: "updateFile",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "uf.dat", Audited: true}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error {
				_, err := c.UpdateFile("uf.dat", 0, FileUpdate{DataType: &dataType})
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				f, err := admin.GetFile("uf.dat", 0)
				if err != nil || f.DataType != dataType {
					t.Fatalf("file = %+v, %v; want DataType %q", f, err, dataType)
				}
				auditCount(t, admin, ObjectFile, "uf.dat", 2) // create + exactly one update
			},
		},
		{
			name: "deleteFile",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "df.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.DeleteFile("df.dat", 0) },
			verify: func(t *testing.T, admin *Client) {
				if _, err := admin.GetFile("df.dat", 0); err == nil {
					t.Fatal("file still exists after delete")
				}
			},
		},
		{
			name: "moveFile",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateCollection(CollectionSpec{Name: "dst"}); err != nil {
					t.Fatal(err)
				}
				if _, err := admin.CreateFile(FileSpec{Name: "mv.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.MoveFile("mv.dat", 0, "dst") },
			verify: func(t *testing.T, admin *Client) {
				files, _, err := admin.CollectionContents("dst")
				if err != nil || len(files) != 1 || files[0].Name != "mv.dat" {
					t.Fatalf("dst contents = %+v, %v; want just mv.dat", files, err)
				}
			},
		},
		{
			name: "batchWrite",
			invoke: func(c *Client) error {
				_, err := c.BatchWrite([]BatchOp{
					{CreateFile: &FileSpec{Name: "b1.dat", Audited: true}},
					{CreateFile: &FileSpec{Name: "b2.dat", Audited: true}},
					{CreateFile: &FileSpec{Name: "b3.dat", Audited: true}},
				})
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				for _, name := range []string{"b1.dat", "b2.dat", "b3.dat"} {
					vs, err := admin.FileVersions(name)
					if err != nil || len(vs) != 1 {
						t.Fatalf("versions(%s) = %+v, %v; want exactly one", name, vs, err)
					}
					auditCount(t, admin, ObjectFile, name, 1)
				}
			},
		},
		{
			name: "createCollection",
			invoke: func(c *Client) error {
				_, err := c.CreateCollection(CollectionSpec{Name: "cc", Audited: true})
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				if _, err := admin.GetCollection("cc"); err != nil {
					t.Fatalf("collection missing: %v", err)
				}
				auditCount(t, admin, ObjectCollection, "cc", 1)
			},
		},
		{
			name: "deleteCollection",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateCollection(CollectionSpec{Name: "dc"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.DeleteCollection("dc") },
			verify: func(t *testing.T, admin *Client) {
				if _, err := admin.GetCollection("dc"); err == nil {
					t.Fatal("collection still exists after delete")
				}
			},
		},
		{
			name: "createView",
			invoke: func(c *Client) error {
				_, err := c.CreateView(ViewSpec{Name: "cv", Audited: true})
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				if _, err := admin.ViewContents("cv"); err != nil {
					t.Fatalf("view missing: %v", err)
				}
				auditCount(t, admin, ObjectView, "cv", 1)
			},
		},
		{
			name: "addToView",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateView(ViewSpec{Name: "av", Audited: true}); err != nil {
					t.Fatal(err)
				}
				if _, err := admin.CreateFile(FileSpec{Name: "avm.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.AddToView("av", ObjectFile, "avm.dat") },
			verify: func(t *testing.T, admin *Client) {
				ms, err := admin.ViewContents("av")
				if err != nil || len(ms) != 1 {
					t.Fatalf("members = %+v, %v; want exactly one", ms, err)
				}
				auditCount(t, admin, ObjectView, "av", 2) // create + exactly one add-member
			},
		},
		{
			name: "removeFromView",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateView(ViewSpec{Name: "rv"}); err != nil {
					t.Fatal(err)
				}
				if _, err := admin.CreateFile(FileSpec{Name: "rvm.dat"}); err != nil {
					t.Fatal(err)
				}
				if err := admin.AddToView("rv", ObjectFile, "rvm.dat"); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.RemoveFromView("rv", ObjectFile, "rvm.dat") },
			verify: func(t *testing.T, admin *Client) {
				ms, err := admin.ViewContents("rv")
				if err != nil || len(ms) != 0 {
					t.Fatalf("members = %+v, %v; want empty", ms, err)
				}
			},
		},
		{
			name: "deleteView",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateView(ViewSpec{Name: "dv"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.DeleteView("dv") },
			verify: func(t *testing.T, admin *Client) {
				if _, err := admin.ViewContents("dv"); err == nil {
					t.Fatal("view still exists after delete")
				}
			},
		},
		{
			name: "defineAttribute",
			invoke: func(c *Client) error {
				_, err := c.DefineAttribute("chaosattr", AttrString, "chaos test attribute")
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				defs, err := admin.ListAttributeDefs()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, d := range defs {
					if d.Name == "chaosattr" {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("chaosattr defined %d times, want exactly once", n)
				}
			},
		},
		{
			name: "setAttribute",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.DefineAttribute("sa", AttrString, ""); err != nil {
					t.Fatal(err)
				}
				if _, err := admin.CreateFile(FileSpec{Name: "sa.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error {
				return c.SetAttribute(ObjectFile, "sa.dat", "sa", String("v1"))
			},
			verify: func(t *testing.T, admin *Client) {
				attrs, err := admin.GetAttributes(ObjectFile, "sa.dat")
				if err != nil || len(attrs) != 1 || attrs[0].Value.Render() != "v1" {
					t.Fatalf("attrs = %+v, %v; want exactly one sa=v1", attrs, err)
				}
			},
		},
		{
			name: "unsetAttribute",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.DefineAttribute("ua", AttrString, ""); err != nil {
					t.Fatal(err)
				}
				if _, err := admin.CreateFile(FileSpec{Name: "ua.dat"}); err != nil {
					t.Fatal(err)
				}
				if err := admin.SetAttribute(ObjectFile, "ua.dat", "ua", String("x")); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.UnsetAttribute(ObjectFile, "ua.dat", "ua") },
			verify: func(t *testing.T, admin *Client) {
				attrs, err := admin.GetAttributes(ObjectFile, "ua.dat")
				if err != nil || len(attrs) != 0 {
					t.Fatalf("attrs = %+v, %v; want none", attrs, err)
				}
			},
		},
		{
			name: "annotate",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "an.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error {
				_, err := c.Annotate(ObjectFile, "an.dat", "calibration run")
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				anns, err := admin.Annotations(ObjectFile, "an.dat")
				if err != nil || len(anns) != 1 {
					t.Fatalf("annotations = %+v, %v; want exactly one", anns, err)
				}
			},
		},
		{
			name: "addProvenance",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "pv.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.AddProvenance("pv.dat", 0, "transformed by step 3") },
			verify: func(t *testing.T, admin *Client) {
				recs, err := admin.Provenance("pv.dat", 0)
				if err != nil || len(recs) != 1 {
					t.Fatalf("provenance = %+v, %v; want exactly one record", recs, err)
				}
			},
		},
		{
			name: "grant",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "gr.dat"}); err != nil {
					t.Fatal(err)
				}
			},
			// Grant is naturally idempotent (duplicate grants are no-ops), so
			// it needs no replay key — retries must still converge.
			invoke: func(c *Client) error { return c.Grant(ObjectFile, "gr.dat", testBob, PermRead) },
			verify: func(t *testing.T, admin *Client) {},
		},
		{
			name: "revoke",
			setup: func(t *testing.T, admin *Client) {
				if _, err := admin.CreateFile(FileSpec{Name: "rk.dat"}); err != nil {
					t.Fatal(err)
				}
				if err := admin.Grant(ObjectFile, "rk.dat", testBob, PermRead); err != nil {
					t.Fatal(err)
				}
			},
			invoke: func(c *Client) error { return c.Revoke(ObjectFile, "rk.dat", testBob, PermRead) },
			verify: func(t *testing.T, admin *Client) {},
		},
		{
			name: "registerWriter",
			invoke: func(c *Client) error {
				return c.RegisterWriter(Writer{DN: testBob, Institution: "ISI", Email: "bob@isi.edu"})
			},
			verify: func(t *testing.T, admin *Client) {
				w, err := admin.GetWriter(testBob)
				if err != nil || w.Institution != "ISI" {
					t.Fatalf("writer = %+v, %v", w, err)
				}
			},
		},
		{
			name: "registerExternalCatalog",
			invoke: func(c *Client) error {
				_, err := c.RegisterExternalCatalog(ExternalCatalog{
					Name: "rls-east", Type: "RLS", Host: "rls.example.org",
				})
				return err
			},
			verify: func(t *testing.T, admin *Client) {
				list, err := admin.ListExternalCatalogs()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, ec := range list {
					if ec.Name == "rls-east" {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("rls-east registered %d times, want exactly once", n)
				}
			},
		},
	}
}

// TestChaosFaultMatrix is the headline chaos suite: every mutating client
// operation crossed with every fault site. Each cell injects three failures
// (Times: 3) into that operation's path and asserts that a retrying client
// with idempotency keys lands the mutation exactly once. The after-site
// cells are the critical ones — the handler commits, the reply is lost, and
// only the replay cache stands between the retry and a double apply.
func TestChaosFaultMatrix(t *testing.T) {
	sites := []struct {
		name string
		rule func(op string) FaultRule
	}{
		{"dispatch-error", func(op string) FaultRule {
			return FaultRule{Site: FaultSiteDispatch, Op: op, Kind: FaultKindError, Times: 3}
		}},
		{"after-error", func(op string) FaultRule {
			return FaultRule{Site: FaultSiteAfter, Op: op, Kind: FaultKindError, Times: 3}
		}},
		{"transport-partial", func(op string) FaultRule {
			return FaultRule{Site: FaultSiteTransport, Op: op, Kind: FaultKindPartial, Times: 3}
		}},
		// No op filter on the db site: the op name there is the statement
		// verb, and failing the first three statements of any verb covers
		// pre-reads, the mutation itself, audit and replay writes alike.
		{"db-error", func(op string) FaultRule {
			return FaultRule{Site: FaultSiteDB, Kind: FaultKindError, Times: 3}
		}},
	}
	for _, seed := range chaosSeeds(t) {
		for _, site := range sites {
			for _, op := range chaosOps() {
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, site.name, op.name), func(t *testing.T) {
					inj := NewFaultInjector(seed, site.rule(op.name))
					inj.SetEnabled(false) // setup and verify run fault-free
					_, url := startServer(t, ServerOptions{FaultInjector: inj})
					admin := NewClient(url, testAlice)
					if op.setup != nil {
						op.setup(t, admin)
					}

					c := retryClient(url)
					inj.SetEnabled(true)
					err := op.invoke(c)
					inj.SetEnabled(false)

					if err != nil {
						t.Fatalf("%s through %s faults = %v, want success after retries", op.name, site.name, err)
					}
					if got := inj.Total(); got != 3 {
						t.Fatalf("faults injected = %d, want all 3", got)
					}
					if st := c.RetryStats(); st.Retries != 3 {
						t.Fatalf("retries = %d, want exactly 3 (one per injected fault)", st.Retries)
					}
					op.verify(t, admin)
				})
			}
		}
	}
}

// With retries off, each fault surfaces as its documented sentinel: injected
// server-side errors match ErrUnavailable, severed replies match
// ErrTransport — the contract callers build their own retry policies on.
func TestChaosNoRetrySentinels(t *testing.T) {
	cases := []struct {
		name string
		rule FaultRule
		want error
	}{
		{"dispatch-error", FaultRule{Site: FaultSiteDispatch, Kind: FaultKindError, Times: 1}, ErrUnavailable},
		{"after-error", FaultRule{Site: FaultSiteAfter, Kind: FaultKindError, Times: 1}, ErrUnavailable},
		{"db-error", FaultRule{Site: FaultSiteDB, Kind: FaultKindError, Times: 1}, ErrUnavailable},
		{"transport-partial", FaultRule{Site: FaultSiteTransport, Kind: FaultKindPartial, Times: 1}, ErrTransport},
		{"transport-drop", FaultRule{Site: FaultSiteTransport, Kind: FaultKindDrop, Times: 1}, ErrTransport},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := NewFaultInjector(1, tc.rule)
			_, url := startServer(t, ServerOptions{FaultInjector: inj})
			c := NewClient(url, testAlice) // retries off
			_, err := c.CreateFile(FileSpec{Name: "s.dat"})
			if !Retryable(err) {
				t.Fatalf("error %v should be Retryable", err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
}

// TestChaosEngineFaultIsNotExists injects one engine fault into the INSERT
// of each operation that maps a duplicate name to ErrExists. The fault must
// reach the caller as the transient verdict an engine fault has
// (ErrUnavailable, retryable), never as ErrExists, which would tell it the
// name is taken; and the same call, retried under its idempotency key,
// succeeds.
func TestChaosEngineFaultIsNotExists(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(c *Client) error
	}{
		{"defineAttribute", func(c *Client) error {
			_, err := c.DefineAttribute("band", AttrString, "")
			return err
		}},
		{"registerExternalCatalog", func(c *Client) error {
			_, err := c.RegisterExternalCatalog(ExternalCatalog{Name: "peer", Host: "peer.example.org"})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two faults: one for the call without retries, one for the
			// first attempt of the call with them.
			inj := NewFaultInjector(1, FaultRule{Site: FaultSiteDB, Op: "insert", Kind: FaultKindError, Times: 2})
			_, url := startServer(t, ServerOptions{FaultInjector: inj})
			err := tc.call(NewClient(url, testAlice))
			if errors.Is(err, ErrExists) {
				t.Fatalf("an engine fault reads as a duplicate: %v", err)
			}
			if !errors.Is(err, ErrUnavailable) || !Retryable(err) {
				t.Fatalf("error = %v, want a retryable ErrUnavailable", err)
			}
			c := NewClient(url, testAlice, WithRetry(2), WithBackoff(time.Millisecond, time.Millisecond))
			if err := tc.call(c); err != nil {
				t.Fatalf("retried call: %v", err)
			}
			if st := c.RetryStats(); st.Attempts != 2 {
				t.Fatalf("retry stats = %+v, want the faulted attempt and one retry", st)
			}
		})
	}
}

// TestChaosSoak hammers a probabilistically faulty server with concurrent
// batch writers and paginating readers, then turns injection off and checks
// convergence: every batch a writer saw succeed exists exactly once, and a
// batch that exhausted its retries either vanished whole or landed whole —
// never partially, never twice.
func TestChaosSoak(t *testing.T) {
	const (
		writers       = 4
		readersN      = 2
		batchesPerW   = 25
		filesPerBatch = 5
	)
	inj := NewFaultInjector(42,
		FaultRule{Site: FaultSiteDispatch, Kind: FaultKindError, Prob: 0.05},
		FaultRule{Site: FaultSiteAfter, Kind: FaultKindError, Prob: 0.05},
		FaultRule{Site: FaultSiteTransport, Kind: FaultKindPartial, Prob: 0.05},
		FaultRule{Site: FaultSiteDB, Op: "insert", Kind: FaultKindError, Prob: 0.01},
	)
	inj.SetEnabled(false)
	_, url := startServer(t, ServerOptions{FaultInjector: inj})
	admin := NewClient(url, testAlice)
	if _, err := admin.DefineAttribute("soak", AttrString, ""); err != nil {
		t.Fatal(err)
	}
	inj.SetEnabled(true)

	var (
		mu        sync.Mutex
		committed []string // batches the writer saw succeed
		unknown   []string // batches that exhausted retries (outcome unknown)
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(url, testAlice,
				WithRetry(8), WithBackoff(500*time.Microsecond, 4*time.Millisecond))
			for b := 0; b < batchesPerW; b++ {
				var ops []BatchOp
				var names []string
				for f := 0; f < filesPerBatch; f++ {
					name := fmt.Sprintf("soak-w%d-b%d-f%d.dat", w, b, f)
					names = append(names, name)
					ops = append(ops, BatchOp{CreateFile: &FileSpec{
						Name:       name,
						Attributes: []Attribute{{Name: "soak", Value: String("1")}},
					}})
				}
				_, err := c.BatchWrite(ops)
				mu.Lock()
				if err == nil {
					committed = append(committed, names...)
				} else if Retryable(err) {
					unknown = append(unknown, names...)
				} else {
					t.Errorf("writer %d batch %d: non-retryable %v", w, b, err)
				}
				mu.Unlock()
			}
		}(w)
	}

	for r := 0; r < readersN; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(url, testAlice,
				WithRetry(8), WithBackoff(500*time.Microsecond, 4*time.Millisecond))
			q := Query{Target: ObjectFile, Predicates: []Predicate{
				{Attribute: "soak", Op: OpEq, Value: String("1")},
			}}
			token := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				names, next, err := c.RunQueryPage(q, 50, token)
				if err != nil {
					if !Retryable(err) {
						t.Errorf("reader: non-retryable %v", err)
						return
					}
					token = "" // transient outage outlived the retries; restart the walk
					continue
				}
				_ = names
				token = next
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own; readers poll until told to stop.
	for {
		mu.Lock()
		writtenAll := len(committed)+len(unknown) == writers*batchesPerW*filesPerBatch
		mu.Unlock()
		if writtenAll {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done
	inj.SetEnabled(false)

	// Convergence: committed batches exist exactly once; unknown batches are
	// all-or-nothing (the batch transaction is atomic even when the reply
	// never arrived).
	for _, name := range committed {
		vs, err := admin.FileVersions(name)
		if err != nil || len(vs) != 1 {
			t.Fatalf("committed %s: versions = %+v, %v; want exactly one", name, vs, err)
		}
	}
	byBatch := map[string]int{}
	for _, name := range unknown {
		batch := name[:strings.LastIndex(name, "-")]
		if _, err := admin.FileVersions(name); err == nil {
			byBatch[batch]++
		} else {
			byBatch[batch] += 0
		}
	}
	for batch, n := range byBatch {
		if n != 0 && n != filesPerBatch {
			t.Fatalf("unknown batch %s landed %d/%d files — batches must be all-or-nothing", batch, n, filesPerBatch)
		}
	}
	if inj.Total() == 0 {
		t.Fatal("soak injected no faults; the schedule is vacuous")
	}
	t.Logf("soak: %d faults injected, %d files committed, %d files in unknown batches",
		inj.Total(), len(committed), len(unknown))
}
