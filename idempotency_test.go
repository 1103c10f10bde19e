package mcs

import (
	"errors"
	"net/http"
	"reflect"
	"testing"

	"mcs/internal/obs"
	"mcs/internal/shard"
)

// keyReuseAPI is the slice of the catalog API the key-reuse test drives:
// *Client speaks it over a wire, coreKeyed in-process.
type keyReuseAPI interface {
	CreateFile(spec FileSpec) (File, error)
	CreateCollection(spec CollectionSpec) (Collection, error)
	GetCollection(name string) (Collection, error)
	DeleteCollection(name string) error
	CreateView(spec ViewSpec) (View, error)
	ViewContents(name string) ([]ViewMember, error)
	DeleteView(name string) error
}

// coreKeyed calls a catalog directly as one DN, each mutation under *key
// when it is set.
type coreKeyed struct {
	cat *Catalog
	dn  string
	key *string
}

func (c coreKeyed) opts() []OpOption {
	if *c.key == "" {
		return nil
	}
	return []OpOption{WithIdempotencyKey(*c.key)}
}
func (c coreKeyed) CreateFile(spec FileSpec) (File, error) {
	return c.cat.CreateFile(c.dn, spec, c.opts()...)
}
func (c coreKeyed) CreateCollection(spec CollectionSpec) (Collection, error) {
	return c.cat.CreateCollection(c.dn, spec, c.opts()...)
}
func (c coreKeyed) GetCollection(name string) (Collection, error) {
	return c.cat.GetCollection(c.dn, name)
}
func (c coreKeyed) DeleteCollection(name string) error {
	return c.cat.DeleteCollection(c.dn, name, c.opts()...)
}
func (c coreKeyed) CreateView(spec ViewSpec) (View, error) {
	return c.cat.CreateView(c.dn, spec, c.opts()...)
}
func (c coreKeyed) ViewContents(name string) ([]ViewMember, error) {
	return c.cat.ViewContents(c.dn, name)
}
func (c coreKeyed) DeleteView(name string) error { return c.cat.DeleteView(c.dn, name, c.opts()...) }

// keyTripper sends every mutating request of a retrying client under *key
// when it is set, so distinct logical calls reuse one idempotency key.
type keyTripper struct {
	key *string
	rt  http.RoundTripper
}

func (k keyTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if *k.key != "" && r.Header.Get(obs.IdempotencyKeyHeader) != "" {
		r = r.Clone(r.Context())
		r.Header.Set(obs.IdempotencyKeyHeader, *k.key)
	}
	return k.rt.RoundTrip(r)
}

// TestKeyReuseRefusedAcrossWires: a key reused for the same action with
// other arguments, or by another caller, is InvalidInput from the catalog
// called directly, over the JSON and the SOAP wire, and through the router
// in front of two shards; a retry of the same call gets the first reply.
// The deletes refuse before their precondition reads and leave the other
// object in place. Every name is under one shard's prefix, where the router
// forwards the client's key unchanged.
func TestKeyReuseRefusedAcrossWires(t *testing.T) {
	const alice, bob = "/O=Grid/CN=reuse-alice", "/O=Grid/CN=reuse-bob"
	over := func(url string, kind TransportKind, key *string) func(dn string) keyReuseAPI {
		hc := &http.Client{Transport: keyTripper{key: key, rt: http.DefaultTransport}}
		return func(dn string) keyReuseAPI {
			return NewClient(url, dn, WithTransport(kind), WithHTTPClient(hc), WithRetry(2))
		}
	}
	for _, leg := range []struct {
		name string
		as   func(key *string) func(dn string) keyReuseAPI
	}{
		{"core", func(key *string) func(dn string) keyReuseAPI {
			cat, err := OpenCatalog(Options{Clock: fixedClock})
			if err != nil {
				t.Fatal(err)
			}
			return func(dn string) keyReuseAPI { return coreKeyed{cat, dn, key} }
		}},
		{"json", func(key *string) func(dn string) keyReuseAPI {
			_, url := startServer(t, ServerOptions{CatalogOptions: Options{Clock: fixedClock}})
			return over(url, TransportJSON, key)
		}},
		{"soap", func(key *string) func(dn string) keyReuseAPI {
			_, url := startServer(t, ServerOptions{CatalogOptions: Options{Clock: fixedClock}})
			return over(url, TransportSOAP, key)
		}},
		{"router, 2 shards", func(key *string) func(dn string) keyReuseAPI {
			return over(startSharded(t, shard.Options{}).url, TransportJSON, key)
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var key string
			as := leg.as(&key)
			a := as(alice)
			refused := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%s under a used key = %v, want ErrInvalidInput", what, err)
				}
			}

			key = "k-file"
			spec := FileSpec{Name: "s1-reuse.dat", DataType: "binary"}
			first, err := a.CreateFile(spec)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := a.CreateFile(spec); err != nil || !reflect.DeepEqual(again, first) {
				t.Errorf("same-arguments retry = %+v, %v; want the first reply %+v", again, err, first)
			}
			_, err = a.CreateFile(FileSpec{Name: "s1-reuse.dat", DataType: "xml"})
			refused("createFile with another data type", err)
			_, err = a.CreateFile(FileSpec{Name: "s1-other.dat", DataType: "binary"})
			refused("createFile of another name", err)
			_, err = as(bob).CreateFile(spec)
			refused("createFile by another caller", err)

			key = ""
			for _, name := range []string{"s1-col-a", "s1-col-b"} {
				if _, err := a.CreateCollection(CollectionSpec{Name: name}); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"s1-view-a", "s1-view-b"} {
				if _, err := a.CreateView(ViewSpec{Name: name}); err != nil {
					t.Fatal(err)
				}
			}
			key = "k-delete-collection"
			if err := a.DeleteCollection("s1-col-a"); err != nil {
				t.Fatal(err)
			}
			if err := a.DeleteCollection("s1-col-a"); err != nil {
				t.Errorf("retried deleteCollection = %v, want the recorded success", err)
			}
			refused("deleteCollection of another collection", a.DeleteCollection("s1-col-b"))
			key = "k-delete-view"
			if err := a.DeleteView("s1-view-a"); err != nil {
				t.Fatal(err)
			}
			if err := a.DeleteView("s1-view-a"); err != nil {
				t.Errorf("retried deleteView = %v, want the recorded success", err)
			}
			refused("deleteView of another view", a.DeleteView("s1-view-b"))

			key = ""
			if _, err := a.GetCollection("s1-col-b"); err != nil {
				t.Errorf("the collection a refused delete named: %v", err)
			}
			if _, err := a.ViewContents("s1-view-b"); err != nil {
				t.Errorf("the view a refused delete named: %v", err)
			}
		})
	}
}
