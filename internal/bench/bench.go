// Package bench reproduces the paper's scalability study (section 7).
//
// Workload, exactly as described: logical collections of 1000 files; every
// file carries 10 user-defined attributes of mixed types (string, float,
// integer, date, datetime) and every collection carries 10 attributes;
// indexes on names, ids and (name,id) pairs. The measured operations are
//
//   - add: create a logical file with its ten attributes, followed by a
//     delete of the same file so the database size stays constant;
//   - simple query: a value match on a single static attribute of a
//     logical file;
//   - complex query: value matches on all ten user-defined attributes.
//
// Each operation runs against two targets: Direct (straight into the
// catalog engine, the paper's "MySQL without web service" baseline, which
// still pays the cost of converting requests to SQL) and SOAP (through the
// web-service stack, the paper's "MCS" series).
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mcs"
	"mcs/internal/core"
	"mcs/internal/obs"
)

// LoaderDN is the identity used to populate and exercise the catalog.
const LoaderDN = "/O=Grid/OU=Bench/CN=loader"

// valueGroups is the cardinality of each attribute's value space: every
// (attribute, value) pair matches Files/valueGroups files, so complex-query
// cost scales with database size — the effect Figures 7, 10 and 11 show.
const valueGroups = 50

// Config describes one benchmark database.
type Config struct {
	// Files is the number of logical files to load.
	Files int
	// FilesPerCollection matches the paper's 1000.
	FilesPerCollection int
	// AttrsPerFile matches the paper's 10.
	AttrsPerFile int
}

// DefaultConfig returns the paper's workload shape at the given size.
func DefaultConfig(files int) Config {
	return Config{Files: files, FilesPerCollection: 1000, AttrsPerFile: 10}
}

// attrName returns the j-th user-defined attribute's name.
func attrName(j int) string { return fmt.Sprintf("bench_attr_%02d", j) }

// attrType cycles the value types across the ten attributes.
func attrType(j int) core.AttrType {
	switch j % 5 {
	case 0, 1:
		return core.AttrString
	case 2:
		return core.AttrFloat
	case 3:
		return core.AttrInt
	default:
		return core.AttrDateTime
	}
}

// benchEpoch anchors the datetime attribute values.
var benchEpoch = time.Date(2003, 11, 15, 0, 0, 0, 0, time.UTC)

// attrValue computes attribute j's value for value-group g.
func attrValue(j, g int) core.AttrValue {
	switch attrType(j) {
	case core.AttrString:
		return core.String(fmt.Sprintf("s%02d-%04d", j, g))
	case core.AttrFloat:
		return core.Float(float64(j)*1000 + float64(g) + 0.5)
	case core.AttrInt:
		return core.Int(int64(j)*100000 + int64(g))
	default:
		return core.DateTime(benchEpoch.Add(time.Duration(g) * time.Minute))
	}
}

// FileName returns the logical name of the i-th loaded file.
func FileName(i int) string { return fmt.Sprintf("bench-file-%08d", i) }

// FileAttributes returns the ten attribute bindings of the i-th file.
// All ten attributes share the file's value group (i mod valueGroups), so a
// conjunction over k of them matches exactly Files/valueGroups files.
func FileAttributes(i, attrsPerFile int) []core.Attribute {
	g := i % valueGroups
	attrs := make([]core.Attribute, attrsPerFile)
	for j := 0; j < attrsPerFile; j++ {
		attrs[j] = core.Attribute{Name: attrName(j), Value: attrValue(j, g)}
	}
	return attrs
}

// Predicates returns k equality predicates matching value-group g — the
// complex-query workload (k = 10) and the Fig. 11 attribute sweep (k = 1..10).
func Predicates(k, g int) []core.Predicate {
	preds := make([]core.Predicate, k)
	for j := 0; j < k; j++ {
		preds[j] = core.Predicate{Attribute: attrName(j), Op: core.OpEq, Value: attrValue(j, g)}
	}
	return preds
}

// Load populates a fresh catalog per the paper's setup and returns it.
func Load(cfg Config) (*core.Catalog, error) {
	cat, err := core.Open(core.Options{})
	if err != nil {
		return nil, err
	}
	if err := LoadInto(cat, cfg); err != nil {
		return nil, err
	}
	return cat, nil
}

// LoadInto populates an existing catalog with the benchmark dataset.
func LoadInto(cat *core.Catalog, cfg Config) error {
	if cfg.FilesPerCollection <= 0 {
		cfg.FilesPerCollection = 1000
	}
	if cfg.AttrsPerFile <= 0 {
		cfg.AttrsPerFile = 10
	}
	for j := 0; j < cfg.AttrsPerFile; j++ {
		if _, err := cat.DefineAttribute(LoaderDN, attrName(j), attrType(j), "bench attribute"); err != nil {
			return err
		}
	}
	nColl := (cfg.Files + cfg.FilesPerCollection - 1) / cfg.FilesPerCollection
	for ci := 0; ci < nColl; ci++ {
		// Ten attributes per collection, as in the paper.
		attrs := FileAttributes(ci, cfg.AttrsPerFile)
		if _, err := cat.CreateCollection(LoaderDN, core.CollectionSpec{
			Name:       fmt.Sprintf("bench-coll-%05d", ci),
			Attributes: attrs,
		}); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.Files; i++ {
		if _, err := cat.CreateFile(LoaderDN, core.FileSpec{
			Name:       FileName(i),
			DataType:   "binary",
			Collection: fmt.Sprintf("bench-coll-%05d", i/cfg.FilesPerCollection),
			Attributes: FileAttributes(i, cfg.AttrsPerFile),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Target abstracts the two access paths (direct catalog vs SOAP client).
type Target interface {
	// AddAndDelete creates a uniquely named file with ten attributes and
	// deletes it again (the paper's add workload).
	AddAndDelete(name string, attrs []core.Attribute) error
	// SimpleQuery matches a single static attribute (the file name).
	SimpleQuery(name string) error
	// AttrQuery matches k user-defined attributes.
	AttrQuery(preds []core.Predicate) error
}

// Direct runs operations straight against the catalog engine.
type Direct struct{ Catalog *core.Catalog }

// AddAndDelete implements Target.
func (d Direct) AddAndDelete(name string, attrs []core.Attribute) error {
	if _, err := d.Catalog.CreateFile(LoaderDN, core.FileSpec{
		Name: name, DataType: "binary", Attributes: attrs,
	}); err != nil {
		return err
	}
	return d.Catalog.DeleteFile(LoaderDN, name, 0)
}

// SimpleQuery implements Target.
func (d Direct) SimpleQuery(name string) error {
	_, err := d.Catalog.RunQuery(LoaderDN, core.Query{Predicates: []core.Predicate{
		{Attribute: "name", Op: core.OpEq, Value: core.String(name)},
	}})
	return err
}

// AttrQuery implements Target.
func (d Direct) AttrQuery(preds []core.Predicate) error {
	_, err := d.Catalog.RunQuery(LoaderDN, core.Query{Predicates: preds})
	return err
}

// SOAP runs operations through the web-service stack.
type SOAP struct{ Client *mcs.Client }

// AddAndDelete implements Target.
func (s SOAP) AddAndDelete(name string, attrs []core.Attribute) error {
	if _, err := s.Client.CreateFile(core.FileSpec{
		Name: name, DataType: "binary", Attributes: attrs,
	}); err != nil {
		return err
	}
	return s.Client.DeleteFile(name, 0)
}

// SimpleQuery implements Target.
func (s SOAP) SimpleQuery(name string) error {
	_, err := s.Client.RunQuery(core.Query{Predicates: []core.Predicate{
		{Attribute: "name", Op: core.OpEq, Value: core.String(name)},
	}})
	return err
}

// AttrQuery implements Target.
func (s SOAP) AttrQuery(preds []core.Predicate) error {
	_, err := s.Client.RunQuery(core.Query{Predicates: preds})
	return err
}

// Op selects a workload.
type Op int

// Workloads.
const (
	OpAdd Op = iota
	OpSimpleQuery
	OpComplexQuery
)

// RunRate drives hosts×threads workers against per-host targets for the
// given duration and returns the aggregate operation rate per second.
// attrK is the predicate count for OpComplexQuery (the paper uses 10).
// A non-nil hist receives every completed operation's wall time (the same
// fixed-bucket histogram the server's /metrics endpoint uses, so client-side
// p50/p95/p99 are directly comparable with server-side numbers).
func RunRate(targets []Target, threadsPerHost int, d time.Duration, op Op, cfg Config, attrK int, hist *obs.Histogram) float64 {
	var total atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for h, tgt := range targets {
		for t := 0; t < threadsPerHost; t++ {
			wg.Add(1)
			go func(h, t int, tgt Target) {
				defer wg.Done()
				iter := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					iter++
					var err error
					opStart := time.Now()
					switch op {
					case OpAdd:
						name := fmt.Sprintf("bench-add-h%02d-t%02d-%08d", h, t, iter)
						err = tgt.AddAndDelete(name, FileAttributes(iter, cfg.AttrsPerFile))
					case OpSimpleQuery:
						err = tgt.SimpleQuery(FileName((h*31 + t*17 + iter*7919) % cfg.Files))
					case OpComplexQuery:
						err = tgt.AttrQuery(Predicates(attrK, (h+t+iter)%valueGroups))
					}
					if hist != nil {
						hist.Observe(time.Since(opStart))
					}
					if err != nil {
						// Benchmark operations are designed not to fail;
						// surface problems loudly rather than skewing rates.
						panic(fmt.Sprintf("bench: worker h=%d t=%d: %v", h, t, err))
					}
					total.Add(1)
				}
			}(h, t, tgt)
		}
	}
	start := time.Now()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	return float64(total.Load()) / elapsed.Seconds()
}
