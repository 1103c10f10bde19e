// LIGO/Pegasus example: the paper's section 6.1 scenario, end to end.
//
// A Pegasus-style planner receives an abstract pulsar-search workflow.
// It queries the MCS for existing data products (data reuse), locates raw
// gravitational-wave frames through the Replica Location Service, stages
// them from an archive site with parallel GridFTP streams, runs the
// transformations, and registers the new data products — with the
// LIGO-specific user-defined attributes the paper mentions (23 of them) —
// back into the MCS and RLS. A second planning pass then shows every job
// pruned, because the products already exist.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"mcs"
	"mcs/internal/bloom"
	"mcs/internal/core"
	"mcs/internal/gridftp"
	"mcs/internal/pegasus"
	"mcs/internal/rls"
)

const planner = "/O=LIGO/OU=Caltech/CN=pegasus-planner"

// ligoAttrs is the LIGO metadata ontology: the paper reports adding 23
// user-defined attributes for the experiment.
var ligoAttrs = []struct {
	name string
	typ  mcs.AttrType
}{
	{"interferometer", mcs.AttrString}, {"run", mcs.AttrString},
	{"dataProductType", mcs.AttrString}, {"channel", mcs.AttrString},
	{"frameType", mcs.AttrString}, {"calibrationVersion", mcs.AttrString},
	{"instrumentState", mcs.AttrString}, {"segmentQuality", mcs.AttrString},
	{"analysisGroup", mcs.AttrString}, {"pipelineVersion", mcs.AttrString},
	{"gpsStart", mcs.AttrInt}, {"gpsEnd", mcs.AttrInt},
	{"duration", mcs.AttrInt}, {"frameCount", mcs.AttrInt},
	{"sampleRate", mcs.AttrInt}, {"segmentNumber", mcs.AttrInt},
	{"freqLow", mcs.AttrFloat}, {"freqHigh", mcs.AttrFloat},
	{"snrThreshold", mcs.AttrFloat}, {"confidence", mcs.AttrFloat},
	{"observationDate", mcs.AttrDate}, {"calibrationTime", mcs.AttrDateTime},
	{"publishTime", mcs.AttrDateTime},
}

func main() {
	log.SetFlags(0)

	// --- Grid fabric: MCS, RLS (LRC + RLI), an archive GridFTP server. ---
	srv, err := mcs.NewServer(mcs.ServerOptions{})
	must(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go http.Serve(ln, srv) //nolint:errcheck
	catalog := mcs.NewClient("http://"+ln.Addr().String(), planner)
	fmt.Println("MCS up at http://" + ln.Addr().String())

	archiveStore := gridftp.NewMemStore()
	archive := gridftp.NewServer(archiveStore)
	archiveAddr, err := archive.Listen("127.0.0.1:0")
	must(err)
	defer archive.Close()
	fmt.Println("archive GridFTP server at", archiveAddr)

	lrc := rls.NewLRC("lrc://ligo-archive")
	rli := rls.NewRLI()
	updater := &rls.Updater{
		LRC: lrc, BloomFP: 0.01, TTL: time.Minute, Interval: 50 * time.Millisecond,
		Push: func(name string, lfns []string, b *bloom.Filter, ttl time.Duration) error {
			rli.UpdateBloom(name, b, ttl)
			return nil
		},
	}
	must(updater.Start())
	defer updater.Stop()

	// --- Declare the LIGO ontology (23 user-defined attributes). ---
	for _, a := range ligoAttrs {
		_, err := catalog.DefineAttribute(a.name, a.typ, "LIGO "+a.name)
		must(err)
	}
	fmt.Printf("defined %d LIGO user attributes in the MCS\n", len(ligoAttrs))

	// --- Publish the raw S2 frames: archive data + RLS + MCS metadata. ---
	rawFrames := []string{"H-R-730000000-16.gwf", "H-R-730000016-16.gwf", "H-R-730000032-16.gwf"}
	for i, lfn := range rawFrames {
		content := []byte(strings.Repeat(fmt.Sprintf("strain[%d];", i), 2000))
		archiveStore.Put(lfn, content)
		lrc.Add(lfn, "gsiftp://"+archiveAddr+"/"+lfn)
		_, err := catalog.CreateFile(mcs.FileSpec{
			Name: lfn, DataType: "binary",
			Attributes: []mcs.Attribute{
				{Name: "interferometer", Value: mcs.String("H1")},
				{Name: "run", Value: mcs.String("S2")},
				{Name: "dataProductType", Value: mcs.String("rawFrame")},
				{Name: "gpsStart", Value: mcs.Int(int64(730000000 + 16*i))},
				{Name: "duration", Value: mcs.Int(16)},
				{Name: "sampleRate", Value: mcs.Int(16384)},
			},
			Provenance: "recorded by the Hanford 4km interferometer",
		})
		must(err)
	}
	fmt.Printf("published %d raw frames (MCS metadata, RLS locations, archive copies)\n", len(rawFrames))

	// --- Pegasus: an abstract pulsar-search workflow. ---
	wf := pegasus.Workflow{
		Name: "pulsar-search-S2",
		Jobs: []pegasus.Job{
			{
				ID: "merge", Executable: "frame-merge",
				Args:    append([]string{"H-R-merged-S2.gwf"}, rawFrames...),
				Inputs:  rawFrames,
				Outputs: []string{"H-R-merged-S2.gwf"},
				OutputMeta: map[string][]core.Attribute{
					"H-R-merged-S2.gwf": {
						{Name: "dataProductType", Value: mcs.String("timeSeries")},
						{Name: "run", Value: mcs.String("S2")},
						{Name: "duration", Value: mcs.Int(48)},
					},
				},
			},
			{
				ID: "search", Executable: "pulsar-search",
				Args:    []string{"pulsar-candidates-S2.xml", "H-R-merged-S2.gwf"},
				Inputs:  []string{"H-R-merged-S2.gwf"},
				Outputs: []string{"pulsar-candidates-S2.xml"},
				OutputMeta: map[string][]core.Attribute{
					"pulsar-candidates-S2.xml": {
						{Name: "dataProductType", Value: mcs.String("pulsarSearch")},
						{Name: "run", Value: mcs.String("S2")},
						{Name: "freqLow", Value: mcs.Float(40.0)},
						{Name: "freqHigh", Value: mcs.Float(60.0)},
					},
				},
			},
		},
	}

	// The executor's site storage, fed by real GridFTP transfers.
	site := map[string][]byte{}
	exec := &pegasus.Executor{
		Metadata: catalog,
		Replicas: lrc,
		Transforms: map[string]pegasus.TransformFunc{
			"frame-merge": func(args []string, in map[string][]byte) (map[string][]byte, error) {
				var merged []byte
				for _, name := range args[1:] {
					merged = append(merged, in[name]...)
				}
				return map[string][]byte{args[0]: merged}, nil
			},
			"pulsar-search": func(args []string, in map[string][]byte) (map[string][]byte, error) {
				candidates := fmt.Sprintf("<candidates run=\"S2\" inputBytes=\"%d\"/>",
					len(in[args[1]]))
				return map[string][]byte{args[0]: []byte(candidates)}, nil
			},
		},
		ReadLocal:  func(lfn string) ([]byte, bool) { d, ok := site[lfn]; return d, ok },
		WriteLocal: func(lfn string, data []byte) { site[lfn] = data },
		Fetch: func(pfn string) ([]byte, error) {
			// pfn is gsiftp://host:port/name — fetch with 4 parallel streams.
			rest := strings.TrimPrefix(pfn, "gsiftp://")
			slash := strings.IndexByte(rest, '/')
			return gridftp.NewClient(rest[:slash], 4).Retrieve(rest[slash+1:])
		},
		PFNPrefix: "site://isi-condor/",
	}

	plnr := &pegasus.Planner{Metadata: catalog, Replicas: lrc, Site: "isi-condor"}
	plan, err := plnr.Plan(wf)
	must(err)
	fmt.Printf("\nplan 1: %d concrete jobs (%s)\n", len(plan.Jobs), describe(plan))
	res, err := exec.Execute(plan)
	must(err)
	fmt.Printf("executed: %d stage-ins over GridFTP, %d computes, %d products registered\n",
		res.StagedIn, res.ComputeRan, res.Registered)

	// --- Discovery: find the pulsar-search product by its attributes. ---
	names, err := catalog.RunQuery(mcs.Query{Predicates: []mcs.Predicate{
		{Attribute: "dataProductType", Op: mcs.OpEq, Value: mcs.String("pulsarSearch")},
		{Attribute: "run", Op: mcs.OpEq, Value: mcs.String("S2")},
		{Attribute: "freqLow", Op: mcs.OpGe, Value: mcs.Float(40.0)},
	}})
	must(err)
	fmt.Printf("\nMCS attribute query for S2 pulsar products -> %v\n", names)
	prov, err := catalog.Provenance(names[0], 0)
	must(err)
	fmt.Printf("provenance of %s: %s\n", names[0], prov[0].Description)
	pfns := lrc.Lookup(names[0])
	fmt.Printf("RLS locations: %v\n", pfns)

	// --- Re-plan: everything already materialized -> full pruning. ---
	plan2, err := plnr.Plan(wf)
	must(err)
	fmt.Printf("\nplan 2 (re-run): %d jobs, pruned %v — data reuse from the MCS\n",
		len(plan2.Jobs), plan2.Pruned)

	// The RLI (soft state) now also resolves the products after the next
	// periodic summary push.
	time.Sleep(150 * time.Millisecond)
	lrcs := rli.Query(names[0])
	fmt.Printf("RLI soft-state resolves %s to LRCs %v\n", names[0], lrcs)
}

func describe(p *pegasus.Plan) string {
	counts := map[pegasus.JobType]int{}
	for _, j := range p.Jobs {
		counts[j.Type]++
	}
	return fmt.Sprintf("%d stage-in, %d compute, %d register",
		counts[pegasus.JobStageIn], counts[pegasus.JobCompute], counts[pegasus.JobRegister])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
