package main

import (
	"fmt"
	"math/rand"

	"github.com/hpc-io/prov-io/internal/model"
)

// The six query classes of the query workloads.
const (
	classLineagePath  = "lineage_path"  // prov:wasDerivedFrom+ ancestry of one attribute
	classLineageKHop  = "lineage_khop"  // k-hop lineage reduction around one object
	classWhoModified  = "who_modified"  // Table 5 q3: which program and user wrote a file
	classOpCounts     = "op_counts"     // Table 5 q1: GROUP BY API class for one program
	classTopDurations = "top_durations" // Table 5 q2: ORDER BY DESC(?elapsed) LIMIT 20
	classBulkExport   = "bulk_export"   // thousands of activity rows, rendered
)

var classes = []string{classLineagePath, classLineageKHop, classWhoModified,
	classOpCounts, classTopDurations, classBulkExport}

// roundPlan is one round of the closed loop: per class, how many fresh
// requests and how many repeats of an earlier request of the same class.
// Five of twenty requests repeat (the SPARQL result memo sees them); the
// three sweeps are always fresh so they always execute.
var roundPlan = []struct {
	class         string
	fresh, repeat int
}{
	{classLineagePath, 5, 3},
	{classLineageKHop, 3, 1},
	{classWhoModified, 4, 1},
	{classOpCounts, 1, 0},
	{classTopDurations, 1, 0},
	{classBulkExport, 1, 0},
}

// request is one query of the mix: SPARQL text, or a lineage reduction of
// root to hops hops when query is empty.
type request struct {
	class string
	query string
	root  string
	hops  int
}

// key identifies the request's answer for the oracle.
func (r request) key() string {
	if r.query != "" {
		return r.query
	}
	return fmt.Sprintf("lineage %d %s", r.hops, r.root)
}

// mix generates the request stream of a query workload from its seed. The
// constants address objects the query store's plan is known to hold;
// maxStart bounds the virtual start times recorded in it.
type mix struct {
	rng      *rand.Rand
	sh       shape
	maxStart int64
	history  map[string][]request
	fresh    int // requests generated so far
}

func newMix(seed int64, sh shape, maxStart int64) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed)), sh: sh, maxStart: maxStart, history: map[string][]request{}}
}

// bulkCuts is the number of distinct bulk exports per seed.
const bulkCuts = 8

var programs = []string{"tdms2h5-a1", "decimate-a1", "xcorr_stack-a1"}

func (m *mix) filePath() string {
	i := m.rng.Intn(m.sh.Files)
	if m.rng.Intn(2) == 0 {
		return productPath(i)
	}
	return convertedPath(i)
}

func (m *mix) datasetID() string {
	return fmt.Sprintf("%s/channel_%02d", m.filePath(), m.rng.Intn(m.sh.Channels))
}

// startCut returns a virtual start time in [lo, hi) fractions of maxStart.
func (m *mix) startCut(lo, hi float64) int64 {
	span := float64(m.maxStart) * (hi - lo)
	return int64(float64(m.maxStart)*lo + m.rng.Float64()*span)
}

func (m *mix) attrID() string {
	return fmt.Sprintf("%s/.attrs/%s", m.datasetID(), attrName(m.rng.Intn(m.sh.Attrs)))
}

// next returns a fresh request of the class. The store is small, so the
// selective classes' constants repeat often; a variable named after the
// request's sequence number keeps each fresh text distinct, so repeats of
// a text are the planned ones.
func (m *mix) next(class string) request {
	m.fresh++
	r := request{class: class}
	switch class {
	case classLineagePath:
		r.query = fmt.Sprintf("SELECT ?ancestor%d WHERE { <%s> prov:wasDerivedFrom+ ?ancestor%d . }",
			m.fresh, model.NodeIRI(model.Attribute, m.attrID()), m.fresh)
	case classLineageKHop:
		switch m.rng.Intn(3) {
		case 0:
			r.root = model.NodeIRI(model.Attribute, m.attrID())
		case 1:
			r.root = model.NodeIRI(model.Dataset, m.datasetID())
		default:
			r.root = model.NodeIRI(model.File, m.filePath())
		}
		r.hops = 1
	case classWhoModified:
		r.query = fmt.Sprintf(`SELECT DISTINCT ?program ?user WHERE {
  ?dataset%d prov:wasDerivedFrom <%s> .
  ?dataset%d provio:wasWrittenBy ?api .
  ?api prov:wasAssociatedWith ?program .
  ?program prov:actedOnBehalfOf ?user .
}`, m.fresh, model.NodeIRI(model.File, m.filePath()), m.fresh)
	case classOpCounts:
		prog := programs[m.rng.Intn(len(programs)-1)] // the two per-file programs
		r.query = fmt.Sprintf(`SELECT ?type (COUNT(?api) AS ?calls) (SUM(?elapsed) AS ?total) WHERE {
  ?api prov:wasAssociatedWith <%s> ;
       a ?type ;
       provio:elapsed ?elapsed ;
       provio:startedAt ?t .
  FILTER(?t < %d)
} GROUP BY ?type ORDER BY ?type`, model.NodeIRI(model.Program, prog), m.startCut(0.75, 1))
	case classTopDurations:
		r.query = fmt.Sprintf(`SELECT ?api ?elapsed WHERE {
  ?api prov:wasMemberOf prov:Activity ;
       provio:elapsed ?elapsed ;
       provio:startedAt ?t .
  FILTER(?t >= %d)
} ORDER BY DESC(?elapsed) ?api LIMIT 20`, m.startCut(0, 0.25))
	case classBulkExport:
		// A few cut points only: each export result is large, and the
		// merged graph's result memo keeps every distinct one.
		cut := m.maxStart / 8 * int64(m.rng.Intn(bulkCuts)) / bulkCuts
		r.query = fmt.Sprintf(`SELECT ?api ?type ?elapsed ?t WHERE {
  ?api a ?type ;
       provio:elapsed ?elapsed ;
       provio:startedAt ?t .
  FILTER(?t >= %d)
}`, cut)
	}
	return r
}

// round returns the next round of requests in a seeded order.
func (m *mix) round() []request {
	var out []request
	for _, p := range roundPlan {
		for i := 0; i < p.fresh; i++ {
			r := m.next(p.class)
			m.history[p.class] = append(m.history[p.class], r)
			out = append(out, r)
		}
		for i := 0; i < p.repeat; i++ {
			h := m.history[p.class]
			out = append(out, h[m.rng.Intn(len(h))])
		}
	}
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
