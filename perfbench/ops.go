package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
)

// opRNG derives an operation stream's generator from the run seed (the
// dataset generator uses the seed itself); stream tells the workloads'
// streams apart.
func opRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)*104729 + 1))
}

// newEdge is a generated edge for an update: its quads under one scheme
// and the quad that identifies it (present iff the edge is).
type newEdge struct {
	quads []rdf.Quad
	probe rdf.Quad
}

// makeEdge converts a fresh `follows` edge between two existing
// vertices with the scheme's own converter. Its KVs are the endpoints'
// shared tags (the dataset's edge-KV rule) plus a `since` year, so
// every edge carries at least one KV.
func makeEdge(s pgrdf.Scheme, id int64, src, dst vertexInfo, year int64) newEdge {
	g := pg.NewGraph()
	a, _ := g.AddVertexWithID(pg.ID(src.id))
	b, _ := g.AddVertexWithID(pg.ID(dst.id))
	e, _ := g.AddEdgeWithID(pg.ID(id), a.ID, b.ID, "follows")
	for _, t := range src.tags {
		for _, u := range dst.tags {
			if t == u {
				e.AddProperty("hasTag", pg.S(t))
			}
		}
	}
	e.SetProperty("since", pg.I(year))
	conv := &pgrdf.Converter{Scheme: s, Vocab: bench.Vocab(), Opts: pgrdf.DefaultOptions()}
	ds := conv.Convert(g)
	v := bench.Vocab()
	ne := newEdge{quads: append(ds.Topology, ds.EdgeKV...)}
	switch s {
	case pgrdf.NG:
		ne.probe = rdf.NewQuad(v.VertexIRI(a.ID), v.LabelIRI("follows"), v.VertexIRI(b.ID), v.EdgeIRI(e.ID))
	default:
		ne.probe = rdf.Quad{S: v.VertexIRI(a.ID), P: v.EdgeIRI(e.ID), O: v.VertexIRI(b.ID)}
	}
	return ne
}

// dataText renders quads as the body of INSERT DATA / DELETE DATA.
func dataText(verb string, quads []rdf.Quad) string {
	var b strings.Builder
	b.WriteString(verb)
	b.WriteString(" DATA { ")
	for _, q := range quads {
		if q.G.IsZero() {
			fmt.Fprintf(&b, "%s %s %s . ", q.S, q.P, q.O)
		} else {
			fmt.Fprintf(&b, "GRAPH %s { %s %s %s } ", q.G, q.S, q.P, q.O)
		}
	}
	b.WriteString("}")
	return b.String()
}

func askText(q rdf.Quad) string {
	if q.G.IsZero() {
		return fmt.Sprintf("ASK { %s %s %s }", q.S, q.P, q.O)
	}
	return fmt.Sprintf("ASK { GRAPH %s { %s %s %s } }", q.G, q.S, q.P, q.O)
}

// pickVertex draws a vertex; withTag insists on one carrying a tag.
func pickVertex(rng *rand.Rand, d *dataset, withTag bool) vertexInfo {
	for {
		v := d.vertices[rng.Intn(len(d.vertices))]
		if !withTag || len(v.tags) > 0 {
			return v
		}
	}
}

// pickPair draws the two distinct endpoints of a new edge.
func pickPair(rng *rand.Rand, d *dataset) (vertexInfo, vertexInfo) {
	a := pickVertex(rng, d, false)
	for {
		if b := pickVertex(rng, d, false); b.id != a.id {
			return a, b
		}
	}
}

// Serve-mixed shares of the op stream.
const (
	heavyShare  = 0.01
	updateShare = 0.09
)

var lightTemplates = []string{"EQ1", "EQ2", "EQ4", "EQ5a", "EQ8a", "EQ11a", "EQ11b"}
var heavyTemplates = []string{"EQ9", "EQ10", "EQ11d", "EQ12"}

// serveMixedOps builds the open-loop schedule: Poisson arrivals at rate
// per second for the given duration over the NG store. Light reads draw
// their tag and start vertex from the graph; updates insert new edges
// or delete earlier ones; heavy joins use the analytic tag and start.
func serveMixedOps(d *dataset, seed int64, rate float64, dur time.Duration) []*op {
	rng := opRNG(seed, 0)
	names := pgrdf.PartitionNames(prefixOf(pgrdf.NG))
	heavy := (&bench.Env{Tag: d.tag, StartNode: d.start}).Queries()
	var ops []*op
	var live []newEdge
	nextEdge := d.nextEdge
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return ops
		}
		o := &op{id: int64(len(ops) + 1), at: at}
		u := rng.Float64()
		switch {
		case u < heavyShare:
			q := heavyTemplates[rng.Intn(len(heavyTemplates))]
			o.kind, o.name, o.model, o.text = kindHeavy, q, names.Topology, heavy[q]
		case u < heavyShare+updateShare:
			o.kind, o.model = kindUpdate, names.Topology
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				o.name, o.text = "delete", dataText("DELETE", live[i].quads)
				live = append(live[:i], live[i+1:]...)
			} else {
				src, dst := pickPair(rng, d)
				ne := makeEdge(pgrdf.NG, nextEdge, src, dst, 2000+rng.Int63n(20))
				nextEdge++
				live = append(live, ne)
				o.name, o.text = "insert", dataText("INSERT", ne.quads)
			}
		default:
			q := lightTemplates[rng.Intn(len(lightTemplates))]
			tag := pickVertex(rng, d, true)
			start := pickVertex(rng, d, false)
			qs := (&bench.Env{Tag: tag.tags[rng.Intn(len(tag.tags))], StartNode: bench.Vocab().VertexIRI(pg.ID(start.id)).Value}).Queries()
			o.kind, o.name, o.model, o.text = kindRead, q, modelFor(pgrdf.NG, q), qs[q]
		}
		ops = append(ops, o)
	}
}

// writeStep is one op of the write-durable stream with what the checks
// need: the edge it touches and whether it inserts or deletes it.
type writeStep struct {
	op     *op
	edge   int // index into the stream's edges
	insert bool
}

// writeStream is the write-durable client's op stream and the edges it
// creates.
type writeStream struct {
	steps []writeStep
	edges []newEdge
}

// ops lists the stream's requests in order.
func (w writeStream) ops() []*op {
	out := make([]*op, len(w.steps))
	for i, s := range w.steps {
		out[i] = s.op
	}
	return out
}

// writeDurableOps builds the stream of total ops: it inserts SP edges
// with KVs and later deletes some of them, and after a third of its
// updates asks whether the edge it just wrote is (or is no longer)
// there. Three updates to one ASK gives the 75/25 mix.
func writeDurableOps(d *dataset, seed int64, total int) writeStream {
	names := pgrdf.PartitionNames(prefixOf(pgrdf.SP))
	rng := opRNG(seed, 1)
	var w writeStream
	var live []int
	for len(w.steps) < total {
		st := writeStep{op: &op{id: int64(len(w.steps) + 1), kind: kindUpdate, model: names.Topology}}
		if len(live) > 0 && rng.Float64() < 0.4 {
			i := rng.Intn(len(live))
			st.edge = live[i]
			live = append(live[:i], live[i+1:]...)
			st.op.name, st.op.text = "delete", dataText("DELETE", w.edges[st.edge].quads)
		} else {
			src, dst := pickPair(rng, d)
			ne := makeEdge(pgrdf.SP, d.nextEdge+int64(len(w.edges)), src, dst, 2000+rng.Int63n(20))
			st.edge, st.insert = len(w.edges), true
			w.edges = append(w.edges, ne)
			live = append(live, st.edge)
			st.op.name, st.op.text = "insert", dataText("INSERT", ne.quads)
		}
		w.steps = append(w.steps, st)
		if rng.Intn(3) == 0 && len(w.steps) < total {
			ask := writeStep{op: &op{id: int64(len(w.steps) + 1), kind: kindAsk, name: "ask", model: names.All,
				text: askText(w.edges[st.edge].probe)}, edge: st.edge, insert: st.insert}
			w.steps = append(w.steps, ask)
		}
	}
	return w
}
