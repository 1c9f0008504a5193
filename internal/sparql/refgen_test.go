package sparql

// A seeded generator of small stores and random queries for the
// reference differential. Queries are emitted as text (so the parser is
// exercised too) and stay inside the well-designed fragment where the
// engine's correlated evaluation of OPTIONAL, UNION, MINUS and EXISTS
// inners coincides with the SPARQL algebra's bottom-up evaluation:
//
//   - a group lists its required triple patterns first, then its nested
//     elements, then its filters;
//   - a nested group mentions only variables certainly bound before it
//     plus fresh ones, and its filters read only its own variables
//     (an OPTIONAL's filters may also read the left side: they are the
//     LeftJoin condition);
//   - closure paths (+, *, ?) always have a constant or already bound
//     endpoint, and appear outside GRAPH; a bound endpoint is a vertex
//     bound by a plain pattern. The executor evaluates a closure with
//     its start substituted, so a zero-length path (* or ?) from a term
//     that is no node of the data — a graph name, or a constant a
//     closure itself produced — matches that term, where the algebra's
//     bottom-up ALP, ranging over the data's nodes, does not;
//   - comparisons stay within one value sort (IRIs, integers, strings),
//     and ORDER BY only ever sorts IRIs, integers or strings, over every
//     projected column, so LIMIT and OFFSET see a total order.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/rdf"
)

const refNS = "http://ref/"

func refIRI(local string) rdf.Term { return rdf.NewIRI(refNS + local) }

// refData builds a small random dataset: a handful of vertices joined by
// two edge predicates, integer and string properties, spread over the
// default graph and two named graphs.
func refData(rng *rand.Rand) []rdf.Quad {
	nodes := 4 + rng.Intn(3)
	n := 20 + rng.Intn(20)
	seen := map[rdf.Quad]bool{}
	var out []rdf.Quad
	for len(out) < n {
		q := rdf.Quad{S: refIRI(fmt.Sprintf("v%d", rng.Intn(nodes)))}
		switch k := rng.Intn(20); {
		case k < 9:
			q.P, q.O = refIRI("a"), refIRI(fmt.Sprintf("v%d", rng.Intn(nodes)))
		case k < 13:
			q.P, q.O = refIRI("b"), refIRI(fmt.Sprintf("v%d", rng.Intn(nodes)))
		case k < 16:
			q.P, q.O = refIRI("age"), rdf.NewInteger(int64(rng.Intn(5)))
		default:
			q.P, q.O = refIRI("name"), rdf.NewLiteral(fmt.Sprintf("s%d", rng.Intn(3)))
		}
		switch k := rng.Intn(10); {
		case k < 3:
			q.G = refIRI("g0")
		case k < 6:
			q.G = refIRI("g1")
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// refSort is the value sort a variable ranges over.
type refSort uint8

const (
	sortNode  refSort = iota // vertex IRIs
	sortGraph                // named-graph IRIs: never a vertex, so never a path anchor
	sortReach                // bound by a closure path: maybe no vertex, so never a path anchor
	sortInt                  // xsd:integer literals
	sortStr                  // simple literals
	sortPred                 // predicate IRIs
	sortAny                  // the object of a variable predicate
)

// refQuery is one generated query and how to compare its results.
type refQuery struct {
	text string
	// ordered: ORDER BY totally orders the projected rows, so the
	// result sequence (not only the multiset) must match.
	ordered bool
}

// refGen generates queries; feats counts the constructs emitted.
// inGraph is set while generating the inside of a GRAPH block, where
// closure paths are not emitted (the engine and the reference both
// leave a closure's graph unbound).
type refGen struct {
	rng     *rand.Rand
	nvar    int
	feats   map[string]int
	inGraph bool
}

// gscope is the variable scope of one group under construction.
type gscope struct {
	sorts   map[string]refSort // every variable the group may bind
	certain map[string]bool    // ...of which certainly bound
}

func newScope() *gscope {
	return &gscope{sorts: map[string]refSort{}, certain: map[string]bool{}}
}

func (sc *gscope) bind(v string, s refSort, certain bool) {
	sc.sorts[v] = s
	if certain {
		sc.certain[v] = true
	}
}

// vars lists the scope's variables of the given sorts (all sorts when
// none are given), certain ones only when certainOnly, sorted.
func (sc *gscope) vars(certainOnly bool, sorts ...refSort) []string {
	var out []string
	for v, s := range sc.sorts {
		if certainOnly && !sc.certain[v] {
			continue
		}
		ok := len(sorts) == 0
		for _, want := range sorts {
			ok = ok || s == want
		}
		if ok {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func (g *refGen) mark(f string) { g.feats[f]++ }

func (g *refGen) fresh() string {
	g.nvar++
	return fmt.Sprintf("?x%d", g.nvar)
}

func (g *refGen) pick(vs []string) string { return vs[g.rng.Intn(len(vs))] }

func (g *refGen) chance(pct int) bool { return g.rng.Intn(100) < pct }

func (g *refGen) node() string {
	if g.chance(5) {
		return ":v9" // the data uses at most v0..v5: a constant that never matches
	}
	return fmt.Sprintf(":v%d", g.rng.Intn(6))
}

// query generates one SELECT query.
func (g *refGen) query() refQuery {
	var body strings.Builder
	sc := g.group(&body, newScope(), nil, 0)
	var q strings.Builder
	q.WriteString("PREFIX : <" + refNS + ">\n")
	ordered := false
	keys := sc.vars(true, sortNode, sortGraph, sortReach)
	if g.chance(30) {
		g.mark("aggregate")
		var key string
		if len(keys) > 0 && g.chance(70) {
			key = g.pick(keys)
			g.mark("group by")
		}
		q.WriteString("SELECT ")
		if key != "" {
			q.WriteString(key + " ")
		}
		ints := sc.vars(true, sortInt)
		naggs := 1 + g.rng.Intn(2)
		for i := 0; i < naggs; i++ {
			var agg string
			switch k := g.rng.Intn(6); {
			case k == 0:
				agg = "COUNT(*)"
			case k == 1:
				agg = "COUNT(" + g.pick(sc.vars(false)) + ")"
			case k == 2:
				agg = "COUNT(DISTINCT " + g.pick(sc.vars(false)) + ")"
			case len(ints) == 0:
				agg = "COUNT(*)"
			default:
				fn := []string{"SUM", "MIN", "MAX"}[k-3]
				agg = fn + "(" + g.pick(ints) + ")"
			}
			g.mark(agg[:strings.IndexByte(agg, '(')])
			fmt.Fprintf(&q, "(%s AS ?agg%d) ", agg, i)
		}
		fmt.Fprintf(&q, "WHERE {\n%s}", body.String())
		if key != "" {
			q.WriteString(" GROUP BY " + key)
			if g.chance(25) {
				q.WriteString(" HAVING (COUNT(*) > 1)")
				g.mark("having")
			}
			if g.chance(40) {
				// Group keys are distinct, so this is a total order.
				fmt.Fprintf(&q, " ORDER BY %s LIMIT %d", g.orderKey(key), 1+g.rng.Intn(3))
				ordered = true
				g.mark("order by")
				g.mark("limit")
			}
		}
		return refQuery{text: q.String(), ordered: ordered}
	}

	all := sc.vars(false)
	if len(all) == 0 {
		all = []string{g.fresh()} // an unbound projection
	}
	g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	proj := all[:1+g.rng.Intn(min(4, len(all)))]
	q.WriteString("SELECT ")
	if g.chance(30) {
		q.WriteString("DISTINCT ")
		g.mark("distinct")
	}
	q.WriteString(strings.Join(proj, " "))
	fmt.Fprintf(&q, " WHERE {\n%s}", body.String())
	sortable := true
	for _, v := range proj {
		if s, ok := sc.sorts[v]; ok && s == sortAny {
			sortable = false
		}
	}
	if sortable && g.chance(45) {
		g.mark("order by")
		order := append([]string(nil), proj...)
		g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		q.WriteString(" ORDER BY")
		for _, v := range order {
			q.WriteString(" " + g.orderKey(v))
		}
		ordered = true
		if g.chance(40) {
			fmt.Fprintf(&q, " OFFSET %d", g.rng.Intn(4))
			g.mark("offset")
		}
		if g.chance(60) {
			fmt.Fprintf(&q, " LIMIT %d", 1+g.rng.Intn(5))
			g.mark("limit")
		}
	}
	return refQuery{text: q.String(), ordered: ordered}
}

func (g *refGen) orderKey(v string) string {
	if g.chance(40) {
		return "DESC(" + v + ")"
	}
	if g.chance(30) {
		return "ASC(" + v + ")"
	}
	return v
}

// group writes one group's body and returns its scope. outer holds the
// variables certainly bound when the group starts (its correlation
// context); cond holds extra variables its filters may read.
func (g *refGen) group(b *strings.Builder, outer, cond *gscope, depth int) *gscope {
	sc := newScope()
	// bound: variables bound at this point of the evaluation, the ones
	// a closure path may start from.
	bound := map[string]refSort{}
	for _, v := range outer.vars(true) {
		bound[v] = outer.sorts[v]
	}

	// Required triple patterns, maybe inside GRAPH.
	var req strings.Builder
	wrap := !g.inGraph && depth < 2 && g.chance(12)
	npat := 1 + g.rng.Intn(2)
	if depth == 0 {
		npat++
	}
	for i := 0; i < npat; i++ {
		g.pattern(&req, sc, bound, i == 0, wrap)
	}
	if wrap {
		g.mark("graph")
		if g.chance(60) {
			gv := g.fresh()
			fmt.Fprintf(b, "GRAPH %s {\n%s}\n", gv, req.String())
			sc.bind(gv, sortGraph, true)
		} else {
			fmt.Fprintf(b, "GRAPH :g%d {\n%s}\n", g.rng.Intn(2), req.String())
		}
	} else {
		b.WriteString(req.String())
	}
	// Nested elements see only what this group itself binds: mentioning
	// a context variable the group does not bind would leave the
	// well-designed fragment.
	bound = map[string]refSort{}
	for v := range sc.certain {
		bound[v] = sc.sorts[v]
	}

	// Nested elements.
	nextra := g.rng.Intn(3)
	if depth >= 2 {
		nextra = 0
	} else if depth == 1 {
		nextra = g.rng.Intn(2)
		if g.inGraph {
			nextra = 1 // a GRAPH group exists to scope nested elements
		}
	}
	for i := 0; i < nextra; i++ {
		g.nested(b, sc, bound, depth)
	}

	// Filters over the group's own variables (plus cond).
	nf := g.rng.Intn(3)
	for i := 0; i < nf; i++ {
		if f := g.filter(sc, cond, depth); f != "" {
			fmt.Fprintf(b, "FILTER (%s)\n", f)
		}
	}
	return sc
}

// pattern writes one triple pattern (possibly with a property path)
// into b, binding its fresh variables in sc. The pattern shares a
// variable with the bound ones when any exist — always when anchor is
// set, almost always otherwise (a rare cross product stays in the mix).
func (g *refGen) pattern(b *strings.Builder, sc *gscope, bound map[string]refSort, anchor, inGraph bool) {
	inGraph = inGraph || g.inGraph
	var nodes []string
	for v, s := range bound {
		if s == sortNode {
			nodes = append(nodes, v)
		}
	}
	sort.Strings(nodes)
	connect := len(nodes) > 0 && (anchor || !g.chance(3))
	// use records a context variable the pattern mentions: the pattern
	// binds it in this group too.
	use := func(v string) string {
		sc.bind(v, sortNode, true)
		return v
	}
	var joinSubj, joinObj bool
	subj := func() string {
		switch {
		case joinSubj:
			return use(g.pick(nodes))
		case g.chance(12):
			return g.node()
		default:
			v := g.fresh()
			sc.bind(v, sortNode, true)
			return v
		}
	}
	obj := func(s refSort) string {
		switch {
		case joinObj:
			return use(g.pick(nodes))
		case g.chance(12):
			switch s {
			case sortNode, sortReach:
				return g.node()
			case sortInt:
				return fmt.Sprint(g.rng.Intn(5))
			case sortStr:
				return fmt.Sprintf(`"s%d"`, g.rng.Intn(3))
			}
		}
		v := g.fresh()
		sc.bind(v, s, true)
		return v
	}
	// edge connects through either end, anything else through its
	// subject; both ends are sometimes bound.
	edge := func() {
		joinSubj = connect && g.chance(60)
		joinObj = connect && (!joinSubj || g.chance(15))
	}
	switch k := g.rng.Intn(22); {
	case k < 8:
		edge()
		s := subj()
		fmt.Fprintf(b, "%s :a %s .\n", s, obj(sortNode))
	case k < 11:
		edge()
		s := subj()
		fmt.Fprintf(b, "%s :b %s .\n", s, obj(sortNode))
	case k < 13:
		joinSubj = connect
		s := subj()
		fmt.Fprintf(b, "%s :age %s .\n", s, obj(sortInt))
	case k < 15:
		joinSubj = connect
		s := subj()
		fmt.Fprintf(b, "%s :name %s .\n", s, obj(sortStr))
	case k < 16:
		joinSubj = connect
		s := subj()
		p := g.fresh()
		sc.bind(p, sortPred, true)
		o := obj(sortAny)
		fmt.Fprintf(b, "%s %s %s .\n", s, p, o)
	case k < 19 || inGraph:
		// Non-closure paths: inverse, sequence, alternative.
		edge()
		s := subj()
		path := [][2]string{{"^:a", "^"}, {"^:b", "^"}, {":a/:b", "/"}, {":a/^:a", "/"},
			{":a|:b", "|"}, {"(:a|^:b)", "|"}}[g.rng.Intn(6)]
		g.mark("path" + path[1])
		fmt.Fprintf(b, "%s %s %s .\n", s, path[0], obj(sortNode))
	default:
		// Closure: one endpoint constant or already bound.
		path := [][2]string{{":a+", "+"}, {":a*", "*"}, {"(:a|:b)+", "+"}, {"^:a*", "*"},
			{":b?", "?"}, {"(:a/:b)*", "*"}, {"(^:b)+", "+"}}[g.rng.Intn(7)]
		g.mark("path" + path[1])
		var end string
		if len(nodes) > 0 && (connect || g.chance(75)) {
			end = use(g.pick(nodes))
		} else {
			end = g.node()
		}
		joinObj = len(nodes) > 0 && g.chance(15)
		other := obj(sortReach)
		if g.chance(50) {
			fmt.Fprintf(b, "%s %s %s .\n", end, path[0], other)
		} else {
			fmt.Fprintf(b, "%s %s %s .\n", other, path[0], end)
		}
	}
	g.mark("bgp")
	// Later patterns of the group may anchor on what this one bound.
	for v, s := range sc.sorts {
		if sc.certain[v] && s == sortNode {
			bound[v] = s
		}
	}
}

// nested writes one OPTIONAL, UNION, MINUS, BIND, VALUES or sub-select
// element after the group's required patterns.
func (g *refGen) nested(b *strings.Builder, sc *gscope, bound map[string]refSort, depth int) {
	ctx := newScope()
	for v, s := range bound {
		ctx.bind(v, s, true)
	}
	switch k := g.rng.Intn(13); {
	case k >= 11:
		if g.inGraph {
			return
		}
		// A GRAPH around a whole group: its nested elements and
		// filters are scoped to the graph too.
		g.mark("graph")
		g.mark("graph group")
		var inner strings.Builder
		g.inGraph = true
		isc := g.group(&inner, ctx, nil, depth+1)
		g.inGraph = false
		if g.chance(60) {
			gv := g.fresh()
			fmt.Fprintf(b, "GRAPH %s {\n%s}\n", gv, inner.String())
			sc.bind(gv, sortGraph, true)
		} else {
			fmt.Fprintf(b, "GRAPH :g%d {\n%s}\n", g.rng.Intn(2), inner.String())
		}
		g.adopt(sc, isc, true)
	case k < 3:
		g.mark("optional")
		var inner strings.Builder
		isc := g.group(&inner, ctx, ctx, depth+1)
		fmt.Fprintf(b, "OPTIONAL {\n%s}\n", inner.String())
		g.adopt(sc, isc, false)
	case k < 5:
		g.mark("union")
		var l, r strings.Builder
		lsc := g.group(&l, ctx, nil, depth+1)
		rsc := g.group(&r, ctx, nil, depth+1)
		fmt.Fprintf(b, "{\n%s} UNION {\n%s}\n", l.String(), r.String())
		g.adopt(sc, lsc, false)
		g.adopt(sc, rsc, false)
	case k < 6:
		g.mark("minus")
		var inner strings.Builder
		msc := newScope()
		anchor := map[string]refSort{}
		for v, s := range bound {
			anchor[v] = s
		}
		g.pattern(&inner, msc, anchor, true, false)
		if g.chance(30) {
			if f := g.filter(msc, nil, depth+1); f != "" {
				fmt.Fprintf(&inner, "FILTER (%s)\n", f)
			}
		}
		fmt.Fprintf(b, "MINUS {\n%s}\n", inner.String())
	case k < 8:
		g.mark("bind")
		v := g.fresh()
		ints := sc.vars(false, sortInt)
		nodes := sc.vars(false, sortNode, sortGraph, sortReach)
		switch {
		case len(ints) > 0 && g.chance(70):
			x := g.pick(ints)
			if g.chance(50) {
				fmt.Fprintf(b, "BIND (%s + %d AS %s)\n", x, g.rng.Intn(3), v)
			} else {
				fmt.Fprintf(b, "BIND (%s - %s AS %s)\n", x, g.pick(ints), v)
			}
			sc.bind(v, sortInt, false)
		case len(nodes) > 0 && g.chance(60):
			x := g.pick(nodes)
			fmt.Fprintf(b, "BIND (%s AS %s)\n", x, v)
			sc.bind(v, sc.sorts[x], sc.certain[x])
		default:
			fmt.Fprintf(b, "BIND (%d AS %s)\n", g.rng.Intn(5), v)
			sc.bind(v, sortInt, true)
		}
	case k < 10:
		g.mark("values")
		var v string
		if nodes := sc.vars(true, sortNode); len(nodes) > 0 && g.chance(70) {
			v = g.pick(nodes)
		} else {
			v = g.fresh()
			sc.bind(v, sortNode, false)
		}
		rows := 1 + g.rng.Intn(4)
		fmt.Fprintf(b, "VALUES %s {", v)
		for i := 0; i < rows; i++ {
			if g.chance(15) {
				b.WriteString(" UNDEF")
			} else {
				b.WriteString(" " + g.node())
			}
		}
		b.WriteString(" }\n")
	default:
		g.mark("subselect")
		nodes := sc.vars(true, sortNode)
		if len(nodes) == 0 {
			return
		}
		key := g.pick(nodes)
		// An independent scope: the key is the only shared name, and it
		// is not bound when the sub-select runs.
		isc := newScope()
		other := g.fresh()
		pred := []string{":a", ":b"}[g.rng.Intn(2)]
		var inner strings.Builder
		if g.chance(50) {
			fmt.Fprintf(&inner, "%s %s %s .\n", key, pred, other)
		} else {
			fmt.Fprintf(&inner, "%s %s %s .\n", other, pred, key)
		}
		isc.bind(key, sortNode, true)
		isc.bind(other, sortNode, true)
		if g.chance(50) {
			cnt := g.fresh()
			fmt.Fprintf(b, "{ SELECT %s (COUNT(%s) AS %s) WHERE {\n%s} GROUP BY %s }\n",
				key, other, cnt, inner.String(), key)
			sc.bind(cnt, sortInt, true)
		} else {
			fmt.Fprintf(b, "{ SELECT DISTINCT %s %s WHERE {\n%s} }\n", key, other, inner.String())
			sc.bind(other, sortNode, true)
		}
	}
}

// adopt records a nested group's variables in its parent's scope.
func (g *refGen) adopt(sc, inner *gscope, certain bool) {
	for v, s := range inner.sorts {
		if _, ok := sc.sorts[v]; !ok {
			sc.bind(v, s, certain && inner.certain[v])
		}
	}
}

// filter returns one filter expression over the scope's variables (and
// cond's), or "" when the scope offers nothing to test.
func (g *refGen) filter(sc, cond *gscope, depth int) string {
	sorts := map[string]refSort{}
	certain := map[string]bool{}
	for _, s := range []*gscope{sc, cond} {
		if s == nil {
			continue
		}
		for v, vs := range s.sorts {
			sorts[v] = vs
			certain[v] = certain[v] || s.certain[v]
		}
	}
	of := func(want ...refSort) []string {
		var out []string
		for v, s := range sorts {
			for _, w := range want {
				if s == w {
					out = append(out, v)
				}
			}
		}
		sort.Strings(out)
		return out
	}
	var atom func(int) string
	atom = func(level int) string {
		switch k := g.rng.Intn(10); {
		case k < 3:
			if ns := of(sortNode, sortGraph, sortReach, sortPred); len(ns) > 0 {
				op := []string{"=", "!="}[g.rng.Intn(2)]
				rhs := g.node()
				if g.chance(50) {
					rhs = g.pick(ns)
				}
				g.mark("filter")
				return fmt.Sprintf("%s %s %s", g.pick(ns), op, rhs)
			}
		case k < 5:
			if is := of(sortInt); len(is) > 0 {
				op := []string{"<", ">", "<=", ">=", "=", "!="}[g.rng.Intn(6)]
				rhs := fmt.Sprint(g.rng.Intn(5))
				if g.chance(40) {
					rhs = g.pick(is) + " + 1"
				}
				g.mark("filter")
				return fmt.Sprintf("%s %s %s", g.pick(is), op, rhs)
			}
		case k < 6:
			if ss := of(sortStr); len(ss) > 0 {
				g.mark("filter")
				return fmt.Sprintf(`%s != "s%d"`, g.pick(ss), g.rng.Intn(3))
			}
		case k < 7:
			if vs := of(sortNode, sortGraph, sortReach, sortInt, sortStr, sortAny, sortPred); len(vs) > 0 {
				g.mark("bound")
				if g.chance(50) {
					return "!BOUND(" + g.pick(vs) + ")"
				}
				return "BOUND(" + g.pick(vs) + ")"
			}
		case k < 9:
			if depth < 2 {
				// The pattern anchors on certainly bound variables, so
				// a closure in it always has a bound endpoint.
				ctx := newScope()
				for _, v := range of(sortNode) {
					if certain[v] {
						ctx.bind(v, sortNode, true)
					}
				}
				if len(ctx.sorts) > 0 {
					neg := g.chance(50)
					if neg {
						g.mark("not exists")
					} else {
						g.mark("exists")
					}
					var inner strings.Builder
					esc := newScope()
					anchor := map[string]refSort{}
					for v := range ctx.sorts {
						anchor[v] = sortNode
					}
					g.pattern(&inner, esc, anchor, true, false)
					if g.chance(30) {
						if f := g.filter(esc, ctx, depth+1); f != "" {
							fmt.Fprintf(&inner, "FILTER (%s)\n", f)
						}
					}
					kw := "EXISTS"
					if neg {
						kw = "NOT EXISTS"
					}
					return fmt.Sprintf("%s {\n%s}", kw, inner.String())
				}
			}
		default:
			if level < 2 {
				l, r := atom(level+1), atom(level+1)
				if l != "" && r != "" {
					switch g.rng.Intn(3) {
					case 0:
						return "(" + l + ") || (" + r + ")"
					case 1:
						return "(" + l + ") && (" + r + ")"
					default:
						return "!(" + l + ")"
					}
				}
			}
		}
		return ""
	}
	return atom(0)
}
