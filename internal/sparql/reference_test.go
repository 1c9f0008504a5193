package sparql

// The reference evaluator: the executor's oracle. It walks the parsed
// AST over a plain quad list with nested loops and the SPARQL 1.1
// algebra — Join, LeftJoin, Minus, Union, Filter, Extend, ALP for
// property-path closures — with bag semantics and no indexes, planner,
// dictionary or batches (joins bucket their right side by the shared
// values, and sequence paths substitute their midpoint, so the paper
// queries finish at test scale). Its only shared code with the engine
// is the parser (it evaluates the engine's AST) and the rdf term types.
//
// Dataset semantics follow the engine's documented choice (package
// doc): a triple pattern outside GRAPH matches quads in any graph,
// default or named; GRAPH ?g ranges over named graphs and applies to
// everything nested inside it.
//
// Expressions cover the subset the random-query generator emits:
// variables, constants, the logical, comparison and integer arithmetic
// operators, BOUND, isIRI, isLiteral and (NOT) EXISTS, and the COUNT,
// SUM, MIN and MAX aggregates. Anything else reports errRefUnsupported.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// errRefUnsupported marks a construct outside the reference's subset.
var errRefUnsupported = errors.New("reference: unsupported construct")

// errRefType is an expression type error (unbound variable, mismatched
// operands): SPARQL's error value, which a FILTER treats as false.
var errRefType = errors.New("reference: type error")

// refSol is one solution mapping: variable name -> term. Absent names
// are unbound.
type refSol map[string]rdf.Term

func (s refSol) clone() refSol {
	c := make(refSol, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// compatible reports whether two solutions agree on their shared
// variables.
func compatible(a, b refSol) bool {
	for k, v := range a {
		if w, ok := b[k]; ok && !w.Equal(v) {
			return false
		}
	}
	return true
}

func merge(a, b refSol) refSol {
	m := a.clone()
	for k, v := range b {
		m[k] = v
	}
	return m
}

// refEval evaluates queries over quads. hidden numbers the fresh
// variables of sequence paths; their names start with a space, so no
// query can spell them.
type refEval struct {
	quads  []rdf.Quad
	hidden int
}

// refGraph is the active graph of a pattern: any graph, one named
// graph (term), or a variable over the named graphs.
type refGraph struct {
	kind GraphCtxKind
	term rdf.Term
	v    string
}

// Select evaluates a SELECT query and returns its projected rows in
// result order, in the column order of vars (a zero Term is unbound).
func (r *refEval) Select(sel *SelectQuery) (vars []string, rows [][]rdf.Term, err error) {
	return r.selectIn(sel, refGraph{})
}

// selectIn evaluates a (sub-)SELECT inside the active graph gctx.
func (r *refEval) selectIn(sel *SelectQuery, gctx refGraph) (vars []string, rows [][]rdf.Term, err error) {
	if sel.Star {
		return nil, nil, errRefUnsupported
	}
	sols, err := r.group(sel.Where, gctx, []refSol{{}})
	if err != nil {
		return nil, nil, err
	}
	grouped := len(sel.GroupBy) > 0
	for _, it := range sel.Projection {
		if it.Expr != nil && hasAggregate(it.Expr) {
			grouped = true
		}
	}
	if grouped {
		if sols, err = r.aggregate(sel, sols); err != nil {
			return nil, nil, err
		}
	} else {
		for _, it := range sel.Projection {
			if it.Expr == nil {
				continue
			}
			for i, s := range sols {
				if v, err := r.expr(it.Expr, s, refGraph{}); err == nil {
					s = s.clone()
					s[it.Var] = v
					sols[i] = s
				} else if err == errRefUnsupported {
					return nil, nil, err
				}
			}
		}
	}
	if len(sel.OrderBy) > 0 {
		keys := make([][]rdf.Term, len(sols))
		for i, s := range sols {
			for _, k := range sel.OrderBy {
				ev, ok := k.Expr.(ExprVar)
				if !ok {
					return nil, nil, errRefUnsupported
				}
				keys[i] = append(keys[i], s[ev.Name])
			}
		}
		idx := make([]int, len(sols))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, k := range sel.OrderBy {
				c := refOrder(keys[idx[a]][j], keys[idx[b]][j])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([]refSol, len(sols))
		for i, ix := range idx {
			sorted[i] = sols[ix]
		}
		sols = sorted
	}
	for _, it := range sel.Projection {
		vars = append(vars, it.Var)
	}
	seen := map[string]bool{}
	for _, s := range sols {
		row := make([]rdf.Term, len(vars))
		for j, v := range vars {
			row[j] = s[v]
		}
		if sel.Distinct {
			k := refRowKey(row)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		rows = append(rows, row)
	}
	if sel.Offset > 0 {
		if sel.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && sel.Limit < len(rows) {
		rows = rows[:sel.Limit]
	}
	return vars, rows, nil
}

func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case ExprAggregate:
		return true
	case ExprBinary:
		return hasAggregate(x.Left) || hasAggregate(x.Right)
	case ExprUnary:
		return hasAggregate(x.Inner)
	case ExprCall:
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// aggregate groups solutions by the GROUP BY variables (one implicit
// group when there are none, even over zero solutions), applies HAVING
// and evaluates the projection's aggregates per group.
func (r *refEval) aggregate(sel *SelectQuery, sols []refSol) ([]refSol, error) {
	var keyVars []string
	for _, g := range sel.GroupBy {
		ev, ok := g.(ExprVar)
		if !ok {
			return nil, errRefUnsupported
		}
		keyVars = append(keyVars, ev.Name)
	}
	groups := map[string][]refSol{}
	var order []string
	if len(keyVars) == 0 {
		groups[""] = nil
		order = append(order, "")
	}
	for _, s := range sols {
		key := make([]rdf.Term, len(keyVars))
		for i, v := range keyVars {
			key[i] = s[v]
		}
		k := refRowKey(key)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	var out []refSol
	for _, k := range order {
		members := groups[k]
		rep := refSol{}
		if len(members) > 0 {
			for _, v := range keyVars {
				if t, ok := members[0][v]; ok {
					rep[v] = t
				}
			}
		}
		keep := true
		for _, h := range sel.Having {
			t, err := r.groupExpr(h, members, rep)
			if err == errRefUnsupported {
				return nil, err
			}
			if ok, bok := refEBV(t); err != nil || !bok || !ok {
				keep = false
			}
		}
		if !keep {
			continue
		}
		for _, it := range sel.Projection {
			if it.Expr == nil {
				continue
			}
			t, err := r.groupExpr(it.Expr, members, rep)
			if err == errRefUnsupported {
				return nil, err
			}
			if err == nil {
				rep[it.Var] = t
			}
		}
		out = append(out, rep)
	}
	return out, nil
}

// groupExpr evaluates an expression over one group: aggregates fold
// the group's members, variables read the group key.
func (r *refEval) groupExpr(e Expr, members []refSol, rep refSol) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprAggregate:
		return r.fold(x, members)
	case ExprBinary:
		l, lerr := r.groupExpr(x.Left, members, rep)
		rt, rerr := r.groupExpr(x.Right, members, rep)
		if lerr == errRefUnsupported || rerr == errRefUnsupported {
			return rdf.Term{}, errRefUnsupported
		}
		return refBinary(x.Op, l, lerr, rt, rerr)
	default:
		return r.expr(e, rep, refGraph{})
	}
}

// fold computes one aggregate over a group. Values whose expression
// errors (an unbound variable) do not contribute.
func (r *refEval) fold(a ExprAggregate, members []refSol) (rdf.Term, error) {
	var vals []rdf.Term
	for _, s := range members {
		if a.Arg == nil {
			vals = append(vals, rdf.Term{})
			continue
		}
		t, err := r.expr(a.Arg, s, refGraph{})
		if err == errRefUnsupported {
			return rdf.Term{}, err
		}
		if err == nil {
			vals = append(vals, t)
		}
	}
	if a.Distinct {
		seen := map[string]bool{}
		var d []rdf.Term
		for _, v := range vals {
			if k := v.String(); !seen[k] {
				seen[k] = true
				d = append(d, v)
			}
		}
		vals = d
	}
	switch a.Func {
	case "COUNT":
		return rdf.NewInteger(int64(len(vals))), nil
	case "SUM":
		var sum int64
		for _, v := range vals {
			n, ok := refInt(v)
			if !ok {
				return rdf.Term{}, errRefUnsupported
			}
			sum += n
		}
		return rdf.NewInteger(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return rdf.Term{}, errRefType
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := refOrder(v, best)
			if a.Func == "MIN" && c < 0 || a.Func == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	}
	return rdf.Term{}, errRefUnsupported
}

// group evaluates a group graph pattern joined onto seed (the SPARQL
// translation of §18.2.2: elements fold left into Join, LeftJoin,
// Minus and Extend; the group's filters apply to the whole group).
func (r *refEval) group(g *GroupGraphPattern, gctx refGraph, seed []refSol) ([]refSol, error) {
	sols := seed
	var filters []Expr
	for _, el := range g.Elems {
		var err error
		switch x := el.(type) {
		case *TriplePattern:
			eff := gctx
			if gctx.kind == GraphAny && x.Graph.Kind != GraphAny {
				eff = refGraph{kind: x.Graph.Kind, term: x.Graph.Term, v: x.Graph.Var}
			}
			var pat []refSol
			if pat, err = r.path(x.S, x.P, x.O, eff); err == nil {
				sols = join(sols, pat)
			}
		case *GraphPattern:
			inner := refGraph{kind: GraphTerm, term: x.Graph.Term}
			if x.Graph.IsVar {
				inner = refGraph{kind: GraphVar, v: x.Graph.Var}
			}
			var sub []refSol
			if sub, err = r.group(x.Group, inner, []refSol{{}}); err == nil {
				sols = join(sols, sub)
			}
		case *FilterElem:
			filters = append(filters, x.Cond)
		case *BindElem:
			out := make([]refSol, 0, len(sols))
			for _, s := range sols {
				t, e := r.expr(x.Expr, s, gctx)
				if e == errRefUnsupported {
					return nil, e
				}
				if e == nil {
					s = s.clone()
					s[x.Var] = t
				}
				out = append(out, s)
			}
			sols = out
		case *UnionPattern:
			var u []refSol
			for _, br := range x.Branches {
				b, e := r.group(br, gctx, []refSol{{}})
				if e != nil {
					return nil, e
				}
				u = append(u, b...)
			}
			sols = join(sols, u)
		case *OptionalPattern:
			inner := &GroupGraphPattern{}
			var cond []Expr
			for _, e := range x.Group.Elems {
				if f, ok := e.(*FilterElem); ok {
					cond = append(cond, f.Cond)
				} else {
					inner.Elems = append(inner.Elems, e)
				}
			}
			var right []refSol
			if right, err = r.group(inner, gctx, []refSol{{}}); err == nil {
				sols, err = r.leftJoin(sols, right, cond, gctx)
			}
		case *MinusPattern:
			var right []refSol
			if right, err = r.group(x.Group, gctx, []refSol{{}}); err == nil {
				sols = minus(sols, right)
			}
		case *ValuesElem:
			var vals []refSol
			for _, row := range x.Rows {
				s := refSol{}
				for i, v := range x.Vars {
					if !row[i].IsZero() {
						s[v] = row[i]
					}
				}
				vals = append(vals, s)
			}
			sols = join(sols, vals)
		case *SubSelect:
			vars, rows, e := r.selectIn(x.Select, gctx)
			if e != nil {
				return nil, e
			}
			var sub []refSol
			for _, row := range rows {
				s := refSol{}
				for i, v := range vars {
					if !row[i].IsZero() {
						s[v] = row[i]
					}
				}
				sub = append(sub, s)
			}
			sols = join(sols, sub)
		default:
			return nil, errRefUnsupported
		}
		if err != nil {
			return nil, err
		}
	}
	if len(filters) == 0 {
		return sols, nil
	}
	out := sols[:0:0]
	for _, s := range sols {
		keep := true
		for _, f := range filters {
			ok, err := r.test(f, s, gctx)
			if err == errRefUnsupported {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, s)
		}
	}
	return out, nil
}

// refIndex buckets a right-hand solution bag by the values of the
// variables every one of its solutions binds, so Join, LeftJoin and
// Minus visit only the right solutions that can be compatible with a
// given left one (the paper queries' equi-joins stay linear in their
// output); each candidate is still checked with compatible.
type refIndex struct {
	right  []refSol
	common []string
	bySig  map[string]map[string][]refSol
}

func newRefIndex(right []refSol) *refIndex {
	ix := &refIndex{right: right, bySig: map[string]map[string][]refSol{}}
	if len(right) == 0 {
		return ix
	}
	for v := range right[0] {
		inAll := true
		for _, b := range right[1:] {
			if _, ok := b[v]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			ix.common = append(ix.common, v)
		}
	}
	sort.Strings(ix.common)
	return ix
}

// candidates returns the right solutions that agree with a on the
// common variables a binds, in right order.
func (ix *refIndex) candidates(a refSol) []refSol {
	var shared []string
	for _, v := range ix.common {
		if _, ok := a[v]; ok {
			shared = append(shared, v)
		}
	}
	key := func(s refSol) string {
		var sb strings.Builder
		for _, v := range shared {
			sb.WriteString(s[v].String())
			sb.WriteByte(0)
		}
		return sb.String()
	}
	sig := strings.Join(shared, "\x00")
	buckets, ok := ix.bySig[sig]
	if !ok {
		buckets = map[string][]refSol{}
		for _, b := range ix.right {
			k := key(b)
			buckets[k] = append(buckets[k], b)
		}
		ix.bySig[sig] = buckets
	}
	return buckets[key(a)]
}

// join is Join(left, right): every compatible pair, merged, in left
// then right order.
func join(left, right []refSol) []refSol {
	ix := newRefIndex(right)
	var out []refSol
	for _, a := range left {
		for _, b := range ix.candidates(a) {
			if compatible(a, b) {
				out = append(out, merge(a, b))
			}
		}
	}
	return out
}

// leftJoin is LeftJoin(left, right, cond): a left solution extends by
// every compatible right solution whose merge passes cond, and
// survives alone when none does.
func (r *refEval) leftJoin(left, right []refSol, cond []Expr, gctx refGraph) ([]refSol, error) {
	ix := newRefIndex(right)
	var out []refSol
	for _, a := range left {
		matched := false
		for _, b := range ix.candidates(a) {
			if !compatible(a, b) {
				continue
			}
			m := merge(a, b)
			keep := true
			for _, f := range cond {
				ok, err := r.test(f, m, gctx)
				if err == errRefUnsupported {
					return nil, err
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, m)
				matched = true
			}
		}
		if !matched {
			out = append(out, a)
		}
	}
	return out, nil
}

// minus drops a left solution when some right solution is compatible
// with it and shares at least one bound variable.
func minus(left, right []refSol) []refSol {
	ix := newRefIndex(right)
	var out []refSol
	for _, a := range left {
		drop := false
		for _, b := range ix.candidates(a) {
			shared := false
			for k := range b {
				if _, ok := a[k]; ok {
					shared = true
					break
				}
			}
			if shared && compatible(a, b) {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, a)
		}
	}
	return out
}

// path evaluates `s path o` in the active graph as a solution bag.
func (r *refEval) path(s TermOrVar, p Path, o TermOrVar, g refGraph) ([]refSol, error) {
	switch x := p.(type) {
	case PathIRI:
		return r.triple(s, Constant(x.IRI), o, g), nil
	case PathVar:
		return r.triple(s, Variable(x.Name), o, g), nil
	case PathInverse:
		return r.path(o, x.Inner, s, g)
	case PathSeq:
		// Join the two segments through a hidden midpoint, one distinct
		// midpoint at a time (a nested-loop join substituting it), and
		// drop the midpoint from the result.
		r.hidden++
		mid := Variable(fmt.Sprintf(" ref%d", r.hidden))
		left, err := r.path(s, x.Left, mid, g)
		if err != nil {
			return nil, err
		}
		rights := map[string][]refSol{}
		var out []refSol
		for _, l := range left {
			m := l[mid.Var]
			rs, ok := rights[m.String()]
			if !ok {
				if rs, err = r.path(Constant(m), x.Right, o, g); err != nil {
					return nil, err
				}
				rights[m.String()] = rs
			}
			for _, rr := range rs {
				if compatible(l, rr) {
					j := merge(l, rr)
					delete(j, mid.Var)
					out = append(out, j)
				}
			}
		}
		return out, nil
	case PathAlt:
		left, err := r.path(s, x.Left, o, g)
		if err != nil {
			return nil, err
		}
		right, err := r.path(s, x.Right, o, g)
		if err != nil {
			return nil, err
		}
		return append(left, right...), nil
	case PathStar:
		return r.closure(s, x.Inner, o, g, 0, 0)
	case PathPlus:
		return r.closure(s, x.Inner, o, g, 1, 0)
	case PathOpt:
		return r.closure(s, x.Inner, o, g, 0, 1)
	}
	return nil, errRefUnsupported
}

// triple matches one triple pattern against every quad of the active
// graph.
func (r *refEval) triple(s, p, o TermOrVar, g refGraph) []refSol {
	var out []refSol
	for _, q := range r.quads {
		switch g.kind {
		case GraphTerm:
			if !q.G.Equal(g.term) {
				continue
			}
		case GraphVar:
			if q.G.IsZero() {
				continue
			}
		}
		sol := refSol{}
		ok := bindPos(sol, s, q.S) && bindPos(sol, p, q.P) && bindPos(sol, o, q.O)
		if ok && g.kind == GraphVar {
			ok = bindPos(sol, Variable(g.v), q.G)
		}
		if ok {
			out = append(out, sol)
		}
	}
	return out
}

// bindPos matches one pattern position against a term, binding a
// variable or checking a repeated one.
func bindPos(sol refSol, tv TermOrVar, t rdf.Term) bool {
	if !tv.IsVar {
		return tv.Term.Equal(t)
	}
	if cur, ok := sol[tv.Var]; ok {
		return cur.Equal(t)
	}
	sol[tv.Var] = t
	return true
}

// closure is the arbitrary-length path evaluation (ALP): for each start
// node, the distinct nodes reachable in [min, max] steps (max 0 =
// unbounded). A variable start ranges over every node of the active
// graph; a constant start reaches itself at length zero even when it
// occurs nowhere.
func (r *refEval) closure(s TermOrVar, inner Path, o TermOrVar, g refGraph, min, max int) ([]refSol, error) {
	from, to := Variable(" from"), Variable(" to")
	steps, err := r.path(from, inner, to, g)
	if err != nil {
		return nil, err
	}
	succ := map[string][]rdf.Term{}
	for _, st := range steps {
		k := st[from.Var].String()
		succ[k] = append(succ[k], st[to.Var])
	}
	var starts []rdf.Term
	switch {
	case !s.IsVar:
		starts = []rdf.Term{s.Term}
	case !o.IsVar:
		// Evaluate backwards from the constant end, then swap.
		back, err := r.closure(o, PathInverse{Inner: inner}, s, g, min, max)
		return back, err
	default:
		starts = r.nodes(g)
	}
	var out []refSol
	for _, x := range starts {
		seen := map[string]bool{}
		var reached []rdf.Term
		add := func(t rdf.Term) {
			if k := t.String(); !seen[k] {
				seen[k] = true
				reached = append(reached, t)
			}
		}
		if min == 0 {
			add(x)
		}
		frontier := []rdf.Term{x}
		visited := map[string]bool{x.String(): true}
		for depth := 1; len(frontier) > 0 && (max == 0 || depth <= max); depth++ {
			var next []rdf.Term
			for _, n := range frontier {
				for _, y := range succ[n.String()] {
					add(y)
					if !visited[y.String()] {
						visited[y.String()] = true
						next = append(next, y)
					}
				}
			}
			frontier = next
		}
		for _, y := range reached {
			sol := refSol{}
			if bindPos(sol, s, x) && bindPos(sol, o, y) {
				out = append(out, sol)
			}
		}
	}
	return out, nil
}

// nodes lists the distinct subjects and objects of the active graph.
func (r *refEval) nodes(g refGraph) []rdf.Term {
	seen := map[string]bool{}
	var out []rdf.Term
	for _, q := range r.quads {
		if g.kind == GraphTerm && !q.G.Equal(g.term) || g.kind == GraphVar && q.G.IsZero() {
			continue
		}
		for _, t := range []rdf.Term{q.S, q.O} {
			if !seen[t.String()] {
				seen[t.String()] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// test is a FILTER: the expression's effective boolean value, with
// errors (unbound variables, mismatched types) as false.
func (r *refEval) test(e Expr, s refSol, g refGraph) (bool, error) {
	t, err := r.expr(e, s, g)
	if err == errRefUnsupported {
		return false, err
	}
	if err != nil {
		return false, nil
	}
	v, ok := refEBV(t)
	return ok && v, nil
}

// expr evaluates an expression under one solution.
func (r *refEval) expr(e Expr, s refSol, g refGraph) (rdf.Term, error) {
	switch x := e.(type) {
	case ExprVar:
		if t, ok := s[x.Name]; ok {
			return t, nil
		}
		return rdf.Term{}, errRefType
	case ExprTerm:
		return x.Term, nil
	case ExprBinary:
		l, lerr := r.expr(x.Left, s, g)
		rt, rerr := r.expr(x.Right, s, g)
		if lerr == errRefUnsupported || rerr == errRefUnsupported {
			return rdf.Term{}, errRefUnsupported
		}
		return refBinary(x.Op, l, lerr, rt, rerr)
	case ExprUnary:
		t, err := r.expr(x.Inner, s, g)
		if err != nil {
			return rdf.Term{}, err
		}
		switch x.Op {
		case "!":
			v, ok := refEBV(t)
			if !ok {
				return rdf.Term{}, errRefType
			}
			return rdf.NewBoolean(!v), nil
		case "-":
			n, ok := refInt(t)
			if !ok {
				return rdf.Term{}, errRefType
			}
			return rdf.NewInteger(-n), nil
		}
	case ExprCall:
		if len(x.Args) != 1 {
			break
		}
		if v, ok := x.Args[0].(ExprVar); ok && x.Name == "BOUND" {
			_, bound := s[v.Name]
			return rdf.NewBoolean(bound), nil
		}
		t, err := r.expr(x.Args[0], s, g)
		if err != nil {
			return rdf.Term{}, err
		}
		switch x.Name {
		case "ISLITERAL":
			return rdf.NewBoolean(t.IsLiteral()), nil
		case "ISIRI", "ISURI":
			return rdf.NewBoolean(t.IsIRI()), nil
		}
	case ExprExists:
		// Substitution semantics: the pattern is evaluated with the
		// current solution's bindings in place.
		sols, err := r.group(x.Group, g, []refSol{s})
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewBoolean((len(sols) > 0) != x.Negate), nil
	}
	return rdf.Term{}, errRefUnsupported
}

// refBinary applies a binary operator to evaluated operands; the
// logical operators tolerate an error on one side (SPARQL's
// three-valued logic).
func refBinary(op string, l rdf.Term, lerr error, r rdf.Term, rerr error) (rdf.Term, error) {
	switch op {
	case "||", "&&":
		lv, lok := refEBV(l)
		rv, rok := refEBV(r)
		lok = lok && lerr == nil
		rok = rok && rerr == nil
		short := op == "||" // the value that decides the result alone
		if lok && lv == short || rok && rv == short {
			return rdf.NewBoolean(short), nil
		}
		if !lok || !rok {
			return rdf.Term{}, errRefType
		}
		return rdf.NewBoolean(!short), nil
	}
	if lerr != nil || rerr != nil {
		return rdf.Term{}, errRefType
	}
	li, lint := refInt(l)
	ri, rint := refInt(r)
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case lint && rint:
			eq = li == ri
		case refPlain(l) && refPlain(r):
			eq = l.Value == r.Value
		case l.IsLiteral() && r.IsLiteral() && !l.Equal(r):
			return rdf.Term{}, errRefType
		default:
			eq = l.Equal(r)
		}
		return rdf.NewBoolean(eq == (op == "=")), nil
	case "<", ">", "<=", ">=":
		if !lint || !rint {
			return rdf.Term{}, errRefType
		}
		var v bool
		switch op {
		case "<":
			v = li < ri
		case ">":
			v = li > ri
		case "<=":
			v = li <= ri
		default:
			v = li >= ri
		}
		return rdf.NewBoolean(v), nil
	case "+", "-", "*":
		if !lint || !rint {
			return rdf.Term{}, errRefType
		}
		switch op {
		case "+":
			return rdf.NewInteger(li + ri), nil
		case "-":
			return rdf.NewInteger(li - ri), nil
		default:
			return rdf.NewInteger(li * ri), nil
		}
	}
	return rdf.Term{}, errRefUnsupported
}

// refInt reads an xsd:integer literal.
func refInt(t rdf.Term) (int64, bool) {
	if !t.IsLiteral() || t.Datatype != rdf.XSDInteger {
		return 0, false
	}
	n, err := strconv.ParseInt(t.Value, 10, 64)
	return n, err == nil
}

// refPlain reports a simple (xsd:string, untagged) literal.
func refPlain(t rdf.Term) bool {
	return t.IsLiteral() && t.Lang == "" && (t.Datatype == "" || t.Datatype == rdf.XSDString)
}

// refEBV is the effective boolean value of booleans and integers (the
// only literal kinds the generated filters produce).
func refEBV(t rdf.Term) (value, ok bool) {
	if t.IsLiteral() && t.Datatype == rdf.XSDBoolean {
		return t.Value == "true", true
	}
	if n, isInt := refInt(t); isInt {
		return n != 0, true
	}
	return false, false
}

// refOrder is the ORDER BY comparator over the generated data: unbound
// first, then IRIs by string, then integers by value, then other
// literals lexically.
func refOrder(a, b rdf.Term) int {
	rank := func(t rdf.Term) int {
		switch {
		case t.IsZero():
			return 0
		case t.IsIRI():
			return 1
		default:
			return 2
		}
	}
	if ra, rb := rank(a), rank(b); ra != rb {
		return ra - rb
	}
	if ai, ok := refInt(a); ok {
		if bi, ok := refInt(b); ok {
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			}
			return 0
		}
	}
	return strings.Compare(a.Value, b.Value)
}

func refRowKey(row []rdf.Term) string {
	var sb strings.Builder
	for _, t := range row {
		if !t.IsZero() {
			sb.WriteString(t.String())
		}
		sb.WriteByte(0)
	}
	return sb.String()
}
