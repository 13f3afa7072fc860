package sql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/ra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// Exec evaluates SELECT statements against an engine's catalog. Override
// maps names to in-flight relations (the recursive working table and
// computed-by deltas the WITH+ runtime maintains); overrides shadow catalog
// tables and always count as statistics-free temporaries for plan choice.
type Exec struct {
	Eng      *engine.Engine
	Override map[string]*relation.Relation

	// Delta marks Override entries that bind a semi-naive Δ frontier in
	// place of the full recursive relation. It changes nothing about
	// resolution — only the scan label in analyzed plans, so EXPLAIN
	// ANALYZE shows which scans read the frontier.
	Delta map[string]bool

	// analyze makes the executor build an annotated plan tree (actual rows
	// and per-node wall time) alongside the result — the EXPLAIN ANALYZE
	// mode. Off (the default) no node is allocated and no clock is read.
	analyze bool
}

// NewExec returns an executor over eng.
func NewExec(eng *engine.Engine) *Exec {
	return &Exec{Eng: eng, Override: map[string]*relation.Relation{}, Delta: map[string]bool{}}
}

// Run evaluates a (possibly compound) statement.
func (x *Exec) Run(s *SelectStmt) (*relation.Relation, error) {
	r, _, err := x.run(s)
	return r, err
}

// RunAnalyzed evaluates the statement and also returns the executed plan
// tree annotated with actual output rows and per-node wall time.
func (x *Exec) RunAnalyzed(s *SelectStmt) (*relation.Relation, *obs.PlanNode, error) {
	prev := x.analyze
	x.analyze = true
	defer func() { x.analyze = prev }()
	return x.run(s)
}

func (x *Exec) run(s *SelectStmt) (*relation.Relation, *obs.PlanNode, error) {
	left, plan, err := x.runOne(s)
	if err != nil {
		return nil, nil, err
	}
	for cur := s; cur.Next != nil; cur = cur.Next {
		var t0 time.Time
		if x.analyze {
			t0 = time.Now()
		}
		right, rplan, err := x.runOne(cur.Next)
		if err != nil {
			return nil, nil, err
		}
		if !left.Sch.UnionCompatible(right.Sch) {
			return nil, nil, fmt.Errorf("sql: set operation arity mismatch (%d vs %d)", left.Sch.Arity(), right.Sch.Arity())
		}
		switch cur.SetOp {
		case "union all":
			left = ra.UnionAll(left, right)
		case "union":
			left = ra.Union(left, right)
		case "except":
			left = ra.Difference(ra.Distinct(left), right)
		case "intersect":
			left = ra.Intersect(left, right)
		default:
			return nil, nil, fmt.Errorf("sql: unknown set op %q", cur.SetOp)
		}
		if x.analyze {
			plan = obs.NewPlanNode(cur.SetOp, int64(left.Len()), time.Since(t0), plan, rplan)
		}
	}
	return left, plan, nil
}

// source is one resolved FROM input.
type source struct {
	rel      *relation.Relation
	analyzed bool
	name     string // display name for qualification
	table    string // catalog table name when resolved from the catalog ("" otherwise)
}

func (x *Exec) resolve(name string) (*relation.Relation, bool, error) {
	if r, ok := x.Override[name]; ok {
		return r, false, nil
	}
	return x.Eng.RelAnalyzed(name)
}

func (x *Exec) resolveRef(t *TableRef) (source, error) {
	if t.GraphTable != nil {
		return source{}, fmt.Errorf("sql: unexpanded GRAPH_TABLE reference to graph %q (run ExpandStatement first)", t.GraphTable.Graph)
	}
	if t.IsJoin() {
		rel, err := x.evalJoinRef(t)
		return source{rel: rel, analyzed: false, name: t.DisplayName()}, err
	}
	if t.Sub != nil {
		rel, err := x.Run(t.Sub)
		if err != nil {
			return source{}, err
		}
		if t.Alias != "" {
			rel = ra.Rename(rel, t.Alias, nil)
		}
		return source{rel: rel, name: t.DisplayName()}, nil
	}
	rel, analyzed, err := x.resolve(t.Name)
	if err != nil {
		return source{}, err
	}
	table := t.Name
	if _, ok := x.Override[t.Name]; ok {
		table = "" // an override is not the catalog table of the same name
	}
	// Re-qualify under the alias (ρ) without copying tuples.
	rel = &relation.Relation{Sch: rel.Sch.Qualify(t.DisplayName()), Tuples: rel.Tuples}
	return source{rel: rel, analyzed: analyzed, name: t.DisplayName(), table: table}, nil
}

// evalJoinRef evaluates explicit LEFT/FULL OUTER/INNER JOIN nodes.
func (x *Exec) evalJoinRef(t *TableRef) (*relation.Relation, error) {
	l, err := x.resolveRef(t.Join)
	if err != nil {
		return nil, err
	}
	r, err := x.resolveRef(t.Right)
	if err != nil {
		return nil, err
	}
	lCols, rCols, residual, err := equiCols(t.On, l.rel.Sch, r.rel.Sch)
	if err != nil {
		return nil, err
	}
	if len(lCols) == 0 && t.Kind != JoinInner {
		return nil, fmt.Errorf("sql: outer join requires equality conditions")
	}
	var out *relation.Relation
	switch t.Kind {
	case JoinLeftOuter:
		out = ra.LeftOuterJoin(l.rel, r.rel, lCols, rCols, x.Eng.Gov())
	case JoinFullOuter:
		out = ra.FullOuterJoin(l.rel, r.rel, lCols, rCols, x.Eng.Gov())
	default:
		out = ra.EquiJoin(l.rel, r.rel, ra.EquiJoinSpec{
			LeftCols: lCols, RightCols: rCols, Algo: x.algoFor(l.analyzed && r.analyzed),
			Gov: x.Eng.Gov(),
		})
	}
	if err := x.Eng.ChargeMaterialized(out); err != nil {
		return nil, err
	}
	if residual == nil {
		return out, nil
	}
	out, _, err = x.filter(out, residual)
	return out, err
}

func (x *Exec) algoFor(allAnalyzed bool) ra.JoinAlgo {
	if allAnalyzed {
		return x.Eng.Prof.BaseJoin
	}
	a := x.Eng.Prof.TempJoin
	if a == ra.SortMergeJoin && x.Eng.Prof.UseTempIndexes {
		return ra.IndexMergeJoin
	}
	return a
}

// equiCols splits a join condition into equi-join column pairs (left-side
// column = right-side column) plus a residual conjunction.
func equiCols(on Expr, lSch, rSch schema.Schema) (lCols, rCols []int, residual Expr, err error) {
	if on == nil {
		return nil, nil, nil, nil
	}
	conjuncts := splitAnd(on)
	for _, c := range conjuncts {
		b, ok := c.(*Binary)
		if ok && b.Op == "=" {
			lc, lok := b.L.(*ColRef)
			rc, rok := b.R.(*ColRef)
			if lok && rok {
				li, lerr := lSch.Resolve(lc.Table, lc.Name)
				ri, rerr := rSch.Resolve(rc.Table, rc.Name)
				if lerr == nil && rerr == nil {
					lCols = append(lCols, li)
					rCols = append(rCols, ri)
					continue
				}
				// Maybe swapped sides.
				li, lerr = lSch.Resolve(rc.Table, rc.Name)
				ri, rerr = rSch.Resolve(lc.Table, lc.Name)
				if lerr == nil && rerr == nil {
					lCols = append(lCols, li)
					rCols = append(rCols, ri)
					continue
				}
			}
		}
		residual = andJoin(residual, c)
	}
	return lCols, rCols, residual, nil
}

func splitAnd(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "and" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

func andJoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	return &Binary{Op: "and", L: a, R: b}
}

// planFrom is the placement decision for a FROM list with WHERE conjuncts,
// shared by runOne (which executes it) and explainOne (which renders it).
// It returns the cyclic core lowered to the multiway join (nil keeps the
// binary chain) and, per source, the conjunction of the single-source
// literal comparisons that run as one filter pass on that source before
// any join (nil: none). Every conjunct it places is marked used; the rest
// are left for the join keys and the residual filter.
//
// A source takes its filters early when it is the chain's first input —
// the binary fold's probe side, or the first atom of the multiway core,
// which seeds the anchor — or when it has no cached access structure to
// lose (an override, a subquery, a JOIN ref). A catalog table on a later
// build side keeps its filters residual: filtering it would trade the
// cached CSR or hash index a WITH+ loop reuses for a fresh build every
// iteration. One source alone has no join to go below.
func (x *Exec) planFrom(schemas []schema.Schema, tableBacked []bool, conjuncts []Expr, used []bool) (*wcojPlan, []Expr) {
	var wplan *wcojPlan
	if !x.Eng.DisableWCOJ {
		wplan = chooseWCOJ(schemas, conjuncts, used)
	}
	if wplan != nil {
		for _, ci := range wplan.Conjuncts {
			used[ci] = true
		}
	}
	if len(schemas) < 2 {
		return wplan, nil
	}
	first := 0
	if wplan != nil {
		first = wplan.Core[0]
	}
	pushed := make([]Expr, len(schemas))
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		if s, ok := literalSource(c, schemas); ok && (s == first || !tableBacked[s]) {
			pushed[s] = andJoin(pushed[s], c)
			used[ci] = true
		}
	}
	return wplan, pushed
}

// literalSource reports the one source whose columns a comparison between
// columns and literals reads. Such a conjunct cannot raise a runtime error
// (value.Compare is total and NULL yields unknown), so filtering before the
// join instead of after keeps the output bag and the errors the same. A
// column that resolves in no source, in several, or ambiguously in one
// disqualifies the conjunct.
func literalSource(c Expr, schemas []schema.Schema) (int, bool) {
	b, ok := c.(*Binary)
	if !ok {
		return 0, false
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return 0, false
	}
	src := -1
	for _, operand := range []Expr{b.L, b.R} {
		switch o := operand.(type) {
		case *Lit:
		case *ColRef:
			at := -1
			for i, sch := range schemas {
				if _, err := sch.Resolve(o.Table, o.Name); err == nil {
					if at >= 0 {
						return 0, false
					}
					at = i
				} else if _, amb := err.(*schema.ErrAmbiguous); amb {
					return 0, false
				}
			}
			if at < 0 || (src >= 0 && at != src) {
				return 0, false
			}
			src = at
		default:
			return 0, false
		}
	}
	return src, src >= 0
}

// filter applies pred to rel on the engine's configured path (vectorized
// unless DisableVectorized) and returns the plan label for the pass.
func (x *Exec) filter(rel *relation.Relation, pred Expr) (*relation.Relation, string, error) {
	label := "filter " + ExprString(pred)
	if x.Eng.DisableVectorized {
		p, err := x.compilePred(pred, rel.Sch)
		if err != nil {
			return nil, "", err
		}
		out, err := ra.Select(rel, p)
		return out, label, err
	}
	p, fellBack, err := x.compileVecPred(pred, rel.Sch)
	if err != nil {
		return nil, "", err
	}
	out, err := x.selectVec(rel, p, fellBack)
	return out, label + vecPathNote(fellBack), err
}

func (x *Exec) runOne(s *SelectStmt) (*relation.Relation, *obs.PlanNode, error) {
	// Resolve FROM (no FROM = one empty tuple, for "select 1+1").
	var input *relation.Relation
	var plan *obs.PlanNode
	var allAnalyzed = true
	if len(s.From) == 0 {
		input = relation.New(schema.Schema{})
		input.Append(relation.Tuple{})
		if x.analyze {
			plan = obs.NewPlanNode("values (one row)", 1, 0)
		}
	} else {
		srcs := make([]source, len(s.From))
		var scans []*obs.PlanNode
		if x.analyze {
			scans = make([]*obs.PlanNode, len(s.From))
		}
		for i, f := range s.From {
			var t0 time.Time
			if x.analyze {
				t0 = time.Now()
			}
			src, err := x.resolveRef(f)
			if err != nil {
				return nil, nil, err
			}
			srcs[i] = src
			allAnalyzed = allAnalyzed && src.analyzed
			if x.analyze {
				scans[i] = obs.NewPlanNode(x.refLabel(f), int64(src.rel.Len()), time.Since(t0))
			}
		}
		var conjuncts []Expr
		if s.Where != nil {
			conjuncts = splitAnd(s.Where)
		}
		used := make([]bool, len(conjuncts))
		schemas := make([]schema.Schema, len(srcs))
		tableBacked := make([]bool, len(srcs))
		for i := range srcs {
			schemas[i] = srcs[i].rel.Sch
			tableBacked[i] = srcs[i].table != ""
		}
		// A cyclic equi-join core lowers to the worst-case-optimal multiway
		// join; the remaining (tail) sources fold onto its result through
		// the ordinary binary loop below. Pushed filters run on their source
		// before either.
		wplan, pushed := x.planFrom(schemas, tableBacked, conjuncts, used)
		for i, pred := range pushed {
			if pred == nil {
				continue
			}
			var t0 time.Time
			if x.analyze {
				t0 = time.Now()
			}
			rel, label, err := x.filter(srcs[i].rel, pred)
			if err != nil {
				return nil, nil, err
			}
			// The filtered rows are no longer the catalog table's, so no
			// cached access structure may serve them; the analyzed flag (the
			// profile's join-algorithm input) stays.
			srcs[i].rel, srcs[i].table = rel, ""
			if x.analyze {
				scans[i] = obs.NewPlanNode(label, int64(rel.Len()), time.Since(t0), scans[i])
			}
		}
		var remaining []int
		if wplan != nil {
			var t0 time.Time
			observing := x.Eng.Observing()
			if x.analyze || observing {
				t0 = time.Now()
			}
			atoms := make([]ra.WCOJAtom, len(wplan.Core))
			for k, si := range wplan.Core {
				atoms[k] = ra.WCOJAtom{Rel: srcs[si].rel, VarCols: wplan.Atoms[k].VarCols}
				// A table-backed binary atom reuses the cached (src, dst)
				// CSR as its sorted backing instead of building a trie.
				if srcs[si].table != "" {
					if sc, dc, ok := wplan.Atoms[k].csrShape(); ok {
						atoms[k].CSR = x.Eng.WCOJEdgeCSR(srcs[si].table, sc, dc)
					}
				}
			}
			var stats ra.WCOJStats
			input, stats = ra.WCOJ(ra.WCOJSpec{
				Atoms:   atoms,
				NumVars: wplan.NumVars,
				Order:   wplan.Order,
				Gov:     x.Eng.Gov(),
			})
			x.Eng.CountWCOJ(stats.Builds, stats.Probes)
			if observing {
				sp := obs.Span{Op: "join", Algo: "wcoj", Note: "sql multiway generic join", Start: t0, OutRows: int64(input.Len()), Dur: time.Since(t0)}
				sp.BytesMaterialized = input.Footprint()
				x.Eng.Emit(sp)
			}
			if x.analyze {
				label := fmt.Sprintf("multiway generic join on %s via wcoj", strings.Join(wplan.Keys, " and "))
				children := make([]*obs.PlanNode, len(wplan.Core))
				for k, si := range wplan.Core {
					children[k] = scans[si]
				}
				plan = obs.NewPlanNode(label, int64(input.Len()), time.Since(t0), children...)
			}
			if err := x.Eng.ChargeMaterialized(input); err != nil {
				return nil, nil, err
			}
			inCore := make([]bool, len(srcs))
			for _, si := range wplan.Core {
				inCore[si] = true
			}
			for i := range srcs {
				if !inCore[i] {
					remaining = append(remaining, i)
				}
			}
		} else {
			input = srcs[0].rel
			if x.analyze {
				plan = scans[0]
			}
			for i := 1; i < len(srcs); i++ {
				remaining = append(remaining, i)
			}
		}
		for _, i := range remaining {
			next := srcs[i]
			var lCols, rCols []int
			var keys []string
			for ci, c := range conjuncts {
				if used[ci] {
					continue
				}
				b, ok := c.(*Binary)
				if !ok || b.Op != "=" {
					continue
				}
				lc, lok := b.L.(*ColRef)
				rc, rok := b.R.(*ColRef)
				if !lok || !rok {
					continue
				}
				li, lerr := input.Sch.Resolve(lc.Table, lc.Name)
				ri, rerr := next.rel.Sch.Resolve(rc.Table, rc.Name)
				if lerr != nil || rerr != nil {
					li, lerr = input.Sch.Resolve(rc.Table, rc.Name)
					ri, rerr = next.rel.Sch.Resolve(lc.Table, lc.Name)
				}
				if lerr == nil && rerr == nil {
					lCols = append(lCols, li)
					rCols = append(rCols, ri)
					used[ci] = true
					if x.analyze {
						keys = append(keys, ExprString(c))
					}
				}
			}
			var t0 time.Time
			observing := x.Eng.Observing()
			if x.analyze || observing {
				t0 = time.Now()
			}
			leftRows := int64(input.Len())
			if len(lCols) > 0 {
				algo := x.algoFor(allAnalyzed)
				var sp *obs.Span
				if observing {
					sp = &obs.Span{Op: "join", Algo: algo.String(), Note: "sql equi-join", Start: t0}
				}
				spec := ra.EquiJoinSpec{
					LeftCols: lCols, RightCols: rCols,
					Algo: algo,
					Gov:  x.Eng.Gov(),
					Span: sp,
				}
				// A plain catalog table on the build side can serve its
				// cached access structures: a covering CSR adjacency index
				// replaces the hash build entirely on single-column keys,
				// else the cached hash index serves. Both are built once per
				// table version and extended in place on appends, so the
				// recursive loop's immutable build sides never rebuild
				// (either structure is revalidated against the probe-time
				// rows inside the join).
				viaCSR := false
				if algo == ra.HashJoin && next.table != "" {
					if csr := x.Eng.BuildSideCSR(next.table, rCols); csr != nil {
						spec.RightCSR = csr
						viaCSR = true
					} else {
						spec.RightHash = x.Eng.BuildSideHash(next.table, rCols)
					}
				}
				input = ra.EquiJoin(input, next.rel, spec)
				x.Eng.CountJoin()
				if sp != nil {
					sp.LeftRows, sp.RightRows, sp.OutRows = leftRows, int64(next.rel.Len()), int64(input.Len())
					sp.BytesMaterialized = input.Footprint()
					sp.Dur = time.Since(t0)
					x.Eng.Emit(*sp)
				}
				if x.analyze {
					label := fmt.Sprintf("%s join on %s", algo, strings.Join(keys, " and "))
					if viaCSR {
						label += " via csr"
					}
					plan = obs.NewPlanNode(label, int64(input.Len()), time.Since(t0), plan, scans[i])
				}
			} else {
				input = ra.Product(input, next.rel)
				if x.analyze {
					plan = obs.NewPlanNode("nested-loop product", int64(input.Len()), time.Since(t0), plan, scans[i])
				}
			}
			if err := x.Eng.ChargeMaterialized(input); err != nil {
				return nil, nil, err
			}
		}
		// The WCOJ lowering joins core sources first, so when a tail source
		// precedes a core source in FROM order the concatenated columns are
		// permuted relative to the binary plan. Restore FROM order so
		// "select *" output stays byte-identical across the two paths.
		if wplan != nil {
			input = restoreFromOrder(input, srcs, append(append([]int{}, wplan.Core...), remaining...))
		}
		// Residual WHERE conjuncts.
		var residual Expr
		for ci, c := range conjuncts {
			if !used[ci] {
				residual = andJoin(residual, c)
			}
		}
		if residual != nil {
			var t0 time.Time
			if x.analyze {
				t0 = time.Now()
			}
			var label string
			var err error
			if input, label, err = x.filter(input, residual); err != nil {
				return nil, nil, err
			}
			if x.analyze {
				plan = obs.NewPlanNode(label, int64(input.Len()), time.Since(t0), plan)
			}
		}
	}

	var out *relation.Relation
	var err error
	var t0 time.Time
	if x.analyze {
		t0 = time.Now()
	}
	if len(s.GroupBy) > 0 || s.HasAggregates() {
		var aggNote string
		out, aggNote, err = x.runAggregate(s, input)
		if err == nil && x.analyze {
			keys := make([]string, len(s.GroupBy))
			for i, g := range s.GroupBy {
				keys[i] = ExprString(g)
			}
			label := "hash aggregate (single group)"
			if len(keys) > 0 {
				label = "hash aggregate on (" + strings.Join(keys, ", ") + ")"
			}
			plan = obs.NewPlanNode(label+aggNote, int64(out.Len()), time.Since(t0), plan)
		}
	} else {
		out, err = x.project(s, input)
	}
	if err != nil {
		return nil, nil, err
	}
	if s.Distinct {
		if x.analyze {
			t0 = time.Now()
		}
		out = ra.Distinct(out)
		if x.analyze {
			plan = obs.NewPlanNode("distinct", int64(out.Len()), time.Since(t0), plan)
		}
	}
	if len(s.OrderBy) > 0 {
		cols := make([]int, len(s.OrderBy))
		desc := make([]bool, len(s.OrderBy))
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			cr, ok := o.Expr.(*ColRef)
			if !ok {
				return nil, nil, fmt.Errorf("sql: order by supports column references only")
			}
			idx, rerr := out.Sch.Resolve(cr.Table, cr.Name)
			if rerr != nil {
				return nil, nil, rerr
			}
			cols[i] = idx
			desc[i] = o.Desc
			parts[i] = ExprString(o.Expr)
			if o.Desc {
				parts[i] += " desc"
			}
		}
		if x.analyze {
			t0 = time.Now()
		}
		out = ra.OrderBy(out, cols, desc)
		if x.analyze {
			plan = obs.NewPlanNode("sort by "+strings.Join(parts, ", "), int64(out.Len()), time.Since(t0), plan)
		}
	}
	if s.Limit >= 0 {
		out = ra.Limit(out, s.Limit)
		if x.analyze {
			plan = obs.NewPlanNode(fmt.Sprintf("limit %d", s.Limit), int64(out.Len()), 0, plan)
		}
	}
	return out, plan, nil
}

// refLabel names a FROM item for a plan node. Labels deliberately omit row
// counts (unlike EXPLAIN's scan lines): the analyze plans of a WITH+ loop
// are merged structurally across iterations, and the working table's row
// count changes every iteration — actual rows live in the node's Rows
// field, accumulated across loops.
func (x *Exec) refLabel(t *TableRef) string {
	switch {
	case t.IsJoin():
		kind := map[JoinKind]string{JoinInner: "inner", JoinLeftOuter: "left outer", JoinFullOuter: "full outer"}[t.Kind]
		return fmt.Sprintf("%s join on %s", kind, ExprString(t.On))
	case t.Sub != nil:
		return "subquery " + t.DisplayName()
	default:
		if _, ok := x.Override[t.Name]; ok {
			if x.Delta[t.Name] {
				return fmt.Sprintf("scan %s (Δ frontier, no statistics)", t.DisplayName())
			}
			return fmt.Sprintf("scan %s (working table, no statistics)", t.DisplayName())
		}
		tab, err := x.Eng.Cat.Get(t.Name)
		if err != nil {
			return "scan " + t.DisplayName()
		}
		stats := "no statistics"
		if tab.Analyzed() {
			stats = "analyzed"
		}
		kind := "base"
		if tab.Temp {
			kind = "temp"
		}
		return fmt.Sprintf("scan %s (%s table, %s)", t.DisplayName(), kind, stats)
	}
}

// project evaluates the select list without aggregation.
func (x *Exec) project(s *SelectStmt, input *relation.Relation) (*relation.Relation, error) {
	if !x.Eng.DisableVectorized {
		var outs []ra.VecOutCol
		fellBack := false
		for i, it := range s.Items {
			if it.Star {
				for ci := range input.Sch {
					outs = append(outs, ra.VecOutCol{Col: input.Sch[ci], Expr: ra.VecColExpr(ci)})
				}
				continue
			}
			ex, fb, err := x.compileVecExpr(it.Expr, input.Sch)
			if err != nil {
				return nil, err
			}
			fellBack = fellBack || fb
			outs = append(outs, ra.VecOutCol{Col: outColName(it, i, input.Sch), Expr: ex})
		}
		return x.projectVecOuts(input, outs, fellBack)
	}
	var outs []ra.OutCol
	for i, it := range s.Items {
		if it.Star {
			for ci := range input.Sch {
				ci := ci
				outs = append(outs, ra.OutCol{Col: input.Sch[ci], Expr: ra.ColExpr(ci)})
			}
			continue
		}
		ex, err := x.compileExpr(it.Expr, input.Sch)
		if err != nil {
			return nil, err
		}
		outs = append(outs, ra.OutCol{Col: outColName(it, i, input.Sch), Expr: ex})
	}
	return ra.Project(input, outs)
}

func outColName(it SelectItem, i int, sch schema.Schema) schema.Column {
	var col schema.Column
	// Infer the type from a column reference (including the internal
	// __aggN references that aggregate rewriting produces).
	if cr, ok := it.Expr.(*ColRef); ok {
		if idx, err := sch.Resolve(cr.Table, cr.Name); err == nil {
			col.Type = sch[idx].Type
		}
	}
	if it.Alias != "" {
		col.Name = it.Alias
		return col
	}
	if cr, ok := it.Expr.(*ColRef); ok {
		// Keep the qualifier so ORDER BY / outer queries can still resolve
		// the qualified form.
		col.Table, col.Name = cr.Table, cr.Name
		return col
	}
	col.Name = fmt.Sprintf("col%d", i+1)
	return col
}

// runAggregate handles GROUP BY / global aggregates: aggregates inside the
// select list are computed per group, then the outer expressions are
// evaluated over (group keys ++ aggregate results). pathNote reports which
// aggregation path ran, for the analyzed plan label: the vectorized
// group-by when its key shape qualifies, else the row hash aggregate.
func (x *Exec) runAggregate(s *SelectStmt, input *relation.Relation) (*relation.Relation, string, error) {
	groupCols := make([]int, len(s.GroupBy))
	virtual := schema.Schema{}
	// Group-by expressions that are not plain column references are
	// computed into appended key columns first.
	var extended []ra.OutCol
	for i, g := range s.GroupBy {
		if cr, ok := g.(*ColRef); ok {
			idx, err := input.Sch.Resolve(cr.Table, cr.Name)
			if err != nil {
				return nil, "", err
			}
			groupCols[i] = idx
			virtual = append(virtual, input.Sch[idx])
			continue
		}
		ex, err := x.compileExpr(g, input.Sch)
		if err != nil {
			return nil, "", err
		}
		col := schema.Column{Name: fmt.Sprintf("__key%d", i)}
		groupCols[i] = input.Sch.Arity() + len(extended)
		extended = append(extended, ra.OutCol{Col: col, Expr: ex})
		virtual = append(virtual, col)
	}
	if len(extended) > 0 {
		outs := make([]ra.OutCol, 0, input.Sch.Arity()+len(extended))
		for ci := range input.Sch {
			outs = append(outs, ra.OutCol{Col: input.Sch[ci], Expr: ra.ColExpr(ci)})
		}
		outs = append(outs, extended...)
		var err error
		input, err = ra.Project(input, outs)
		if err != nil {
			return nil, "", err
		}
	}
	// Collect aggregate calls across select items and having.
	var aggCalls []*FuncCall
	collect := func(e Expr) Expr {
		return rewrite(e, func(n Expr) Expr {
			if f, ok := n.(*FuncCall); ok && f.IsAggregate() {
				for i, prev := range aggCalls {
					if prev == f {
						return &ColRef{Name: aggName(i)}
					}
				}
				aggCalls = append(aggCalls, f)
				return &ColRef{Name: aggName(len(aggCalls) - 1)}
			}
			return n
		})
	}
	// Select items and HAVING may repeat a group-by expression verbatim
	// ("select b0+b1 from t group by b0+b1"): such subtrees resolve to the
	// computed key column.
	replaceKeys := func(e Expr) Expr {
		return rewrite(e, func(n Expr) Expr {
			for i, g := range s.GroupBy {
				if _, isCol := g.(*ColRef); !isCol && exprEqual(n, g) {
					return &ColRef{Name: fmt.Sprintf("__key%d", i)}
				}
			}
			return n
		})
	}
	items := make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		if it.Star {
			return nil, "", fmt.Errorf("sql: select * cannot be combined with aggregation")
		}
		alias := it.Alias
		if alias == "" {
			// A bare aggregate select item is named after its function.
			if f, ok := it.Expr.(*FuncCall); ok && f.IsAggregate() {
				alias = strings.ToLower(f.Name)
			}
		}
		items[i] = SelectItem{Expr: replaceKeys(collect(it.Expr)), Alias: alias}
	}
	var having Expr
	if s.Having != nil {
		having = replaceKeys(collect(s.Having))
	}
	// The vectorized group-by runs when its key shape qualifies (zero or
	// one dense integer key column); otherwise the row hash aggregate runs.
	var grouped *relation.Relation
	var pathNote string
	if !x.Eng.DisableVectorized {
		vspecs, vfb, ok, err := x.compileVecAggs(aggCalls, input.Sch)
		if err != nil {
			return nil, "", err
		}
		if ok {
			g, handled, err := ra.GroupByVec(input, groupCols, vspecs)
			if err != nil {
				return nil, "", err
			}
			if handled {
				grouped = g
				pathNote = vecPathNote(vfb)
				x.Eng.CountVectorizedBatch(vfb)
				if err := x.Eng.Gov().ChargeBytes(g.Footprint()); err != nil {
					return nil, "", err
				}
			}
		}
	}
	// Build the row aggregate specs against the input schema (the names and
	// types also complete the virtual schema both paths project from).
	specs := make([]ra.AggSpec, len(aggCalls))
	for i, f := range aggCalls {
		col := schema.Column{Name: aggName(i), Type: value.KindFloat}
		var argExpr ra.Expr
		if !f.Star {
			if len(f.Args) != 1 {
				return nil, "", fmt.Errorf("sql: aggregate %s takes one argument", f.Name)
			}
			var err error
			argExpr, err = x.compileExpr(f.Args[0], input.Sch)
			if err != nil {
				return nil, "", err
			}
		}
		switch strings.ToLower(f.Name) {
		case "sum":
			specs[i] = ra.Sum(col, argExpr)
		case "min":
			specs[i] = ra.MinAgg(col, argExpr)
		case "max":
			specs[i] = ra.MaxAgg(col, argExpr)
		case "avg":
			specs[i] = ra.Avg(col, argExpr)
		case "count":
			col.Type = value.KindInt
			specs[i] = ra.Count(col, argExpr)
		default:
			return nil, "", fmt.Errorf("sql: unknown aggregate %q", f.Name)
		}
		virtual = append(virtual, col)
	}
	if grouped == nil {
		var err error
		grouped, err = ra.GroupBy(input, groupCols, specs)
		if err != nil {
			return nil, "", err
		}
		if !x.Eng.DisableVectorized {
			pathNote = " (row path)"
		}
	}
	grouped.Sch = virtual
	x.Eng.CountGroupBy()
	if having != nil {
		if x.Eng.DisableVectorized {
			pred, err := x.compilePred(having, virtual)
			if err != nil {
				return nil, "", err
			}
			grouped, err = ra.Select(grouped, pred)
			if err != nil {
				return nil, "", err
			}
		} else {
			pred, fellBack, err := x.compileVecPred(having, virtual)
			if err != nil {
				return nil, "", err
			}
			grouped, err = x.selectVec(grouped, pred, fellBack)
			if err != nil {
				return nil, "", err
			}
		}
	}
	if !x.Eng.DisableVectorized {
		var outs []ra.VecOutCol
		fellBack := false
		for i, it := range items {
			ex, fb, err := x.compileVecExpr(it.Expr, virtual)
			if err != nil {
				return nil, "", err
			}
			fellBack = fellBack || fb
			outs = append(outs, ra.VecOutCol{Col: outColName(it, i, virtual), Expr: ex})
		}
		out, err := x.projectVecOuts(grouped, outs, fellBack)
		return out, pathNote, err
	}
	var outs []ra.OutCol
	for i, it := range items {
		ex, err := x.compileExpr(it.Expr, virtual)
		if err != nil {
			return nil, "", err
		}
		outs = append(outs, ra.OutCol{Col: outColName(it, i, virtual), Expr: ex})
	}
	out, err := ra.Project(grouped, outs)
	return out, pathNote, err
}

func aggName(i int) string { return fmt.Sprintf("__agg%d", i) }

// rewrite applies fn bottom-up, rebuilding nodes whose children changed.
func rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Unary:
		return fn(&Unary{Op: x.Op, X: rewrite(x.X, fn)})
	case *Binary:
		return fn(&Binary{Op: x.Op, L: rewrite(x.L, fn), R: rewrite(x.R, fn)})
	case *FuncCall:
		// Aggregates are replaced whole; do not descend into them first.
		if x.IsAggregate() {
			return fn(x)
		}
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewrite(a, fn)
		}
		return fn(&FuncCall{Name: x.Name, Args: args, Star: x.Star})
	case *IsNullExpr:
		return fn(&IsNullExpr{X: rewrite(x.X, fn), Negated: x.Negated})
	case *InExpr:
		return fn(&InExpr{X: rewrite(x.X, fn), Sub: x.Sub, List: x.List, Negated: x.Negated})
	default:
		return fn(e)
	}
}

// exprEqual reports structural equality of two expressions (used to match
// select-list subtrees against group-by expressions).
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Table == y.Table && x.Name == y.Name
	case *Lit:
		y, ok := b.(*Lit)
		return ok && x.Val.Equal(y.Val)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || x.Name != y.Name || x.Star != y.Star || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		y, ok := b.(*IsNullExpr)
		return ok && x.Negated == y.Negated && exprEqual(x.X, y.X)
	}
	return false
}
