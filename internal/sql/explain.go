package sql

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// ExprString renders an expression back to SQL-ish text (used by EXPLAIN
// and error messages).
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ColRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *Lit:
		if x.Val.K == value.KindString {
			return "'" + x.Val.S + "'"
		}
		return x.Val.String()
	case *Unary:
		if x.Op == "not" {
			return "not " + ExprString(x.X)
		}
		return x.Op + ExprString(x.X)
	case *Binary:
		return "(" + ExprString(x.L) + " " + x.Op + " " + ExprString(x.R) + ")"
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *InExpr:
		op := "in"
		if x.Negated {
			op = "not in"
		}
		if x.Sub != nil {
			return ExprString(x.X) + " " + op + " (subquery)"
		}
		items := make([]string, len(x.List))
		for i, a := range x.List {
			items[i] = ExprString(a)
		}
		return ExprString(x.X) + " " + op + " (" + strings.Join(items, ", ") + ")"
	case *ExistsExpr:
		if x.Negated {
			return "not exists (subquery)"
		}
		return "exists (subquery)"
	case *IsNullExpr:
		if x.Negated {
			return ExprString(x.X) + " is not null"
		}
		return ExprString(x.X) + " is null"
	}
	return fmt.Sprintf("%T", e)
}

// ExplainSelect renders the physical plan the executor would choose for a
// SELECT, without running it: scans with row counts and statistics state,
// the join order with the per-profile physical algorithm, residual
// filters, aggregation, and the final decorations.
func (x *Exec) ExplainSelect(s *SelectStmt) (string, error) {
	var b strings.Builder
	if err := x.explainOne(&b, s, 0); err != nil {
		return "", err
	}
	for cur := s; cur.Next != nil; cur = cur.Next {
		fmt.Fprintf(&b, "%s\n", cur.SetOp)
		if err := x.explainOne(&b, cur.Next, 0); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func (x *Exec) explainOne(b *strings.Builder, s *SelectStmt, depth int) error {
	line := func(format string, args ...interface{}) {
		indent(b, depth)
		fmt.Fprintf(b, format+"\n", args...)
	}
	if s.Limit >= 0 {
		line("limit %d", s.Limit)
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = ExprString(o.Expr)
			if o.Desc {
				parts[i] += " desc"
			}
		}
		line("sort by %s", strings.Join(parts, ", "))
	}
	if s.Distinct {
		line("distinct")
	}
	if len(s.GroupBy) > 0 || s.HasAggregates() {
		keys := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			keys[i] = ExprString(g)
		}
		agg := "hash aggregate"
		if len(keys) > 0 {
			line("%s on (%s)", agg, strings.Join(keys, ", "))
		} else {
			line("%s (single group)", agg)
		}
		if s.Having != nil {
			line("  having %s", ExprString(s.Having))
		}
	}
	// Join tree: first FROM item, then each subsequent item with the
	// chosen algorithm, mirroring runOne's left-deep fold.
	if len(s.From) == 0 {
		line("values (one row)")
		return nil
	}
	var conjuncts []Expr
	if s.Where != nil {
		conjuncts = splitAnd(s.Where)
	}
	// Which conjuncts run as pushed filters, drive the multiway or binary
	// joins, or stay residual: runOne's own placement. Resolvable schemas
	// are required, so it runs only when every FROM item is a plain named
	// reference; otherwise every conjunct renders as a join key or residual.
	used := make([]bool, len(conjuncts))
	var wp *wcojPlan
	var pushed []Expr
	if schemas, tableBacked, ok := x.planSchemas(s.From); ok {
		wp, pushed = x.planFrom(schemas, tableBacked, conjuncts, used)
	}
	allAnalyzed := true
	descs := make([]string, len(s.From))
	for i, f := range s.From {
		var pre string
		d := depth + 1
		if pushed != nil && pushed[i] != nil {
			// A pushed filter sits directly above its scan.
			var fb strings.Builder
			indent(&fb, d)
			fmt.Fprintf(&fb, "filter %s\n", ExprString(pushed[i]))
			pre, d = fb.String(), d+1
		}
		desc, analyzed, err := x.describeRef(f, d)
		if err != nil {
			return err
		}
		descs[i] = pre + desc
		allAnalyzed = allAnalyzed && analyzed
	}
	if len(descs) == 1 {
		if s.Where != nil {
			line("filter %s", ExprString(s.Where))
		}
		b.WriteString(descs[0])
		return nil
	}
	joinSteps := len(descs) - 1
	// A cyclic core collapses into one multiway join line, leaving only the
	// tail sources as binary steps.
	if wp != nil {
		line("multiway generic join on %s via wcoj", strings.Join(wp.Keys, " and "))
		joinSteps = len(descs) - len(wp.Core)
	}
	for i := 0; i < joinSteps; i++ {
		var keys []string
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			if bin, ok := c.(*Binary); ok && bin.Op == "=" {
				if _, lok := bin.L.(*ColRef); lok {
					if _, rok := bin.R.(*ColRef); rok {
						keys = append(keys, ExprString(c))
						used[ci] = true
					}
				}
			}
		}
		algo := x.algoFor(allAnalyzed)
		if len(keys) > 0 {
			line("%s join on %s", algo, strings.Join(keys, " and "))
		} else {
			line("nested-loop product")
		}
	}
	var residual []string
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = append(residual, ExprString(c))
		}
	}
	if len(residual) > 0 {
		line("filter %s", strings.Join(residual, " and "))
	}
	for _, d := range descs {
		b.WriteString(d)
	}
	return nil
}

func (x *Exec) describeRef(t *TableRef, depth int) (string, bool, error) {
	var b strings.Builder
	switch {
	case t.IsJoin():
		kind := map[JoinKind]string{JoinInner: "inner", JoinLeftOuter: "left outer", JoinFullOuter: "full outer"}[t.Kind]
		indent(&b, depth)
		fmt.Fprintf(&b, "%s join on %s\n", kind, ExprString(t.On))
		l, _, err := x.describeRef(t.Join, depth+1)
		if err != nil {
			return "", false, err
		}
		r, _, err := x.describeRef(t.Right, depth+1)
		if err != nil {
			return "", false, err
		}
		b.WriteString(l)
		b.WriteString(r)
		return b.String(), false, nil
	case t.Sub != nil:
		indent(&b, depth)
		fmt.Fprintf(&b, "subquery %s:\n", t.DisplayName())
		if err := x.explainOne(&b, t.Sub, depth+1); err != nil {
			return "", false, err
		}
		return b.String(), false, nil
	default:
		if r, ok := x.Override[t.Name]; ok {
			indent(&b, depth)
			fmt.Fprintf(&b, "scan %s (working table, %d rows, no statistics)\n", t.DisplayName(), r.Len())
			return b.String(), false, nil
		}
		tab, err := x.Eng.Cat.Get(t.Name)
		if err != nil {
			return "", false, err
		}
		analyzed := tab.Analyzed()
		stats := "no statistics"
		if analyzed {
			stats = "analyzed"
		}
		kind := "base"
		if tab.Temp {
			kind = "temp"
		}
		indent(&b, depth)
		fmt.Fprintf(&b, "scan %s (%s table, %d rows, %s)\n", t.DisplayName(), kind, tab.Rows(), stats)
		return b.String(), analyzed, nil
	}
}
