package query

import (
	"fmt"
	"strings"

	"vizq/internal/tde/storage"
)

// TQLLiteral renders a value as TQL literal text.
func TQLLiteral(v storage.Value) string {
	if v.Null {
		return "null"
	}
	switch v.Type {
	case storage.TStr:
		return fmt.Sprintf("%q", v.S)
	case storage.TDate:
		return fmt.Sprintf("(date %q)", v.String())
	case storage.TDateTime:
		return fmt.Sprintf("(datetime %q)", v.String())
	default:
		return v.String()
	}
}

// FilterTQL renders a canonical filter as a TQL predicate. A temp-table
// filter becomes an IN over the named table, which the backend binds as
// the value set: the name must be one the backend knows.
func FilterTQL(f Filter) string {
	if f.Kind == FilterTemp {
		return fmt.Sprintf("(in %s (table %s))", f.Col, f.Temp)
	}
	if f.Kind == FilterIn {
		vals := make([]string, len(f.In))
		for i, v := range f.In {
			vals[i] = TQLLiteral(v)
		}
		return fmt.Sprintf("(in %s [%s])", f.Col, strings.Join(vals, " "))
	}
	var parts []string
	if f.LoSet {
		op := ">="
		if f.LoOpen {
			op = ">"
		}
		parts = append(parts, fmt.Sprintf("(%s %s %s)", op, f.Col, TQLLiteral(f.Lo)))
	}
	if f.HiSet {
		op := "<="
		if f.HiOpen {
			op = "<"
		}
		parts = append(parts, fmt.Sprintf("(%s %s %s)", op, f.Col, TQLLiteral(f.Hi)))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "(and " + strings.Join(parts, " ") + ")"
}

// ToTQL compiles the internal query into TQL text — the dialect of the TDE
// and of the simulated remote databases.
func (q *Query) ToTQL() string {
	rel := fmt.Sprintf("(table %s)", q.View.Table)
	if q.View.Custom != "" {
		rel = q.View.Custom
	}
	for _, j := range q.View.Joins {
		rel = fmt.Sprintf("(join %s (table %s) (on (= %s %s)))", rel, j.Table, j.LeftCol, j.RightCol)
	}
	if len(q.Filters) > 0 {
		preds := make([]string, len(q.Filters))
		for i, f := range q.Filters {
			preds[i] = FilterTQL(f)
		}
		pred := preds[0]
		if len(preds) > 1 {
			pred = "(and " + strings.Join(preds, " ") + ")"
		}
		rel = fmt.Sprintf("(select %s %s)", rel, pred)
	}

	var groups []string
	for _, d := range q.Dims {
		if d.Expr != "" {
			groups = append(groups, fmt.Sprintf("(%s %s)", d.Name(), d.Expr))
		} else if d.As != "" && !strings.EqualFold(d.As, d.Col) {
			groups = append(groups, fmt.Sprintf("(%s %s)", d.As, d.Col))
		} else {
			groups = append(groups, d.Col)
		}
	}
	var aggs []string
	for _, m := range q.Measures {
		arg := m.Col
		if arg == "" {
			arg = "*"
		}
		aggs = append(aggs, fmt.Sprintf("(%s %s %s)", m.Name(), m.Fn, arg))
	}
	out := fmt.Sprintf("(aggregate %s (groupby %s) (aggs %s))",
		rel, strings.Join(groups, " "), strings.Join(aggs, " "))

	if len(q.Having) > 0 {
		preds := make([]string, len(q.Having))
		for i, h := range q.Having {
			preds[i] = FilterTQL(h)
		}
		pred := preds[0]
		if len(preds) > 1 {
			pred = "(and " + strings.Join(preds, " ") + ")"
		}
		out = fmt.Sprintf("(select %s %s)", out, pred)
	}

	if q.N > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			dir := "asc"
			if o.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("(%s %s)", dir, o.Col)
		}
		return fmt.Sprintf("(topn %s %d %s)", out, q.N, strings.Join(keys, " "))
	}
	if len(q.OrderBy) > 0 {
		keys := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			dir := "asc"
			if o.Desc {
				dir = "desc"
			}
			keys[i] = fmt.Sprintf("(%s %s)", dir, o.Col)
		}
		return fmt.Sprintf("(order %s %s)", out, strings.Join(keys, " "))
	}
	return out
}
