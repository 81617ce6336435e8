// Package query defines Tableau's internal query model: the
// aggregate-select-project queries that dashboard zones generate
// (Sect. 3.1). Internal queries are structural — dimensions, measures and
// canonical filters over a view of one data source — so the intelligent
// cache can reason about subsumption before any dialect text is produced.
package query

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"vizq/internal/tde/storage"
)

// AggFunc names an aggregate in the internal model.
type AggFunc string

// Supported aggregates.
const (
	Count  AggFunc = "count"
	Sum    AggFunc = "sum"
	Avg    AggFunc = "avg"
	Min    AggFunc = "min"
	Max    AggFunc = "max"
	CountD AggFunc = "countd"
)

// View names the relation a query runs against: a primary table plus
// optional star-schema joins, or a custom relation (the internal form of
// "parameterized custom SQL queries" — Sect. 3.1). A custom relation is an
// opaque TQL subtree; the cache matches it only by identical text.
type View struct {
	Table string
	Joins []JoinSpec
	// Custom, when non-empty, replaces Table as the base relation; it must
	// be a TQL operator expression (e.g. a select over a table).
	Custom string
}

// JoinSpec joins a dimension table to the view.
type JoinSpec struct {
	Table    string
	LeftCol  string // column of the primary table
	RightCol string // column of the joined table
}

// Key returns the canonical identity of the view.
func (v View) Key() string {
	base := strings.ToLower(v.Table)
	if v.Custom != "" {
		base = "custom:" + v.Custom
	}
	parts := []string{base}
	joins := make([]string, len(v.Joins))
	for i, j := range v.Joins {
		joins[i] = fmt.Sprintf("%s:%s=%s", strings.ToLower(j.Table), strings.ToLower(j.LeftCol), strings.ToLower(j.RightCol))
	}
	sort.Strings(joins)
	return strings.Join(append(parts, joins...), "|")
}

// Dim is a group-by output: a column or a calculation rendered in the
// engine's expression syntax. Calculations match only by identical text.
type Dim struct {
	Col string // column name, or "" when Expr is set
	// Expr is a TQL calculation, e.g. "(weekday date)".
	Expr string
	// As names the output; defaults to Col.
	As string
}

// Name returns the output column name.
func (d Dim) Name() string {
	if d.As != "" {
		return d.As
	}
	return d.Col
}

func (d Dim) key() string {
	if d.Expr != "" {
		return "e:" + d.Expr
	}
	return "c:" + strings.ToLower(d.Col)
}

// Measure is one aggregate output.
type Measure struct {
	Fn  AggFunc
	Col string // "" for count(*)
	As  string
}

// Name returns the output column name.
func (m Measure) Name() string {
	if m.As != "" {
		return m.As
	}
	if m.Col == "" {
		return string(m.Fn)
	}
	return fmt.Sprintf("%s_%s", m.Fn, m.Col)
}

func (m Measure) key() string {
	return fmt.Sprintf("%s(%s)", m.Fn, strings.ToLower(m.Col))
}

// FilterKind discriminates canonical filter shapes.
type FilterKind uint8

// Filter kinds.
const (
	// FilterIn keeps rows whose column is in a value set (categorical
	// filters, multi-select quick filters).
	FilterIn FilterKind = iota
	// FilterRange keeps rows within an interval (range filters, date
	// filters); either bound may be absent.
	FilterRange
	// FilterTemp keeps rows whose column is in a named one-column temporary
	// table (Sect. 5.3), rendered (in col (table name)). Data Server inlines
	// its clients' temp filters; the pipeline turns an oversized IN list
	// into one over a backend session temp table.
	FilterTemp
)

// Filter is one conjunct of the query's predicate, in canonical per-column
// form so implication is decidable (the matching logic of Sect. 3.2).
type Filter struct {
	Col  string
	Kind FilterKind

	// FilterIn payload.
	In []storage.Value

	// FilterRange payload.
	Lo, Hi         storage.Value
	LoSet, HiSet   bool
	LoOpen, HiOpen bool // true = strict inequality

	// FilterTemp payload: the client temp table name.
	Temp string
}

// TempFilter builds a temp-table-backed filter.
func TempFilter(col, temp string) Filter {
	return Filter{Col: col, Kind: FilterTemp, Temp: temp}
}

// InFilter builds a set filter.
func InFilter(col string, vals ...storage.Value) Filter {
	return Filter{Col: col, Kind: FilterIn, In: vals}
}

// RangeFilter builds a closed-interval filter; use the Set flags' zero
// values by passing storage.NullValue for an open end.
func RangeFilter(col string, lo, hi storage.Value) Filter {
	f := Filter{Col: col, Kind: FilterRange}
	if !lo.Null {
		f.Lo, f.LoSet = lo, true
	}
	if !hi.Null {
		f.Hi, f.HiSet = hi, true
	}
	return f
}

// GtFilter builds a strict lower-bound filter.
func GtFilter(col string, lo storage.Value) Filter {
	return Filter{Col: col, Kind: FilterRange, Lo: lo, LoSet: true, LoOpen: true}
}

func (f Filter) key() string {
	var b strings.Builder
	b.WriteString(strings.ToLower(f.Col))
	if f.Kind == FilterTemp {
		b.WriteString(" temp:")
		b.WriteString(strings.ToLower(f.Temp))
		return b.String()
	}
	if f.Kind == FilterIn {
		b.WriteString(" in [")
		vals := make([]string, len(f.In))
		for i, v := range f.In {
			vals[i] = v.String()
		}
		sort.Strings(vals)
		b.WriteString(strings.Join(vals, ","))
		b.WriteString("]")
		return b.String()
	}
	if f.LoSet {
		if f.LoOpen {
			fmt.Fprintf(&b, " >%s", f.Lo)
		} else {
			fmt.Fprintf(&b, " >=%s", f.Lo)
		}
	}
	if f.HiSet {
		if f.HiOpen {
			fmt.Fprintf(&b, " <%s", f.Hi)
		} else {
			fmt.Fprintf(&b, " <=%s", f.Hi)
		}
	}
	return b.String()
}

// proofKeys is the free list of the key-list pairs IN ⊆ IN proofs build
// in. Unlike a sync.Pool it keeps them across garbage collections, so a
// warmed proof allocates nothing even where long lists are proven rarely.
var proofKeys struct {
	sync.Mutex
	free []*[2]storage.KeyList
}

// inWithin proves f.In ⊆ g.In and g.In ⊆ f.In in one merge.
func inWithin(f, g Filter, typ storage.Type, coll storage.Collation) (implies, implied bool) {
	var keys *[2]storage.KeyList
	proofKeys.Lock()
	if n := len(proofKeys.free); n > 0 {
		keys, proofKeys.free = proofKeys.free[n-1], proofKeys.free[:n-1]
	}
	proofKeys.Unlock()
	if keys == nil {
		keys = new([2]storage.KeyList)
	}
	keys[0].Build(typ, coll, f.In)
	keys[1].Build(typ, coll, g.In)
	implies, implied = keys[0].Within(&keys[1])
	proofKeys.Lock()
	proofKeys.free = append(proofKeys.free, keys)
	proofKeys.Unlock()
	return implies, implied
}

// Relate proves f ⇒ g and g ⇒ f at once, for filters on the same column,
// of type typ under coll: the per-conjunct implication proof the
// intelligent cache runs (Sect. 3.2: "we attempt to prove that results of
// the stored query subsume the requested data"). IN lists are compared
// under the executor's membership rule (storage.ColumnValue, then
// AppendKey), as sorted key lists in one merge; a member the column cannot
// hold selects no rows and is left out.
func (f Filter) Relate(g Filter, typ storage.Type, coll storage.Collation) (implies, implied bool) {
	if !strings.EqualFold(f.Col, g.Col) {
		return false, false
	}
	if f.Kind == FilterTemp || g.Kind == FilterTemp {
		// Temp contents are opaque: only identity is provable.
		same := f.Kind == g.Kind && strings.EqualFold(f.Temp, g.Temp)
		return same, same
	}
	switch {
	case f.Kind == FilterIn && g.Kind == FilterIn:
		return inWithin(f, g, typ, coll)
	// A range within a finite set is not provable without the domain.
	case f.Kind == FilterIn:
		return g.holdsAll(f.In, typ, coll), false
	case g.Kind == FilterIn:
		return false, f.holdsAll(g.In, typ, coll)
	}
	return rangeImplies(f, g, coll), rangeImplies(g, f, coll)
}

// rangeImplies reports whether range filter f's bounds lie within g's.
func rangeImplies(f, g Filter, coll storage.Collation) bool {
	if g.LoSet {
		if !f.LoSet {
			return false
		}
		c := storage.Compare(f.Lo, g.Lo, coll)
		if c < 0 || (c == 0 && g.LoOpen && !f.LoOpen) {
			return false
		}
	}
	if g.HiSet {
		if !f.HiSet {
			return false
		}
		c := storage.Compare(f.Hi, g.Hi, coll)
		if c > 0 || (c == 0 && g.HiOpen && !f.HiOpen) {
			return false
		}
	}
	return true
}

// holdsAll reports whether range filter f contains every member of vals a
// column of type typ can hold. A NaN member is refused: whether a range
// keeps a NaN row is not decided alike by the executor's comparison kernels
// and by the optimizer's folding of bounds against column statistics.
func (f Filter) holdsAll(vals []storage.Value, typ storage.Type, coll storage.Collation) bool {
	for _, v := range vals {
		v, ok := storage.ColumnValue(typ, v)
		if ok && (v.Type == storage.TFloat && math.IsNaN(v.F) || !f.RangeContains(v, coll)) {
			return false
		}
	}
	return true
}

// RangeContains reports whether v lies within the range filter f's bounds.
func (f Filter) RangeContains(v storage.Value, coll storage.Collation) bool {
	if f.LoSet {
		c := storage.Compare(v, f.Lo, coll)
		if c < 0 || (c == 0 && f.LoOpen) {
			return false
		}
	}
	if f.HiSet {
		c := storage.Compare(v, f.Hi, coll)
		if c > 0 || (c == 0 && f.HiOpen) {
			return false
		}
	}
	return true
}

// Order is one sort key of the query output.
type Order struct {
	Col  string // output column name (dim or measure)
	Desc bool
}

// Query is the internal aggregate-select-project query.
type Query struct {
	// DataSource names the connection or published data source.
	DataSource string
	View       View
	Dims       []Dim
	Measures   []Measure
	Filters    []Filter
	// Having filters apply to the aggregated output (by output column
	// name) — the Fig. 2 Carrier zone keeps "the top 5 carriers ... that
	// have more than 1,400 Flights/Day". Like top-n, having-filtered
	// results answer only identical requests from the cache.
	Having  []Filter
	OrderBy []Order
	// N > 0 requests the top N rows under OrderBy.
	N int
}

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	c := *q
	c.View.Joins = append([]JoinSpec(nil), q.View.Joins...)
	c.Dims = append([]Dim(nil), q.Dims...)
	c.Measures = append([]Measure(nil), q.Measures...)
	c.Filters = make([]Filter, len(q.Filters))
	for i, f := range q.Filters {
		c.Filters[i] = f
		c.Filters[i].In = append([]storage.Value(nil), f.In...)
	}
	c.Having = make([]Filter, len(q.Having))
	for i, f := range q.Having {
		c.Having[i] = f
		c.Having[i].In = append([]storage.Value(nil), f.In...)
	}
	c.OrderBy = append([]Order(nil), q.OrderBy...)
	return &c
}

// GroupKey identifies the cache bucket: data source + view. Candidates
// within a bucket are checked with the full matching logic.
func (q *Query) GroupKey() string {
	return strings.ToLower(q.DataSource) + "||" + q.View.Key()
}

// Key is the full structural identity of the query (the intelligent cache
// key): stable under filter and In-value reordering.
func (q *Query) Key() string {
	var b strings.Builder
	b.WriteString(q.GroupKey())
	b.WriteString("|d:")
	for _, d := range q.Dims {
		b.WriteString(d.key())
		b.WriteString(",")
	}
	b.WriteString("|m:")
	for _, m := range q.Measures {
		b.WriteString(m.key())
		b.WriteString(",")
	}
	b.WriteString("|f:")
	fkeys := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		fkeys[i] = f.key()
	}
	sort.Strings(fkeys)
	b.WriteString(strings.Join(fkeys, "&"))
	if len(q.Having) > 0 {
		hk := make([]string, len(q.Having))
		for i, h := range q.Having {
			hk[i] = h.key()
		}
		sort.Strings(hk)
		b.WriteString("|h:")
		b.WriteString(strings.Join(hk, "&"))
	}
	if q.N > 0 {
		fmt.Fprintf(&b, "|top:%d", q.N)
		for _, o := range q.OrderBy {
			fmt.Fprintf(&b, ",%s:%v", strings.ToLower(o.Col), o.Desc)
		}
	}
	return b.String()
}

// OutputColumns lists the result column names in order.
func (q *Query) OutputColumns() []string {
	out := make([]string, 0, len(q.Dims)+len(q.Measures))
	for _, d := range q.Dims {
		out = append(out, d.Name())
	}
	for _, m := range q.Measures {
		out = append(out, m.Name())
	}
	return out
}

// Validate performs structural sanity checks.
func (q *Query) Validate() error {
	if q.View.Table == "" && q.View.Custom == "" {
		return fmt.Errorf("query: missing view table")
	}
	if len(q.Dims) == 0 && len(q.Measures) == 0 {
		return fmt.Errorf("query: no outputs")
	}
	seen := map[string]bool{}
	for _, c := range q.OutputColumns() {
		l := strings.ToLower(c)
		if seen[l] {
			return fmt.Errorf("query: duplicate output column %q", c)
		}
		seen[l] = true
	}
	for _, m := range q.Measures {
		switch m.Fn {
		case Count, Sum, Avg, Min, Max, CountD:
		default:
			return fmt.Errorf("query: unknown aggregate %q", m.Fn)
		}
		if m.Col == "" && m.Fn != Count {
			return fmt.Errorf("query: %s requires a column", m.Fn)
		}
	}
	if q.N < 0 {
		return fmt.Errorf("query: negative top-n")
	}
	if q.N > 0 && len(q.OrderBy) == 0 {
		return fmt.Errorf("query: top-n requires an ordering")
	}
	for _, f := range q.Filters {
		if f.Col == "" {
			return fmt.Errorf("query: filter without column")
		}
		if f.Kind == FilterRange && !f.LoSet && !f.HiSet {
			return fmt.Errorf("query: unbounded range filter on %s", f.Col)
		}
		if f.Kind == FilterTemp && f.Temp == "" {
			return fmt.Errorf("query: temp filter without table name on %s", f.Col)
		}
	}
	return nil
}
