// Package engine is the public façade of the Tableau Data Engine
// reproduction: it owns a database, compiles TQL text through the binder and
// the rule-based optimizer, executes plans on the vectorized Volcano
// runtime, and gives each connection a session holding its own temporary
// tables. It is used standalone (Desktop extracts), behind the simulated
// remote database server, and behind Data Server.
package engine

import (
	"context"
	"fmt"
	"strings"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/tde/tql"
)

// TempSchema is the schema a query names a session's temporary tables in.
const TempSchema = "TEMP"

// Engine executes TQL queries against one database.
type Engine struct {
	db  *storage.Database
	opt opt.Options
}

// New wraps a database with default optimizer options.
func New(db *storage.Database) *Engine {
	return &Engine{db: db, opt: opt.DefaultOptions()}
}

// Open loads a single-file database from disk.
func Open(path string) (*Engine, error) {
	db, err := storage.OpenDatabase(path)
	if err != nil {
		return nil, err
	}
	return New(db), nil
}

// Database exposes the underlying catalog.
func (e *Engine) Database() *storage.Database { return e.db }

// SetOptions replaces the optimizer options (degree of parallelism etc.).
func (e *Engine) SetOptions(o opt.Options) { e.opt = o }

// Options returns the current optimizer options.
func (e *Engine) Options() opt.Options { return e.opt }

// Plan compiles and optimizes a TQL query without executing it.
func (e *Engine) Plan(src string) (plan.Node, error) {
	return e.plan(src, catalog{db: e.db})
}

func (e *Engine) plan(src string, cat catalog) (plan.Node, error) {
	n, err := tql.Compile(src, cat)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(n, e.opt), nil
}

// Query compiles, optimizes and executes a TQL query.
func (e *Engine) Query(ctx context.Context, src string) (*exec.Result, error) {
	return e.query(ctx, src, catalog{db: e.db})
}

func (e *Engine) query(ctx context.Context, src string, cat catalog) (*exec.Result, error) {
	n, err := e.plan(src, cat)
	if err != nil {
		return nil, err
	}
	return exec.Run(ctx, n)
}

// QueryReference executes the compiled plan as it is bound, with no
// optimizer rule: the reference the optimized paths are checked against.
//
//vizlint:allow unused -- the engine, cache and core tests check every optimized path against it
func (e *Engine) QueryReference(ctx context.Context, src string) (*exec.Result, error) {
	n, err := tql.Compile(src, catalog{db: e.db})
	if err != nil {
		return nil, err
	}
	return exec.Run(ctx, n)
}

// QuerySerial executes at DOP 1 under every logical rule, for baselines and
// ablations. It shares the optimizer's rules, so it is no reference.
func (e *Engine) QuerySerial(ctx context.Context, src string) (*exec.Result, error) {
	n, err := tql.Compile(src, catalog{db: e.db})
	if err != nil {
		return nil, err
	}
	o := e.opt
	o.MaxDOP = 1
	return exec.Run(ctx, opt.Logical(n, o))
}

// Execute runs an already-optimized plan.
func (e *Engine) Execute(ctx context.Context, n plan.Node) (*exec.Result, error) {
	return exec.Run(ctx, n)
}

// Session is one connection's view of the engine: the database plus the
// temporary tables this connection made (Sect. 5.3). No other session sees
// them, and they go when the session does (Sect. 5.4). One goroutine uses a
// session at a time.
type Session struct {
	eng   *Engine
	temps map[string]*storage.Table // lower(name) -> table
}

// NewSession opens a session with no temporary tables.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e, temps: make(map[string]*storage.Table)}
}

// CreateTemp materializes a result as the session's temporary table name,
// replacing any earlier one of that name, and returns the qualified name
// queries reference it by.
func (s *Session) CreateTemp(name string, res *exec.Result) (string, error) {
	t, err := ResultToTable(TempSchema, name, res)
	if err != nil {
		return "", err
	}
	s.temps[strings.ToLower(name)] = t
	return t.QualifiedName(), nil
}

// DropTemp removes one of the session's temporary tables by bare or
// qualified name.
func (s *Session) DropTemp(name string) error {
	name, _ = strings.CutPrefix(name, TempSchema+".")
	key := strings.ToLower(name)
	if s.temps[key] == nil {
		return fmt.Errorf("engine: table %s.%s not found", TempSchema, name)
	}
	delete(s.temps, key)
	return nil
}

// Query compiles, optimizes and executes a TQL query against the database
// and the session's temporary tables.
func (s *Session) Query(ctx context.Context, src string) (*exec.Result, error) {
	return s.eng.query(ctx, src, catalog{db: s.eng.db, temps: s.temps})
}

// ResultToTable converts a materialized result into a storage table,
// rebuilding per-column compression and statistics.
func ResultToTable(schema, name string, res *exec.Result) (*storage.Table, error) {
	cols := make([]*storage.Column, len(res.Schema))
	for c, info := range res.Schema {
		vals := make([]storage.Value, res.N)
		for i := 0; i < res.N; i++ {
			vals[i] = res.Value(i, c)
		}
		col, err := storage.BuildColumn(info.Name, info.Type, info.Coll, vals, storage.BuildOptions{})
		if err != nil {
			return nil, err
		}
		cols[c] = col
	}
	return storage.NewTable(schema, name, cols)
}
