// Package engine is the public façade of the Tableau Data Engine
// reproduction: it owns a database, compiles TQL text through the binder and
// the rule-based optimizer, executes plans on the vectorized Volcano
// runtime, and manages temporary tables. It is used standalone (Desktop
// extracts), behind the simulated remote database server, and behind Data
// Server.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/tde/tql"
)

// TempSchema is the schema holding session-created temporary tables.
const TempSchema = "TEMP"

// Engine executes TQL queries against one database.
type Engine struct {
	db  *storage.Database
	opt opt.Options

	mu      sync.Mutex
	tempSeq int
}

// New wraps a database with default optimizer options and builds the SYS
// metadata schema.
func New(db *storage.Database) *Engine {
	e := &Engine{db: db, opt: opt.DefaultOptions()}
	_ = e.RefreshSysTables() // best-effort: SYS is a convenience view
	return e
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
	n, err := tql.Compile(src, e.db)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(n, e.opt), nil
}

// Query compiles, optimizes and executes a TQL query.
func (e *Engine) Query(ctx context.Context, src string) (*exec.Result, error) {
	n, err := e.Plan(src)
	if err != nil {
		return nil, err
	}
	return exec.Run(ctx, n)
}

// QuerySerial executes with parallel plans disabled, for baselines and
// ablations.
func (e *Engine) QuerySerial(ctx context.Context, src string) (*exec.Result, error) {
	n, err := tql.Compile(src, e.db)
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

// CreateTempTable materializes a result as a table in the TEMP schema and
// returns its qualified name. Temporary tables back the large-filter
// externalization and Data Server features (Sect. 5.3).
func (e *Engine) CreateTempTable(name string, res *exec.Result) (string, error) {
	e.mu.Lock()
	if name == "" {
		e.tempSeq++
		name = fmt.Sprintf("t%06d", e.tempSeq)
	}
	e.mu.Unlock()
	t, err := ResultToTable(TempSchema, name, res)
	if err != nil {
		return "", err
	}
	if err := e.db.AddTable(t); err != nil {
		return "", err
	}
	_ = e.RefreshSysTables()
	return t.QualifiedName(), nil
}

// DropTempTable removes a temporary table by bare or qualified name.
func (e *Engine) DropTempTable(name string) error {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if err := e.db.DropTable(TempSchema, name); err != nil {
		return err
	}
	_ = e.RefreshSysTables()
	return nil
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
