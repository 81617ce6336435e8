package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// SysSchema is the reserved schema name of the database metadata a query
// can read; the engine derives its tables, nothing stores them.
const SysSchema = "SYS"

// Table is a read-only columnar table with optimizer metadata.
type Table struct {
	Schema string
	Name   string
	Cols   []*Column
	Rows   int64
	// SortKey lists column names the table rows are physically ordered by,
	// major first. Range partitioning for parallel aggregation (Sect. 4.2.3)
	// keys off this.
	SortKey []string
	// UniqueKeys lists column-name sets known to be row-unique; join culling
	// needs uniqueness of dimension join keys.
	UniqueKeys [][]string
}

// QualifiedName returns "schema.name".
func (t *Table) QualifiedName() string { return t.Schema + "." + t.Name }

// Column returns the named column (case-insensitive), or nil.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return c
		}
	}
	return nil
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// HasUniqueKey reports whether the given column set is a known unique key.
func (t *Table) HasUniqueKey(cols []string) bool {
	want := make([]string, len(cols))
	for i, c := range cols {
		want[i] = strings.ToLower(c)
	}
	sort.Strings(want)
	for _, key := range t.UniqueKeys {
		if len(key) != len(want) {
			continue
		}
		have := make([]string, len(key))
		for i, c := range key {
			have[i] = strings.ToLower(c)
		}
		sort.Strings(have)
		match := true
		for i := range have {
			if have[i] != want[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// SortPrefix reports how many leading sort-key columns the given column set
// covers: the longest prefix of SortKey fully contained in cols. Per Lemma 3
// a positive prefix lets aggregation run fully parallel under range
// partitioning.
func (t *Table) SortPrefix(cols []string) int {
	set := make(map[string]bool, len(cols))
	for _, c := range cols {
		set[strings.ToLower(c)] = true
	}
	n := 0
	for _, k := range t.SortKey {
		if !set[strings.ToLower(k)] {
			break
		}
		n++
	}
	return n
}

// NewTable assembles a table from columns, validating consistent lengths.
func NewTable(schema, name string, cols []*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %s.%s has no columns", schema, name)
	}
	n := cols[0].Len()
	seen := make(map[string]bool)
	for _, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("storage: table %s.%s: column %s has %d rows, want %d",
				schema, name, c.Name, c.Len(), n)
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return nil, fmt.Errorf("storage: table %s.%s: duplicate column %s", schema, name, c.Name)
		}
		seen[lower] = true
	}
	return &Table{Schema: schema, Name: name, Cols: cols, Rows: int64(n)}, nil
}

// Database is the top level of the three-layer namespace: schemas containing
// tables containing columns. It is safe for concurrent readers with
// serialized writers.
type Database struct {
	mu      sync.RWMutex
	name    string
	schemas map[string]map[string]*Table // lower(schema) -> lower(table) -> table
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{name: name, schemas: make(map[string]map[string]*Table)}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// AddTable registers a table, creating its schema on demand (not SYS's).
func (db *Database) AddTable(t *Table) error {
	if strings.EqualFold(t.Schema, SysSchema) {
		return fmt.Errorf("storage: schema %s is reserved", SysSchema)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.schemas[strings.ToLower(t.Schema)][strings.ToLower(t.Name)] != nil {
		return fmt.Errorf("storage: table %s already exists", t.QualifiedName())
	}
	db.put(t)
	return nil
}

// Replace installs tables under one lock, each replacing any table of its
// name, so a query binds either all the old tables or all the new ones.
// Queries already bound keep the tables they hold: tables are immutable.
func (db *Database) Replace(tables ...*Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range tables {
		db.put(t)
	}
}

// put stores t under its name, creating its schema on demand. db.mu is
// held.
func (db *Database) put(t *Table) {
	s := strings.ToLower(t.Schema)
	if db.schemas[s] == nil {
		db.schemas[s] = make(map[string]*Table)
	}
	db.schemas[s][strings.ToLower(t.Name)] = t
}

// Table resolves a table by schema and name (case-insensitive).
func (db *Database) Table(schema, name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.schemas[strings.ToLower(schema)]
	if s == nil {
		return nil, fmt.Errorf("storage: schema %s not found", schema)
	}
	t := s[strings.ToLower(name)]
	if t == nil {
		return nil, fmt.Errorf("storage: table %s.%s not found", schema, name)
	}
	return t, nil
}

// Schemas returns the schema names in sorted order.
func (db *Database) Schemas() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.schemas))
	for s := range db.schemas {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Tables returns the tables of a schema in name order.
func (db *Database) Tables(schema string) []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.schemas[strings.ToLower(schema)]
	out := make([]*Table, 0, len(s))
	for _, t := range s {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllTables returns every table, by schema.
func (db *Database) AllTables() []*Table {
	var out []*Table
	for _, s := range db.Schemas() {
		out = append(out, db.Tables(s)...)
	}
	return out
}
