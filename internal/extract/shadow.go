package extract

import (
	"context"
	"fmt"
	"os"
	"sync"

	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
)

// BuildTable converts a parsed text table into a TDE table.
func BuildTable(schema, name string, tt *TextTable) (*storage.Table, error) {
	width := len(tt.Schema.Cols)
	cols := make([]*storage.Column, width)
	for c := 0; c < width; c++ {
		spec := tt.Schema.Cols[c]
		vals := make([]storage.Value, len(tt.Rows))
		for i, row := range tt.Rows {
			v, err := ConvertValue(row[c], spec.Type)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", i+1, spec.Name, err)
			}
			vals[i] = v
		}
		col, err := storage.BuildColumn(spec.Name, spec.Type, spec.Coll, vals, storage.BuildOptions{})
		if err != nil {
			return nil, err
		}
		cols[c] = col
	}
	return storage.NewTable(schema, name, cols)
}

// CreateExtract parses a text file and loads it as a table into a fresh
// database (the one-time cost of creating the temporary database).
func CreateExtract(path, tableName string, opt ParseOptions) (*storage.Database, error) {
	tt, err := ParseFile(path, opt)
	if err != nil {
		return nil, err
	}
	tbl, err := BuildTable("Extract", tableName, tt)
	if err != nil {
		return nil, err
	}
	db := storage.NewDatabase(tableName)
	if err := db.AddTable(tbl); err != nil {
		return nil, err
	}
	return db, nil
}

// FileSignature identifies a file version for shadow-extract reuse.
type FileSignature struct {
	Path    string
	Size    int64
	ModTime int64
}

// Signature stats the file and builds its signature.
func Signature(path string) (FileSignature, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return FileSignature{}, err
	}
	return FileSignature{Path: path, Size: fi.Size(), ModTime: fi.ModTime().UnixNano()}, nil
}

// ShadowManager keeps shadow extracts: on the first query against a text
// file it extracts the data into a TDE database; subsequent queries run
// against the engine instead of re-parsing the file (Sect. 4.4). Extracts
// are invalidated when the file changes.
type ShadowManager struct {
	mu      sync.Mutex
	entries map[string]*shadowEntry
	// PersistDir, when set, stores extracts as .tde files so later sessions
	// skip re-extraction ("the system can persist extracts in workbooks to
	// avoid recreating temporary tables at every load").
	PersistDir string
}

type shadowEntry struct {
	sig    FileSignature
	engine *engine.Engine
}

// NewShadowManager creates an empty manager.
func NewShadowManager() *ShadowManager {
	return &ShadowManager{entries: make(map[string]*shadowEntry)}
}

// Engine returns the shadow-extract engine for a file, creating (or
// reloading) the extract when missing or stale. The bool reports whether an
// extraction was performed on this call.
func (m *ShadowManager) Engine(path, tableName string, opt ParseOptions) (*engine.Engine, bool, error) {
	sig, err := Signature(path)
	if err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[path]; ok && e.sig == sig {
		return e.engine, false, nil
	}
	if m.PersistDir != "" {
		if eng, ok := m.loadPersisted(sig); ok {
			m.entries[path] = &shadowEntry{sig: sig, engine: eng}
			return eng, false, nil
		}
	}
	db, err := CreateExtract(path, tableName, opt)
	if err != nil {
		return nil, false, err
	}
	eng := engine.New(db)
	m.entries[path] = &shadowEntry{sig: sig, engine: eng}
	if m.PersistDir != "" {
		// Best-effort persistence; queries proceed regardless.
		_ = storage.SaveDatabase(db, m.persistPath(sig))
	}
	return eng, true, nil
}

// Query runs TQL against the file's shadow extract.
func (m *ShadowManager) Query(ctx context.Context, path, tableName, tqlSrc string, opt ParseOptions) (*exec.Result, error) {
	eng, _, err := m.Engine(path, tableName, opt)
	if err != nil {
		return nil, err
	}
	return eng.Query(ctx, tqlSrc)
}

func (m *ShadowManager) persistPath(sig FileSignature) string {
	return fmt.Sprintf("%s/shadow_%x_%x.tde", m.PersistDir, hashString(sig.Path), uint64(sig.ModTime)^uint64(sig.Size))
}

func (m *ShadowManager) loadPersisted(sig FileSignature) (*engine.Engine, bool) {
	db, err := storage.OpenDatabase(m.persistPath(sig))
	if err != nil {
		return nil, false
	}
	return engine.New(db), true
}

// hashString is a small FNV-1a for stable persisted file names.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// QueryWithoutExtract parses the file and evaluates the query against a
// throwaway database — the pre-shadow-extract behaviour ("the system had to
// parse the file for every query"), kept as the baseline for E7.
func QueryWithoutExtract(ctx context.Context, path, tableName, tqlSrc string, opt ParseOptions) (*exec.Result, error) {
	db, err := CreateExtract(path, tableName, opt)
	if err != nil {
		return nil, err
	}
	return engine.New(db).Query(ctx, tqlSrc)
}
