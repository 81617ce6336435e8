package cache

import (
	"encoding/json"
	"os"
	"time"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// Desktop persists query caches to disk "to enable fast response times
// across different sessions with the application" (Sect. 3.2).

type persistedEntry struct {
	Query  *query.Query
	Result *exec.Result
	CostNS int64
}

type persistedCache struct {
	Version int
	Entries []persistedEntry
}

// saveJSON writes v to path atomically (temp file, then rename).
func saveJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadJSON reads path into v. A missing file is a fresh session, not an
// error: it reports false with a nil error.
func loadJSON(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return false, err
	}
	return true, json.Unmarshal(data, v)
}

// Save writes the intelligent cache contents to a file.
func (c *IntelligentCache) Save(path string) error {
	p := persistedCache{Version: 1}
	for _, e := range c.Entries() {
		p.Entries = append(p.Entries, persistedEntry{Query: e.Query, Result: e.Result, CostNS: int64(e.Cost)})
	}
	return saveJSON(path, p)
}

// Load restores persisted entries into the cache.
func (c *IntelligentCache) Load(path string) error {
	var p persistedCache
	if ok, err := loadJSON(path, &p); !ok || err != nil {
		return err
	}
	for _, e := range p.Entries {
		if e.Query == nil || e.Result == nil {
			continue
		}
		c.Put(e.Query, e.Result, time.Duration(e.CostNS))
	}
	return nil
}

type persistedLiteral struct {
	Text   string
	Result *exec.Result
	CostNS int64
}

type persistedLiteralCache struct {
	Version int
	Entries []persistedLiteral
}

// Save writes the literal cache to a file (Desktop persists both cache
// levels across sessions).
func (c *LiteralCache) Save(path string) error {
	p := persistedLiteralCache{Version: 1}
	for _, e := range c.Entries() {
		p.Entries = append(p.Entries, persistedLiteral{Text: e.Text, Result: e.Result, CostNS: int64(e.Cost)})
	}
	return saveJSON(path, p)
}

// Load restores persisted literal entries.
func (c *LiteralCache) Load(path string) error {
	var p persistedLiteralCache
	if ok, err := loadJSON(path, &p); !ok || err != nil {
		return err
	}
	for _, e := range p.Entries {
		if e.Result == nil {
			continue
		}
		c.Put(e.Text, e.Result, time.Duration(e.CostNS))
	}
	return nil
}

// EncodeEntry serializes a query+result pair for the distributed layer.
func EncodeEntry(q *query.Query, res *exec.Result, cost time.Duration) ([]byte, error) {
	return json.Marshal(persistedEntry{Query: q, Result: res, CostNS: int64(cost)})
}

// DecodeEntry parses a distributed-layer payload.
func DecodeEntry(data []byte) (*query.Query, *exec.Result, time.Duration, error) {
	var e persistedEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, nil, 0, err
	}
	return e.Query, e.Result, time.Duration(e.CostNS), nil
}
