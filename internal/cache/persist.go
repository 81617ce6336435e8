package cache

import (
	"encoding/json"
	"time"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// persistedEntry is the distributed layer's wire form of one cache entry.
type persistedEntry struct {
	Query  *query.Query
	Result *exec.Result
	CostNS int64
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
