package dataserver

import (
	"context"
	"fmt"
	"strings"

	"vizq/internal/remote"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
)

// Published extracts (Sect. 5.1-5.2): instead of proxying every query to the
// live database, a source can be published WITH a TDE extract. The Data
// Server snapshots the view's tables into a local engine and serves all
// client queries from it; Refresh re-pulls from the live database —
// "refreshing a single extract daily — rather than all copies of it —
// significantly reduces the query load on the underlying database."

// extractState tracks one extracted source.
type extractState struct {
	liveBackend string
	localEng    *engine.Engine
	localSrv    *remote.Server
	tables      []string
}

// PublishExtract publishes a data source backed by a local extract of the
// live database. The source's Backend field must point at the live
// database; after publishing, queries never touch it until Refresh.
func (s *Server) PublishExtract(src *PublishedSource) error {
	if src.Name == "" || src.Backend == "" || src.View.Table == "" {
		return fmt.Errorf("dataserver: incomplete published source")
	}
	live := src.Backend
	tables := []string{src.View.Table}
	for _, j := range src.View.Joins {
		tables = append(tables, j.Table)
	}
	localEng := engine.New(storage.NewDatabase("extract:" + src.Name))
	if err := pullTables(context.Background(), live, localEng, tables); err != nil {
		return err
	}
	localSrv := remote.NewServer(localEng, remote.Config{QueryDOP: 2})
	if err := localSrv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	// The published source now points at the extract server.
	src.Backend = localSrv.Addr()
	src.BackendSupportsTempTables = true
	if err := s.Publish(src); err != nil {
		localSrv.Close()
		return err
	}
	s.mu.Lock()
	if s.extracts == nil {
		s.extracts = make(map[string]*extractState)
	}
	s.extracts[strings.ToLower(src.Name)] = &extractState{
		liveBackend: live, localEng: localEng, localSrv: localSrv, tables: tables,
	}
	s.mu.Unlock()
	return nil
}

// RefreshExtract re-pulls the extract's tables from the live database and
// purges the source's query caches so no stale results survive. The old
// tables answer every query until the new ones are all pulled; then one
// step swaps them in. A query bound before the swap keeps its snapshot
// (tables are immutable); every later one sees the new data.
func (s *Server) RefreshExtract(name string) error {
	key := strings.ToLower(name)
	s.mu.Lock()
	st := s.extracts[key]
	proc := s.procs[key]
	s.mu.Unlock()
	if st == nil {
		return fmt.Errorf("dataserver: %q is not an extracted source", name)
	}
	if err := pullTables(context.Background(), st.liveBackend, st.localEng, st.tables); err != nil {
		return err
	}
	if proc != nil {
		proc.ClearCaches()
	}
	return nil
}

// pullTables snapshots the named tables from a live backend into the local
// engine's Extract schema, replacing the old ones in one step once all are
// pulled. It dials its own connection to the live database, outside the
// source's pool and admission control: a pull or refresh takes neither a
// pool connection nor an admission slot.
func pullTables(ctx context.Context, liveAddr string, localEng *engine.Engine, tables []string) error {
	conn, err := remote.Dial(liveAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	pulled := make([]*storage.Table, len(tables))
	for i, name := range tables {
		res, err := conn.Query(ctx, fmt.Sprintf("(table %s)", name))
		if err != nil {
			return fmt.Errorf("dataserver: extracting %s: %w", name, err)
		}
		if pulled[i], err = engine.ResultToTable("Extract", name, res); err != nil {
			return err
		}
	}
	localEng.Database().Replace(pulled...)
	return nil
}
