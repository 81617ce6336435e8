package dataserver

import (
	"context"
	"fmt"
	"strings"

	"vizq/internal/remote"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/storage"
)

// Published extracts (Sect. 5.1-5.2): instead of proxying every query to the
// live database, a source can be published WITH a TDE extract. The Data
// Server snapshots the view's tables into a local engine and serves all
// client queries from it; Refresh re-pulls from the live database —
// "refreshing a single extract daily — rather than all copies of it —
// significantly reduces the query load on the underlying database."

// systemUser is the fair-queuing identity maintenance traffic (extract
// pulls and refreshes) runs under.
const systemUser = "$system"

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
	// Extract pulls are maintenance traffic: Background class under the
	// server's system identity, so a live source sharing the backend never
	// starves dashboards for a snapshot and refresh traffic shares one
	// user-level queue no matter how many extracts pull at once.
	ctx := sched.WithClass(context.Background(), sched.Background)
	ctx = sched.WithUser(ctx, systemUser)
	if err := pullTables(ctx, live, localEng, tables); err != nil {
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
// purges the source's query caches so no stale results survive.
func (s *Server) RefreshExtract(name string) error {
	key := strings.ToLower(name)
	s.mu.Lock()
	st := s.extracts[key]
	proc := s.procs[key]
	s.mu.Unlock()
	if st == nil {
		return fmt.Errorf("dataserver: %q is not an extracted source", name)
	}
	// Drop and re-pull. Queries running concurrently against the old tables
	// keep their snapshot (tables are immutable); new queries see new data.
	for _, t := range st.tables {
		_ = st.localEng.Database().DropTable("Extract", t)
	}
	ctx := sched.WithClass(context.Background(), sched.Background)
	ctx = sched.WithUser(ctx, systemUser)
	if err := pullTables(ctx, st.liveBackend, st.localEng, st.tables); err != nil {
		return err
	}
	if proc != nil {
		proc.ClearCaches()
	}
	return nil
}

// pullTables snapshots the named tables from a live backend into the local
// engine's Extract schema. The context carries the caller's priority class
// (extract pulls are Background).
func pullTables(ctx context.Context, liveAddr string, localEng *engine.Engine, tables []string) error {
	conn, err := remote.Dial(liveAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, name := range tables {
		res, err := conn.Query(ctx, fmt.Sprintf("(table %s)", name))
		if err != nil {
			return fmt.Errorf("dataserver: extracting %s: %w", name, err)
		}
		tbl, err := engine.ResultToTable("Extract", name, res)
		if err != nil {
			return err
		}
		if err := localEng.Database().AddTable(tbl); err != nil {
			return err
		}
	}
	return localEng.RefreshSysTables()
}
