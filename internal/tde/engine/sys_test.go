package engine

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// TestStoredSysTablesAreDropped reads a file written when SYS was stored
// with the data: the stale SYS copy is dropped on read, so the derived
// SYS.tables lists only the data tables, and AddTable refuses a SYS table.
func TestStoredSysTablesAreDropped(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 200, Days: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := catalog{db: db}.sysTable("tables")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable(stored); err == nil {
		t.Fatal("AddTable accepted a SYS table")
	}
	db.Replace(stored) // how a file came to hold one
	var buf bytes.Buffer
	if err := storage.WriteDatabase(db, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := storage.ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tbls := back.Tables(storage.SysSchema); len(tbls) != 0 {
		t.Fatalf("read back %d stored SYS tables, want 0", len(tbls))
	}
	res, err := New(back).Query(ctx(), `(table SYS.tables)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 { // airports, carriers, flights
		t.Fatalf("SYS.tables lists %d rows over 3 data tables", res.N)
	}
}

func TestSysTablesQueryable(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 1000, Days: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	res, err := e.Query(ctx(), `(order (table SYS.tables) (asc name))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 { // airports, carriers, flights
		t.Fatalf("SYS.tables rows = %d", res.N)
	}
	nameCol := res.ColumnIndex("name")
	rowsCol := res.ColumnIndex("rows")
	if res.Value(2, nameCol).S != "flights" || res.Value(2, rowsCol).I != 1000 {
		t.Errorf("flights row = %v, %v rows", res.Value(2, nameCol), res.Value(2, rowsCol))
	}

	// Column metadata is queryable too.
	cols, err := e.Query(ctx(), `
		(select (table SYS.columns) (and (= table "flights") (= name "carrier")))`)
	if err != nil {
		t.Fatal(err)
	}
	if cols.N != 1 {
		t.Fatalf("carrier column rows = %d", cols.N)
	}
	if cols.Value(0, cols.ColumnIndex("type")).S != "str" {
		t.Errorf("carrier type = %v", cols.Value(0, cols.ColumnIndex("type")))
	}
	if cols.Value(0, cols.ColumnIndex("dict_size")).I == 0 {
		t.Error("carrier should be dictionary-compressed")
	}

	// Aggregating over metadata works like any query.
	agg, err := e.Query(ctx(), `
		(aggregate (table SYS.columns) (groupby encoding) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if agg.N == 0 {
		t.Error("encoding breakdown empty")
	}
}

func TestSysTablesTrackTempTables(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 500, Days: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sess := New(db).NewSession()
	res, err := sess.Query(ctx(), `(distinct (project (table flights) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := sess.CreateTemp("snapshot", res)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := sess.Query(ctx(), `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 1 {
		t.Fatalf("temp tables in SYS = %d", listed.N)
	}
	if err := sess.DropTemp(name); err != nil {
		t.Fatal(err)
	}
	listed, err = sess.Query(ctx(), `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 0 {
		t.Error("dropped temp table still listed")
	}
}

// TestSessionTempTablesLeaveSysReadable: sessions create temp tables while
// another goroutine reads SYS.tables. Every read succeeds (SYS is derived
// per query, never dropped and re-added under a reader), and afterwards
// each session's SYS.tables lists exactly its own temp tables.
func TestSessionTempTablesLeaveSysReadable(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 200, Days: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	vals, err := e.Query(ctx(), `(distinct (project (table flights) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, creates = 8, 25
	done := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := e.Query(ctx(), `(table SYS.tables)`)
			if err == nil && res.N != 3 {
				err = fmt.Errorf("SYS.tables has %d rows outside any session, want 3", res.N)
			}
			if err != nil {
				readErr <- err
				return
			}
		}
	}()
	sess := make([]*Session, sessions)
	var wg sync.WaitGroup
	for i := range sess {
		sess[i] = e.NewSession()
		wg.Add(1)
		go func(s *Session, i int) {
			defer wg.Done()
			for j := 0; j < creates; j++ {
				if _, err := s.CreateTemp(fmt.Sprintf("s%d_t%d", i, j), vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(sess[i], i)
	}
	wg.Wait()
	close(done)
	if err := <-readErr; err != nil {
		t.Fatalf("concurrent SYS.tables read: %v", err)
	}
	for i, s := range sess {
		res, err := s.Query(ctx(), `(order (select (table SYS.tables) (= schema "TEMP")) (asc name))`)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, creates)
		for j := range want {
			want[j] = fmt.Sprintf("s%d_t%d", i, j)
		}
		sort.Strings(want)
		var got []string
		for r := 0; r < res.N; r++ {
			got = append(got, res.Value(r, res.ColumnIndex("name")).S)
		}
		if !slices.Equal(got, want) {
			t.Errorf("session %d lists TEMP tables %v, want %v", i, got, want)
		}
	}
}
