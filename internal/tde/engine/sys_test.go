package engine

import (
	"testing"

	"vizq/internal/workload"
)

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
	e := New(db)
	res, err := e.Query(ctx(), `(distinct (project (table flights) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := e.CreateTempTable("snapshot", res)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := e.Query(ctx(), `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 1 {
		t.Fatalf("temp tables in SYS = %d", listed.N)
	}
	if err := e.DropTempTable(name); err != nil {
		t.Fatal(err)
	}
	listed, err = e.Query(ctx(), `(select (table SYS.tables) (= schema "TEMP"))`)
	if err != nil {
		t.Fatal(err)
	}
	if listed.N != 0 {
		t.Error("dropped temp table still listed")
	}
}
