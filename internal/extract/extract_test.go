package extract

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vizq/internal/tde/storage"
)

const sampleCSV = `date,carrier,delay,distance,cancelled
2015-01-01,WN,12.5,300,false
2015-01-01,AA,-3.0,1250,false
2015-01-02,WN,,500,true
2015-01-02,DL,45.25,2475,false
2015-01-03,"WN",0.5,"300",false
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseWithInference(t *testing.T) {
	tt, err := Parse(strings.NewReader(sampleCSV), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tt.Schema.HasHeader {
		t.Fatal("header not detected")
	}
	wantTypes := map[string]storage.Type{
		"date": storage.TDate, "carrier": storage.TStr, "delay": storage.TFloat,
		"distance": storage.TInt, "cancelled": storage.TBool,
	}
	if len(tt.Schema.Cols) != 5 {
		t.Fatalf("cols = %d", len(tt.Schema.Cols))
	}
	for _, c := range tt.Schema.Cols {
		if wantTypes[c.Name] != c.Type {
			t.Errorf("%s inferred as %v, want %v", c.Name, c.Type, wantTypes[c.Name])
		}
	}
	if len(tt.Rows) != 5 {
		t.Errorf("rows = %d", len(tt.Rows))
	}
}

func TestParseQuoting(t *testing.T) {
	csv := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"multi\nline\",2\n"
	tt, err := Parse(strings.NewReader(csv), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tt.Rows[0][0] != "x,y" || tt.Rows[0][1] != `say "hi"` {
		t.Errorf("quoting: %q", tt.Rows[0])
	}
	if tt.Rows[1][0] != "multi\nline" {
		t.Errorf("embedded newline: %q", tt.Rows[1][0])
	}
}

func TestParseCRLFAndDelimiter(t *testing.T) {
	tsv := "x\t1\r\ny\t2\r\n"
	tt, err := Parse(strings.NewReader(tsv), ParseOptions{Delimiter: '\t'})
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Rows) != 2 || tt.Rows[1][0] != "y" || tt.Rows[1][1] != "2" {
		t.Errorf("rows = %v", tt.Rows)
	}
	if tt.Schema.HasHeader {
		t.Error("no header expected")
	}
	if tt.Schema.Cols[0].Name != "F1" {
		t.Errorf("default name = %q", tt.Schema.Cols[0].Name)
	}
}

func TestSchemaFile(t *testing.T) {
	schemaText := `
# flights schema
header
date:date
carrier:str:ci
delay:float
distance:int
cancelled:bool
`
	s, err := ParseSchema(strings.NewReader(schemaText))
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasHeader || len(s.Cols) != 5 {
		t.Fatalf("schema = %+v", s)
	}
	if s.Cols[1].Coll != storage.CollCI {
		t.Error("collation not parsed")
	}
	tt, err := Parse(strings.NewReader(sampleCSV), ParseOptions{Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Rows) != 5 {
		t.Errorf("rows = %d", len(tt.Rows))
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := ParseSchema(strings.NewReader("date")); err == nil {
		t.Error("bad line should fail")
	}
	if _, err := ParseSchema(strings.NewReader("a:blob")); err == nil {
		t.Error("bad type should fail")
	}
	if _, err := ParseSchema(strings.NewReader("# only comments")); err == nil {
		t.Error("empty schema should fail")
	}
}

func TestBuildTableAndQuery(t *testing.T) {
	p := writeTemp(t, sampleCSV)
	db, err := CreateExtract(p, "flights", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("Extract", "flights")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != 5 {
		t.Errorf("rows = %d", tbl.Rows)
	}
	if !tbl.Column("delay").Value(2).Null {
		t.Error("empty field should be null")
	}
	res, err := QueryWithoutExtract(context.Background(), p, "flights",
		`(aggregate (table flights) (groupby carrier) (aggs (n count *)))`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Errorf("carriers = %d", res.N)
	}
}

func TestShadowManagerReuse(t *testing.T) {
	p := writeTemp(t, sampleCSV)
	m := NewShadowManager()
	_, extracted, err := m.Engine(p, "flights", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !extracted {
		t.Fatal("first call should extract")
	}
	_, extracted, err = m.Engine(p, "flights", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if extracted {
		t.Fatal("second call should reuse the extract")
	}
	res, err := m.Query(context.Background(), p, "flights",
		`(aggregate (table flights) (groupby) (aggs (n count *)))`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).I != 5 {
		t.Errorf("count = %d", res.Value(0, 0).I)
	}
}

func TestShadowManagerInvalidation(t *testing.T) {
	p := writeTemp(t, sampleCSV)
	m := NewShadowManager()
	if _, _, err := m.Engine(p, "flights", ParseOptions{}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the file with one more row and a different mtime.
	bigger := sampleCSV + "2015-01-04,UA,9.0,800,false\n"
	if err := os.WriteFile(p, []byte(bigger), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, extracted, err := m.Engine(p, "flights", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !extracted {
		t.Fatal("changed file should re-extract")
	}
	res, err := eng.Query(context.Background(), `(aggregate (table flights) (groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).I != 6 {
		t.Errorf("count = %d", res.Value(0, 0).I)
	}
}

func TestShadowPersistence(t *testing.T) {
	p := writeTemp(t, sampleCSV)
	dir := t.TempDir()
	m1 := NewShadowManager()
	m1.PersistDir = dir
	if _, extracted, err := m1.Engine(p, "flights", ParseOptions{}); err != nil || !extracted {
		t.Fatalf("first extract: %v %v", extracted, err)
	}
	// A new manager (a new session) finds the persisted extract.
	m2 := NewShadowManager()
	m2.PersistDir = dir
	_, extracted, err := m2.Engine(p, "flights", ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if extracted {
		t.Error("persisted extract should be reused across sessions")
	}
}

func TestParseLargeNoLimit(t *testing.T) {
	// The Jet driver had a 4GB limit; ours parses arbitrarily long input.
	var b strings.Builder
	b.WriteString("id,v\n")
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*3)
	}
	tt, err := Parse(strings.NewReader(b.String()), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Rows) != 50_000 {
		t.Errorf("rows = %d", len(tt.Rows))
	}
}

func TestRaggedRows(t *testing.T) {
	if _, err := Parse(strings.NewReader("a,b\n1,2\n3\n"), ParseOptions{}); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestConvertValueErrors(t *testing.T) {
	if _, err := ConvertValue("notanint", storage.TInt); err == nil {
		t.Error("bad int should fail")
	}
	if _, err := ConvertValue("2015-13-99", storage.TDate); err == nil {
		t.Error("bad date should fail")
	}
	v, err := ConvertValue("", storage.TInt)
	if err != nil || !v.Null {
		t.Error("empty should be null")
	}
}
