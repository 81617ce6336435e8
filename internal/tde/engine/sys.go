package engine

import (
	"fmt"
	"sort"
	"strings"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// catalog is what one query binds against (tql.Catalog). The TEMP schema is
// a session's own tables, SYS describes the tables the query can see, and
// every other schema is the database's. Binding writes nothing: a session's
// tables change only between its queries, and the database replaces whole
// tables under its lock.
type catalog struct {
	db    *storage.Database
	temps map[string]*storage.Table // nil outside a session
}

func (c catalog) Table(schema, name string) (*storage.Table, error) {
	switch {
	case strings.EqualFold(schema, TempSchema):
		if t := c.temps[strings.ToLower(name)]; t != nil {
			return t, nil
		}
	case strings.EqualFold(schema, storage.SysSchema):
		if name := strings.ToLower(name); sysSchemas[name] != nil {
			return c.sysTable(name)
		}
	default:
		return c.db.Table(schema, name)
	}
	return nil, fmt.Errorf("engine: table %s.%s not found", schema, name)
}

// sysSchemas are the columns of SYS.tables and SYS.columns.
var sysSchemas = map[string][]plan.ColInfo{
	"tables": {sysCol("schema", storage.TStr), sysCol("name", storage.TStr),
		sysCol("rows", storage.TInt), sysCol("sorted_by", storage.TStr)},
	"columns": {sysCol("schema", storage.TStr), sysCol("table", storage.TStr),
		sysCol("name", storage.TStr), sysCol("type", storage.TStr),
		sysCol("collation", storage.TStr), sysCol("encoding", storage.TStr),
		sysCol("sorted", storage.TBool), sysCol("distinct", storage.TInt),
		sysCol("nulls", storage.TInt), sysCol("dict_size", storage.TInt)},
}

func sysCol(name string, t storage.Type) plan.ColInfo {
	return plan.ColInfo{Name: name, Type: t, Coll: storage.CollCI}
}

// sysTable builds one SYS table when a query names it, so the metadata is
// queryable with ordinary TQL (Sect. 4.1.1: "the metadata is stored in the
// reserved SYS schema") and always matches what the query binds against:
// the database's tables plus the session's own temporary tables.
func (c catalog) sysTable(name string) (*storage.Table, error) {
	tables := c.db.AllTables()
	temps := make([]*storage.Table, 0, len(c.temps))
	for _, t := range c.temps {
		temps = append(temps, t)
	}
	sort.Slice(temps, func(i, j int) bool { return temps[i].Name < temps[j].Name })
	tables = append(tables, temps...)

	str := storage.StrValue
	res := exec.NewResult(sysSchemas[name])
	for _, t := range tables {
		if name == "tables" {
			res.AppendRow([]storage.Value{str(t.Schema), str(t.Name), storage.IntValue(t.Rows),
				str(strings.Join(t.SortKey, ","))})
			continue
		}
		for _, col := range t.Cols {
			dictSize := int64(0)
			if col.Dict != nil {
				dictSize = int64(col.Dict.Len())
			}
			res.AppendRow([]storage.Value{str(t.Schema), str(t.Name), str(col.Name),
				str(col.Type.String()), str(col.Coll.String()), str(col.Encoding().String()),
				storage.BoolValue(col.Stats.Sorted), storage.IntValue(col.Stats.Distinct),
				storage.IntValue(col.Stats.Nulls), storage.IntValue(dictSize)})
		}
	}
	return ResultToTable(storage.SysSchema, name, res)
}
