package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"vizq/internal/wire"
)

// The single-file database format (Sect. 4.1.1: "compact a database into a
// single file" as a convenience for moving, sharing and publishing data) is
// one wire message: the magic, a u32 little-endian version, the database
// name, then each table's metadata and column payloads as varints, 8-byte
// float bits and uvarint-prefixed strings and lists. The reader checks every
// length with wire.Reader.Count before allocating for it, refuses bytes after
// the last table and refuses any table Scan could not read as stored: a
// forged file is an error, not an out-of-memory or a panic in a later query.

const (
	fileMagic   = "TDE1"
	fileVersion = 1
)

// WriteDatabase serializes the database into the single-file format.
func WriteDatabase(db *Database, w io.Writer) error {
	b := binary.LittleEndian.AppendUint32([]byte(fileMagic), fileVersion)
	b = wire.AppendString(b, db.Name())
	tables := db.AllTables()
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for _, t := range tables {
		var err error
		if b, err = appendTable(b, t); err != nil {
			return err
		}
	}
	_, err := w.Write(b)
	return err
}

// ReadDatabase parses a database from the single-file format. Its strings
// are copies, so the database holds none of the input's bytes.
func ReadDatabase(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(data)
	if magic := rd.Raw(len(fileMagic)); magic != fileMagic {
		return nil, fmt.Errorf("storage: bad magic %q", magic)
	}
	if v := rd.Raw(4); v != "" {
		if v := binary.LittleEndian.Uint32([]byte(v)); v != fileVersion {
			return nil, fmt.Errorf("storage: unsupported file version %d", v)
		}
	}
	db := NewDatabase(str(rd))
	for range rd.Count(1) {
		// Older files may hold stale SYS tables; the engine derives SYS.
		if t := readTable(rd); t != nil && !strings.EqualFold(t.Schema, SysSchema) {
			if err := db.AddTable(t); err != nil {
				rd.Fail(err)
			}
		}
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return db, nil
}

// SaveDatabase packs the database into a single file on disk.
func SaveDatabase(db *Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDatabase(db, f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}

// OpenDatabase unpacks a database file from disk.
func OpenDatabase(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDatabase(f)
}

func appendTable(b []byte, t *Table) ([]byte, error) {
	b = wire.AppendString(wire.AppendString(b, t.Schema), t.Name)
	b = appendStrings(binary.AppendVarint(b, t.Rows), t.SortKey)
	b = binary.AppendUvarint(appendList(b, t.UniqueKeys, appendStrings), uint64(len(t.Cols)))
	for _, c := range t.Cols {
		var err error
		if b, err = appendColumn(b, c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// readTable reads one table and checks it as NewTable and checkColumn do.
// A table that fails is the reader's error, and readTable returns nil.
func readTable(rd *wire.Reader) *Table {
	schema, name, rows := str(rd), str(rd), rd.Varint()
	sortKey, uniqueKeys := strs(rd), list(rd, 1, func() []string { return strs(rd) })
	cols := list(rd, 1, func() *Column { return readColumn(rd) })
	t, err := NewTable(schema, name, cols)
	if err == nil && t.Rows != rows {
		err = fmt.Errorf("storage: table %s.%s claims %d rows, its columns hold %d", schema, name, rows, t.Rows)
	}
	for _, c := range cols {
		if err == nil {
			err = checkColumn(c)
		}
	}
	if err != nil {
		rd.Fail(err)
		return nil
	}
	t.SortKey, t.UniqueKeys = sortKey, uniqueKeys
	return t
}

func appendColumn(b []byte, c *Column) ([]byte, error) {
	b = append(wire.AppendString(b, c.Name), byte(c.Type), byte(c.Coll))
	b = wire.AppendBool(b, c.Dict != nil)
	if c.Dict != nil {
		b = appendStrings(b, c.Dict.Values)
	}
	b = appendValue(appendValue(b, c.Stats.Min), c.Stats.Max)
	b = binary.AppendVarint(binary.AppendVarint(b, c.Stats.Distinct), c.Stats.Nulls)
	return appendPhysData(wire.AppendBool(b, c.Stats.Sorted), c.Data)
}

func readColumn(rd *wire.Reader) *Column {
	c := &Column{Name: str(rd), Type: Type(rd.Byte()), Coll: Collation(rd.Byte())}
	if rd.Bool() {
		// Values were stored in sorted order; rebuild without re-sorting.
		c.Dict = &Dictionary{Values: strs(rd), Coll: c.Coll}
	}
	c.Stats.Min, c.Stats.Max = readValue(rd), readValue(rd)
	c.Stats.Distinct, c.Stats.Nulls = rd.Varint(), rd.Varint()
	c.Stats.Sorted = rd.Bool()
	c.Data = readPhysData(rd)
	return c
}

// checkColumn reports the first invariant that Scan and Value rely on and
// c breaks: type and collation in range, data of the type's kind (a string
// column holds strings unless it has a dictionary), a null mask as long as
// the data, run-length runs that tile the rows in order, and tokens that
// index the dictionary.
func checkColumn(c *Column) error {
	if c.Type > TDateTime || c.Coll > CollCI || c.Stats.Min.Type > TDateTime || c.Stats.Max.Type > TDateTime {
		return fmt.Errorf("storage: column %s: type or collation out of range", c.Name)
	}
	ints := c.Dict == nil && (c.Type.IntBacked() || c.Type == TNull) || c.Dict != nil && c.Type == TStr
	var ok bool
	switch d := c.Data.(type) {
	case *IntData:
		ok = ints && maskFits(d.Nulls, len(d.Vals))
	case *DeltaIntData:
		ok = ints && maskFits(d.Nulls, len(d.Deltas))
	case *RLEIntData:
		end := int64(0)
		for _, r := range d.Runs {
			if r.Start != end || r.Count <= 0 || r.Count > d.N-end || !r.Null && badToken(c, r.Value) {
				return fmt.Errorf("storage: column %s: a run does not tile %d rows or index the dictionary", c.Name, d.N)
			}
			end += r.Count
		}
		ok = ints && end == d.N
	case *FloatData:
		ok = c.Type == TFloat && c.Dict == nil && maskFits(d.Nulls, len(d.Vals))
	case *StringData:
		ok = c.Type == TStr && c.Dict == nil && maskFits(d.Nulls, len(d.Vals))
	}
	if !ok {
		return fmt.Errorf("storage: column %s: %T does not fit type %s (dictionary %t)", c.Name, c.Data, c.Type, c.Dict != nil)
	}
	if toks, isInt := c.Data.(IntAccessor); isInt && c.Dict != nil && c.Encoding() != EncRLE {
		for i := range c.Len() {
			if !c.Data.NullAt(i) && badToken(c, toks.IntAt(i)) {
				return fmt.Errorf("storage: column %s: token %d outside a dictionary of %d", c.Name, toks.IntAt(i), c.Dict.Len())
			}
		}
	}
	return nil
}

// badToken reports whether c has a dictionary that tok does not index.
func badToken(c *Column, tok int64) bool {
	return c.Dict != nil && (tok < 0 || tok >= int64(c.Dict.Len()))
}

func maskFits(nulls []bool, n int) bool { return nulls == nil || len(nulls) == n }

func appendValue(b []byte, v Value) []byte {
	b = wire.AppendBool(append(b, byte(v.Type)), v.Null)
	switch {
	case v.Null:
		return b
	case v.Type == TFloat:
		return appendFloat(b, v.F)
	case v.Type == TStr:
		return wire.AppendString(b, v.S)
	}
	return binary.AppendVarint(b, v.I)
}

func readValue(rd *wire.Reader) Value {
	v := Value{Type: Type(rd.Byte()), Null: rd.Bool()}
	switch {
	case v.Null:
	case v.Type == TFloat:
		v.F = readFloat(rd)
	case v.Type == TStr:
		v.S = str(rd)
	default:
		v.I = rd.Varint()
	}
	return v
}

// appendPhysData writes a kind byte (0 int, 1 float, 2 string, 3 RLE,
// 4 delta), then the payload.
func appendPhysData(b []byte, p PhysData) ([]byte, error) {
	switch d := p.(type) {
	case *IntData:
		return appendNulls(appendList(append(b, 0), d.Vals, binary.AppendVarint), d.Nulls), nil
	case *FloatData:
		return appendNulls(appendList(append(b, 1), d.Vals, appendFloat), d.Nulls), nil
	case *StringData:
		return appendNulls(appendStrings(append(b, 2), d.Vals), d.Nulls), nil
	case *RLEIntData:
		return appendList(binary.AppendVarint(append(b, 3), d.N), d.Runs, func(b []byte, r Run) []byte {
			b = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(b, r.Value), r.Start), r.Count)
			return wire.AppendBool(b, r.Null)
		}), nil
	case *DeltaIntData:
		b = appendList(binary.AppendVarint(append(b, 4), d.Base), d.Deltas, func(b []byte, v int32) []byte {
			return binary.AppendVarint(b, int64(v))
		})
		return appendNulls(b, d.Nulls), nil
	}
	return nil, fmt.Errorf("storage: unknown phys data %T", p)
}

// readPhysData reads one column payload. Every list takes at least one
// input byte per element (8 per float, 4 per run), which list's Count
// checks before it allocates.
func readPhysData(rd *wire.Reader) PhysData {
	switch kind := rd.Byte(); kind {
	case 0:
		return &IntData{Vals: list(rd, 1, rd.Varint), Nulls: nulls(rd)}
	case 1:
		return &FloatData{Vals: list(rd, 8, func() float64 { return readFloat(rd) }), Nulls: nulls(rd)}
	case 2:
		return &StringData{Vals: strs(rd), Nulls: nulls(rd)}
	case 3:
		return &RLEIntData{N: rd.Varint(), Runs: list(rd, 4, func() Run {
			return Run{Value: rd.Varint(), Start: rd.Varint(), Count: rd.Varint(), Null: rd.Bool()}
		})}
	case 4:
		return &DeltaIntData{
			Base:   rd.Varint(),
			Deltas: list(rd, 1, func() int32 { return int32(rd.Varint()) }),
			Nulls:  nulls(rd),
		}
	default:
		rd.Fail(fmt.Errorf("storage: unknown phys data kind %d", kind))
		return &IntData{}
	}
}

// appendList writes a uvarint count, then each element with one.
func appendList[T any](b []byte, s []T, one func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = one(b, v)
	}
	return b
}

// list reads a count of elements that each take at least size input bytes,
// then the elements with one: Count refuses a count the input cannot hold.
func list[T any](rd *wire.Reader, size int, one func() T) []T {
	out := make([]T, rd.Count(size))
	for i := range out {
		out[i] = one()
	}
	return out
}

func appendStrings(b []byte, s []string) []byte { return appendList(b, s, wire.AppendString[string]) }

// str reads a string and copies it out of the reader's buffer.
func str(rd *wire.Reader) string { return strings.Clone(rd.Str()) }

func strs(rd *wire.Reader) []string { return list(rd, 1, func() string { return str(rd) }) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func readFloat(rd *wire.Reader) float64 { return math.Float64frombits(rd.Uint64()) }

// appendNulls writes an optional null mask: a presence byte, then the list.
func appendNulls(b []byte, nulls []bool) []byte {
	if nulls == nil {
		return append(b, 0)
	}
	return appendList(append(b, 1), nulls, wire.AppendBool)
}

func nulls(rd *wire.Reader) []bool {
	if !rd.Bool() {
		return nil
	}
	return list(rd, 1, rd.Bool)
}
