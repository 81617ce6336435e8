package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// The single-file database format (Sect. 4.1.1: "compact a database into a
// single file" as a convenience for moving, sharing and publishing data).
// Layout: magic, version, table count, then each table with its metadata and
// column payloads. All integers are little-endian; strings and slices are
// uvarint-length-prefixed. The reader trusts no length: it allocates only
// for elements and bytes the input actually holds, so a forged length is an
// error, not an out-of-memory panic.

const (
	fileMagic   = "TDE1"
	fileVersion = 1
)

// WriteDatabase serializes the database into the single-file format.
func WriteDatabase(db *Database, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	e := &encoder{w: bw}
	e.bytes([]byte(fileMagic))
	e.u32(fileVersion)
	e.str(db.Name())

	var tables []*Table
	for _, s := range db.Schemas() {
		tables = append(tables, db.Tables(s)...)
	}
	e.uvarint(uint64(len(tables)))
	for _, t := range tables {
		writeTable(e, t)
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// ReadDatabase parses a database from the single-file format.
func ReadDatabase(r io.Reader) (*Database, error) {
	d := &decoder{r: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, 4)
	d.bytes(magic)
	if d.err == nil && string(magic) != fileMagic {
		return nil, fmt.Errorf("storage: bad magic %q", magic)
	}
	if v := d.u32(); d.err == nil && v != fileVersion {
		return nil, fmt.Errorf("storage: unsupported file version %d", v)
	}
	db := NewDatabase(d.str())
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		// Older files may hold stale SYS tables; the engine derives SYS.
		t := readTable(d)
		if d.err == nil && !strings.EqualFold(t.Schema, SysSchema) {
			if err := db.AddTable(t); err != nil {
				return nil, err
			}
		}
	}
	if d.err != nil {
		return nil, d.err
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

func writeTable(e *encoder, t *Table) {
	e.str(t.Schema)
	e.str(t.Name)
	e.varint(t.Rows)
	e.strs(t.SortKey)
	e.uvarint(uint64(len(t.UniqueKeys)))
	for _, k := range t.UniqueKeys {
		e.strs(k)
	}
	e.uvarint(uint64(len(t.Cols)))
	for _, c := range t.Cols {
		writeColumn(e, c)
	}
}

func readTable(d *decoder) *Table {
	t := &Table{}
	t.Schema = d.str()
	t.Name = d.str()
	t.Rows = d.varint()
	t.SortKey = d.strs()
	nk := d.uvarint()
	for i := uint64(0); i < nk && d.err == nil; i++ {
		t.UniqueKeys = append(t.UniqueKeys, d.strs())
	}
	nc := d.uvarint()
	for i := uint64(0); i < nc && d.err == nil; i++ {
		t.Cols = append(t.Cols, readColumn(d))
	}
	return t
}

func writeColumn(e *encoder, c *Column) {
	e.str(c.Name)
	e.u8(uint8(c.Type))
	e.u8(uint8(c.Coll))
	if c.Dict != nil {
		e.u8(1)
		e.strs(c.Dict.Values)
	} else {
		e.u8(0)
	}
	writeValue(e, c.Stats.Min)
	writeValue(e, c.Stats.Max)
	e.varint(c.Stats.Distinct)
	e.varint(c.Stats.Nulls)
	e.boolb(c.Stats.Sorted)
	writePhysData(e, c.Data)
}

func readColumn(d *decoder) *Column {
	c := &Column{}
	c.Name = d.str()
	c.Type = Type(d.u8())
	c.Coll = Collation(d.u8())
	if d.u8() == 1 {
		// Values were stored in sorted order; rebuild without re-sorting.
		c.Dict = &Dictionary{Values: d.strs(), Coll: c.Coll}
	}
	c.Stats.Min = readValue(d)
	c.Stats.Max = readValue(d)
	c.Stats.Distinct = d.varint()
	c.Stats.Nulls = d.varint()
	c.Stats.Sorted = d.boolb()
	c.Data = readPhysData(d)
	return c
}

func writeValue(e *encoder, v Value) {
	e.u8(uint8(v.Type))
	e.boolb(v.Null)
	if v.Null {
		return
	}
	switch v.Type {
	case TFloat:
		e.u64(math.Float64bits(v.F))
	case TStr:
		e.str(v.S)
	default:
		e.varint(v.I)
	}
}

func readValue(d *decoder) Value {
	v := Value{Type: Type(d.u8())}
	v.Null = d.boolb()
	if v.Null {
		return v
	}
	switch v.Type {
	case TFloat:
		v.F = math.Float64frombits(d.u64())
	case TStr:
		v.S = d.str()
	default:
		v.I = d.varint()
	}
	return v
}

func writePhysData(e *encoder, p PhysData) {
	switch d := p.(type) {
	case *IntData:
		e.u8(0)
		e.uvarint(uint64(len(d.Vals)))
		for _, v := range d.Vals {
			e.varint(v)
		}
		e.nulls(d.Nulls)
	case *FloatData:
		e.u8(1)
		e.uvarint(uint64(len(d.Vals)))
		for _, v := range d.Vals {
			e.u64(math.Float64bits(v))
		}
		e.nulls(d.Nulls)
	case *StringData:
		e.u8(2)
		e.strs(d.Vals)
		e.nulls(d.Nulls)
	case *RLEIntData:
		e.u8(3)
		e.varint(d.N)
		e.uvarint(uint64(len(d.Runs)))
		for _, r := range d.Runs {
			e.varint(r.Value)
			e.varint(r.Start)
			e.varint(r.Count)
			e.boolb(r.Null)
		}
	case *DeltaIntData:
		e.u8(4)
		e.varint(d.Base)
		e.uvarint(uint64(len(d.Deltas)))
		for _, v := range d.Deltas {
			e.varint(int64(v))
		}
		e.nulls(d.Nulls)
	default:
		e.fail(fmt.Errorf("storage: unknown phys data %T", p))
	}
}

func readPhysData(d *decoder) PhysData {
	switch kind := d.u8(); kind {
	case 0:
		return &IntData{Vals: readList(d, d.varint), Nulls: d.nulls()}
	case 1:
		vals := readList(d, func() float64 { return math.Float64frombits(d.u64()) })
		return &FloatData{Vals: vals, Nulls: d.nulls()}
	case 2:
		return &StringData{Vals: d.strs(), Nulls: d.nulls()}
	case 3:
		out := &RLEIntData{N: d.varint()}
		out.Runs = readList(d, func() Run {
			return Run{Value: d.varint(), Start: d.varint(), Count: d.varint(), Null: d.boolb()}
		})
		return out
	case 4:
		out := &DeltaIntData{Base: d.varint()}
		out.Deltas = readList(d, func() int32 { return int32(d.varint()) })
		out.Nulls = d.nulls()
		return out
	default:
		d.fail(fmt.Errorf("storage: unknown phys data kind %d", kind))
		return &IntData{}
	}
}

// encoder writes primitives with sticky error capture.
type encoder struct {
	w   io.Writer
	err error
	buf [binary.MaxVarintLen64]byte
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, err := e.w.Write(b)
	e.fail(err)
}

func (e *encoder) u8(v uint8) { e.bytes([]byte{v}) }
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.bytes(b[:])
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.bytes(b[:])
}
func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}
func (e *encoder) varint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}
func (e *encoder) boolb(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}
func (e *encoder) strs(s []string) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		e.str(v)
	}
}
func (e *encoder) nulls(n []bool) {
	if n == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.uvarint(uint64(len(n)))
	for _, v := range n {
		e.boolb(v)
	}
}

// decoder reads primitives with sticky error capture.
type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		return
	}
	_, err := io.ReadFull(d.r, b)
	d.fail(err)
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.fail(err)
	return b
}

func (d *decoder) u32() uint32 {
	var b [4]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.fail(err)
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.fail(err)
	return v
}

func (d *decoder) boolb() bool { return d.u8() != 0 }

// readChunk bounds how many elements or string bytes one read allocates
// for before the input has shown it holds them.
const readChunk = 1 << 16

// readList reads a uvarint count, then that many elements with one. Each
// element takes at least one input byte, and the slice never has room for
// more than readChunk elements, or twice those read, before they arrive:
// a count the input does not back fails at the end of the input instead
// of allocating for it.
func readList[T any](d *decoder, one func() T) []T {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]T, 0, min(n, readChunk))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, one())
	}
	return out
}

func (d *decoder) str() string {
	n := d.uvarint()
	var b []byte
	for n > 0 && d.err == nil {
		k := min(n, readChunk)
		b = append(b, make([]byte, k)...)
		d.bytes(b[uint64(len(b))-k:])
		n -= k
	}
	return string(b)
}

func (d *decoder) strs() []string { return readList(d, d.str) }

// nulls reads an optional null mask: a presence byte, then the list.
func (d *decoder) nulls() []bool {
	if d.u8() == 0 {
		return nil
	}
	return readList(d, d.boolb)
}
