// Package extract implements text-file data sources and shadow extracts
// (Sect. 4.4 of the paper): an in-house delimited-text parser with schema
// files and type/column-name inference, extraction of parsed files into TDE
// tables, and the shadow-extract manager that replaces per-query file
// parsing with one-time extraction.
package extract

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vizq/internal/tde/storage"
)

// ParseOptions configures the text parser.
type ParseOptions struct {
	// Delimiter separates fields; 0 means comma.
	Delimiter byte
	// Schema, when non-nil, pins column names and types; otherwise both are
	// inferred ("the text parser accepts a schema file as additional input
	// if one is available; otherwise it attempts to discover the metadata by
	// performing type and column name inference").
	Schema *FileSchema
}

// FileSchema describes the columns of a text file.
type FileSchema struct {
	Cols      []SchemaCol
	HasHeader bool
}

// SchemaCol is one declared column.
type SchemaCol struct {
	Name string
	Type storage.Type
	Coll storage.Collation
}

// LoadSchemaFile reads a schema file: one "name:type[:collation]" line per
// column; a leading "header" line marks the data file as having a header row.
func LoadSchemaFile(path string) (*FileSchema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseSchema(f)
}

// ParseSchema parses schema text (see LoadSchemaFile).
func ParseSchema(r io.Reader) (*FileSchema, error) {
	s := &FileSchema{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.EqualFold(text, "header") {
			s.HasHeader = true
			continue
		}
		parts := strings.Split(text, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("extract: schema line %d: want name:type[:collation]", line)
		}
		t, err := storage.ParseType(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("extract: schema line %d: %w", line, err)
		}
		coll := storage.CollBinary
		if len(parts) == 3 {
			coll, err = storage.ParseCollation(strings.TrimSpace(parts[2]))
			if err != nil {
				return nil, fmt.Errorf("extract: schema line %d: %w", line, err)
			}
		}
		s.Cols = append(s.Cols, SchemaCol{Name: strings.TrimSpace(parts[0]), Type: t, Coll: coll})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(s.Cols) == 0 {
		return nil, fmt.Errorf("extract: schema declares no columns")
	}
	return s, nil
}

// TextTable is the parsed form of a delimited file before extraction.
type TextTable struct {
	Schema *FileSchema
	// Rows holds raw field text; empty fields are null.
	Rows [][]string
}

// ParseFile parses a delimited text file from disk.
func ParseFile(path string, opt ParseOptions) (*TextTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f, opt)
}

// Parse reads delimited text. Fields may be double-quoted with "" escapes;
// records are newline-separated (CRLF tolerated). Unlike the Jet/Ace driver
// path the paper replaced, there is no file-size limit.
func Parse(r io.Reader, opt ParseOptions) (*TextTable, error) {
	delim := opt.Delimiter
	if delim == 0 {
		delim = ','
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var rows [][]string
	lineNo := 0
	for {
		record, err := readRecord(br, delim)
		if record != nil {
			lineNo++
			rows = append(rows, record)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("extract: line %d: %w", lineNo+1, err)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("extract: empty input")
	}

	schema := opt.Schema
	if schema == nil {
		schema = inferSchema(rows)
	}
	width := len(schema.Cols)
	start := 0
	if schema.HasHeader {
		start = 1
	}
	data := rows[start:]
	for i, row := range data {
		if len(row) != width {
			return nil, fmt.Errorf("extract: row %d has %d fields, want %d", start+i+1, len(row), width)
		}
	}
	return &TextTable{Schema: schema, Rows: data}, nil
}

// readRecord parses one record, honoring quoted fields that may contain the
// delimiter and newlines. Returns io.EOF with the final record (if any).
func readRecord(br *bufio.Reader, delim byte) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuotes := false
	sawAny := false
	for {
		ch, err := br.ReadByte()
		if err == io.EOF {
			if !sawAny && cur.Len() == 0 && len(fields) == 0 {
				return nil, io.EOF
			}
			fields = append(fields, cur.String())
			return fields, io.EOF
		}
		if err != nil {
			return nil, err
		}
		sawAny = true
		if inQuotes {
			if ch == '"' {
				next, err := br.ReadByte()
				if err == nil && next == '"' {
					cur.WriteByte('"')
					continue
				}
				if err == nil {
					if e := br.UnreadByte(); e != nil {
						return nil, e
					}
				}
				inQuotes = false
				continue
			}
			cur.WriteByte(ch)
			continue
		}
		switch ch {
		case '"':
			inQuotes = true
		case delim:
			fields = append(fields, cur.String())
			cur.Reset()
		case '\r':
			// swallow; expect \n next
		case '\n':
			fields = append(fields, cur.String())
			return fields, nil
		default:
			cur.WriteByte(ch)
		}
	}
}

// ---- inference ----

// inferSchema discovers column names and types: it samples the data rows to
// pick the narrowest type per column, and treats the first row as a header
// when its fields do not fit the types inferred from the rest.
func inferSchema(rows [][]string) *FileSchema {
	width := 0
	for _, r := range rows {
		if len(r) > width {
			width = len(r)
		}
	}
	sample := rows
	if len(sample) > 1000 {
		sample = sample[:1000]
	}
	body := sample
	if len(sample) > 1 {
		body = sample[1:]
	}
	types := make([]storage.Type, width)
	for c := 0; c < width; c++ {
		types[c] = inferColumnType(body, c)
	}
	hasHeader := false
	if len(rows) > 1 {
		for c := 0; c < width && c < len(rows[0]); c++ {
			if rows[0][c] == "" {
				continue
			}
			if types[c] != storage.TStr && !fits(rows[0][c], types[c]) {
				hasHeader = true
				break
			}
		}
		// All-string files: a header of short unique names is assumed when
		// every first-row cell is non-numeric and non-empty.
		if !hasHeader && allStrings(types) && looksLikeHeader(rows[0]) {
			hasHeader = true
		}
	}
	s := &FileSchema{HasHeader: hasHeader}
	for c := 0; c < width; c++ {
		name := fmt.Sprintf("F%d", c+1)
		if hasHeader && c < len(rows[0]) && strings.TrimSpace(rows[0][c]) != "" {
			name = strings.TrimSpace(rows[0][c])
		}
		s.Cols = append(s.Cols, SchemaCol{Name: name, Type: types[c], Coll: storage.CollBinary})
	}
	return s
}

func allStrings(types []storage.Type) bool {
	for _, t := range types {
		if t != storage.TStr {
			return false
		}
	}
	return true
}

func looksLikeHeader(row []string) bool {
	for _, f := range row {
		f = strings.TrimSpace(f)
		if f == "" || len(f) > 64 {
			return false
		}
		if _, err := strconv.ParseFloat(f, 64); err == nil {
			return false
		}
	}
	return len(row) > 0
}

// inferColumnType returns the narrowest type every non-empty sampled value
// fits: bool < int < float, else date, datetime, string.
func inferColumnType(rows [][]string, c int) storage.Type {
	candidates := []storage.Type{storage.TBool, storage.TInt, storage.TFloat, storage.TDate, storage.TDateTime}
	alive := make(map[storage.Type]bool, len(candidates))
	for _, t := range candidates {
		alive[t] = true
	}
	seen := false
	for _, row := range rows {
		if c >= len(row) || row[c] == "" {
			continue
		}
		seen = true
		for _, t := range candidates {
			if alive[t] && !fits(row[c], t) {
				alive[t] = false
			}
		}
	}
	if !seen {
		return storage.TStr
	}
	for _, t := range candidates {
		if alive[t] {
			return t
		}
	}
	return storage.TStr
}

func fits(s string, t storage.Type) bool {
	s = strings.TrimSpace(s)
	switch t {
	case storage.TBool:
		switch strings.ToLower(s) {
		case "true", "false", "0", "1":
			return true
		}
		return false
	case storage.TInt:
		_, err := strconv.ParseInt(s, 10, 64)
		return err == nil
	case storage.TFloat:
		_, err := strconv.ParseFloat(s, 64)
		return err == nil
	case storage.TDate:
		_, err := time.Parse("2006-01-02", s)
		return err == nil
	case storage.TDateTime:
		_, err := time.Parse("2006-01-02 15:04:05", s)
		return err == nil
	}
	return true
}

// ConvertValue parses field text into a typed value; empty text is null.
func ConvertValue(s string, t storage.Type) (storage.Value, error) {
	if s == "" {
		return storage.NullValue(t), nil
	}
	s = strings.TrimSpace(s)
	switch t {
	case storage.TBool:
		switch strings.ToLower(s) {
		case "true", "1":
			return storage.BoolValue(true), nil
		case "false", "0":
			return storage.BoolValue(false), nil
		}
		return storage.Value{}, fmt.Errorf("extract: bad bool %q", s)
	case storage.TInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("extract: bad int %q", s)
		}
		return storage.IntValue(i), nil
	case storage.TFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("extract: bad float %q", s)
		}
		return storage.FloatValue(f), nil
	case storage.TDate:
		d, err := time.Parse("2006-01-02", s)
		if err != nil {
			return storage.Value{}, fmt.Errorf("extract: bad date %q", s)
		}
		return storage.Value{Type: storage.TDate, I: d.Unix() / 86400}, nil
	case storage.TDateTime:
		d, err := time.Parse("2006-01-02 15:04:05", s)
		if err != nil {
			return storage.Value{}, fmt.Errorf("extract: bad datetime %q", s)
		}
		return storage.DateTimeValue(d), nil
	default:
		return storage.StrValue(s), nil
	}
}
