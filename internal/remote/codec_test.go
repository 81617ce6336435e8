package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/wire"
)

// TestSpecialFloatsCrossBitExact: NaN, ±Inf and -0 cross the wire in both
// directions with their bits intact, and the connection that carried them
// answers the next query. A NaN answer once closed the connection.
func TestSpecialFloatsCrossBitExact(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	res, err := c.Query(ctx, `(aggregate (table flights) (groupby) (aggs (x max (sqrt -1.0))))`)
	if err != nil {
		t.Fatal(err)
	}
	if x := res.Value(0, 0); x.Null || !math.IsNaN(x.F) {
		t.Fatalf("max(sqrt(-1)) = %v, want NaN", x)
	}

	floats := []float64{math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.5}
	up := exec.NewResult([]plan.ColInfo{{Name: "f", Type: storage.TFloat}})
	for _, f := range floats {
		up.AppendRow([]storage.Value{storage.FloatValue(f)})
	}
	name, err := c.CreateTempTable(ctx, "t", up)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Query(ctx, `(table `+name+`)`)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != len(floats) {
		t.Fatalf("%d rows back, want %d", back.N, len(floats))
	}
	for i, f := range floats {
		if got := back.Value(i, 0).F; math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("row %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(f))
		}
	}
	if c.Closed() {
		t.Fatal("the connection closed after special floats")
	}
	if _, err := c.Query(ctx, `(aggregate (table flights) (groupby) (aggs (n count *)))`); err != nil {
		t.Fatalf("second query on the same connection: %v", err)
	}
}

// TestStringsCrossByteExact: a temp table's strings come back byte for
// byte, invalid UTF-8 and NUL included, and an empty string stays apart
// from a null.
func TestStringsCrossByteExact(t *testing.T) {
	srv := startServer(t, Config{})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	vals := []storage.Value{storage.StrValue("a\xffb"), storage.StrValue("\x00"), storage.StrValue(""), storage.NullValue(storage.TStr)}
	up := exec.NewResult([]plan.ColInfo{{Name: "s", Type: storage.TStr}})
	for _, v := range vals {
		up.AppendRow([]storage.Value{v})
	}
	name, err := c.CreateTempTable(ctx, "t", up)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Query(ctx, `(table `+name+`)`)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != len(vals) {
		t.Fatalf("%d rows back, want %d", back.N, len(vals))
	}
	for i, want := range vals {
		if got := back.Value(i, 0); got.Null != want.Null || got.S != want.S {
			t.Errorf("row %d = %q (null %v), want %q (null %v)", i, got.S, got.Null, want.S, want.Null)
		}
	}
}

// forgedFrame is a 40-byte response whose one int column claims rows rows.
func forgedFrame(rows uint64) []byte {
	b := AppendResponse(nil, &Response{Result: exec.NewResult([]plan.ColInfo{{Name: "x", Type: storage.TInt}})})
	b = b[:len(b)-4]                  // drop N, the column and the trailer
	b = binary.AppendUvarint(b, rows) // N
	b = append(b, 0)                  // no nulls
	return append(b, bytes.Repeat([]byte{1}, 40-len(b))...)
}

// TestForgedRowCountAllocatesNothing: a result that claims more rows than
// its frame holds fails before anything is allocated for the claim. At
// 2^20 rows an unchecked decoder would allocate 8 MiB; at 2^40 it could not.
func TestForgedRowCountAllocatesNothing(t *testing.T) {
	for _, rows := range []uint64{1 << 20, 1 << 40} {
		frame := forgedFrame(rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResponse(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a response claiming %d rows in %d bytes decoded", rows, len(frame))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("decoding a frame that claims %d rows allocated %d bytes", rows, got)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame decoders as a peer would,
// reading frames until the first error: both directions must fail cleanly,
// never panic, and a request or response that decodes must encode to bytes
// that decode and encode to the same bytes again. The seed corpus
// (testdata/fuzz/FuzzReadFrame) holds a temp-table request, a streamed
// two-statement response, a truncated header, an oversize header and a
// result that claims 2^40 rows in a 40-byte frame.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			frame, err := wire.ReadFrame(r)
			if err != nil {
				break
			}
			if req, err := DecodeRequest(frame); err == nil {
				stable(t, AppendRequest(nil, req), func(b []byte) ([]byte, error) {
					again, err := DecodeRequest(b)
					return AppendRequest(nil, again), err
				})
			}
			if resp, err := DecodeResponse(frame); err == nil {
				stable(t, AppendResponse(nil, resp), func(b []byte) ([]byte, error) {
					again, err := DecodeResponse(b)
					return AppendResponse(nil, again), err
				})
			}
		}
	})
}

// stable fails unless reencode decodes enc and encodes it back to enc.
func stable(t *testing.T, enc []byte, reencode func([]byte) ([]byte, error)) {
	t.Helper()
	again, err := reencode(enc)
	if err != nil {
		t.Fatalf("decoding a re-encoded message: %v", err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatalf("message changed in a round trip: %q -> %q", enc, again)
	}
}
