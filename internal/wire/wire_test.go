package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	frames := [][]byte{[]byte("a"), nil, bytes.Repeat([]byte("x"), 200<<10)}
	for _, f := range frames {
		if err := WriteFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %d bytes, %v; want %d bytes", i, len(got), err, len(want))
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversizeAndGarbage(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, 1<<30+1)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("oversize header: err = %v", err)
	}
	// A frame arrives whole whatever its body; a body that is not the
	// message its reader expects fails there.
	bad := append(binary.LittleEndian.AppendUint32(nil, 3), "{x}"...)
	frame, err := ReadFrame(bufio.NewReader(bytes.NewReader(bad)))
	if err != nil {
		t.Fatal(err)
	}
	if rd := NewReader(frame); rd.Str() != "" || rd.Done() == nil {
		t.Error("a frame that is not a string decoded as one")
	}
}

// TestReaderRoundTrip: every primitive reads back what was appended, and
// Done accepts a frame read to its end.
func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = AppendString(b, "a\xffb")
	b = AppendString(b, "")
	b = AppendBool(b, true)
	b = binary.AppendUvarint(b, math.MaxUint64)
	b = binary.AppendVarint(b, math.MinInt64)
	b = binary.LittleEndian.AppendUint64(b, 0x0123456789abcdef)
	b = binary.AppendUvarint(b, 3)
	rd := NewReader(b)
	if s := rd.Str(); s != "a\xffb" {
		t.Errorf("string = %q", s)
	}
	if s := rd.Str(); s != "" {
		t.Errorf("empty string = %q", s)
	}
	if !rd.Bool() {
		t.Error("bool = false")
	}
	if u := rd.Uvarint(); u != math.MaxUint64 {
		t.Errorf("uvarint = %d", u)
	}
	if v := rd.Varint(); v != math.MinInt64 {
		t.Errorf("varint = %d", v)
	}
	if u := rd.Uint64(); u != 0x0123456789abcdef {
		t.Errorf("uint64 = %#x", u)
	}
	if n := rd.Count(0); n != 3 {
		t.Errorf("count = %d", n)
	}
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejectsClaims: a count or length the frame cannot back fails,
// the error sticks, and leftover bytes fail Done.
func TestReaderRejectsClaims(t *testing.T) {
	str := func(rd *Reader) { rd.Str() }
	uvarint := func(rd *Reader) { rd.Uvarint() }
	for _, c := range []struct {
		name string
		b    []byte
		read func(*Reader)
	}{
		{"string longer than the frame", AppendString(nil, "abc")[:3], str},
		{"2^40 items of 1 byte", binary.AppendUvarint(nil, 1<<40), func(rd *Reader) { rd.Count(1) }},
		{"3 items of 8 bytes in 16", append(binary.AppendUvarint(nil, 3), make([]byte, 16)...), func(rd *Reader) { rd.Count(8) }},
		{"varint past 64 bits", bytes.Repeat([]byte{0xff}, 11), uvarint},
		{"cut varint", []byte{0x80}, uvarint},
		{"bytes after the message", []byte{0, 7}, str},
	} {
		rd := NewReader(c.b)
		c.read(rd)
		if rd.Done() == nil {
			t.Errorf("%s: decoded", c.name)
		}
		if rd.Byte() != 0 || rd.Done() == nil {
			t.Errorf("%s: a read after the error returned data", c.name)
		}
	}
}

// TestReadFrameAllocatesWhatArrives: the length in a frame header is only a
// claim. A header announcing 1 GiB followed by little or nothing must fail
// with a truncated frame after allocating about what arrived, not 1 GiB.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	for _, sent := range []int{0, 100, 300 << 10} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1<<30)
		in := append(hdr[:], bytes.Repeat([]byte{'x'}, sent)...)
		r := bufio.NewReader(bytes.NewReader(in))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrame(r)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%d payload bytes: err = %v, want a truncated frame", sent, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%d payload bytes under a 1 GiB header: allocated %d bytes, want < 1 MiB", sent, got)
		}
	}
}

// TestCloseDropsLiveConnAndWaits: Close must cut a connection whose serve
// is blocked reading, and return only after that serve has returned.
func TestCloseDropsLiveConnAndWaits(t *testing.T) {
	entered := make(chan struct{})
	returned := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", func(conn net.Conn) {
		close(entered)
		_, _ = ReadFrame(bufio.NewReader(conn)) // blocks until Close cuts it
		time.Sleep(20 * time.Millisecond)       // Close must wait this out
		close(returned)
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-returned:
	default:
		t.Fatal("Close returned before serve did")
	}
	// The server side of the connection is gone: the client reads EOF.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("client read after Close: err = %v, want io.EOF", err)
	}
}
