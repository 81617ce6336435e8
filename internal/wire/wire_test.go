package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

type msg struct {
	S string
	N int
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, m := range []msg{{S: "a", N: 1}, {S: strings.Repeat("x", 200<<10), N: 2}} {
		if err := WriteFrame(w, &m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range []int{1, 2} {
		got, err := ReadFrame[msg](r)
		if err != nil || got.N != want {
			t.Fatalf("frame %d = %+v, %v", want, got, err)
		}
	}
	if _, err := ReadFrame[msg](r); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversizeAndGarbage(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32(nil, 1<<30+1)
	if _, err := ReadFrame[msg](bufio.NewReader(bytes.NewReader(hdr))); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Errorf("oversize header: err = %v", err)
	}
	bad := append(binary.LittleEndian.AppendUint32(nil, 3), "{x}"...)
	if _, err := ReadFrame[msg](bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Error("a frame that is not JSON decoded")
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
		_, err := ReadFrame[msg](r)
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
		_, _ = ReadFrame[msg](bufio.NewReader(conn)) // blocks until Close cuts it
		time.Sleep(20 * time.Millisecond)            // Close must wait this out
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
