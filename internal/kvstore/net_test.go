package kvstore

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"vizq/internal/wire"
)

// TestSetFrameCarriesValueRaw: a value crosses as its own bytes, so a
// 300 000-byte set frame is the value and a few bytes of framing, and the
// value comes back byte for byte.
func TestSetFrameCarriesValueRaw(t *testing.T) {
	val := bytes.Repeat([]byte{0xff, 0x00, 'a'}, 100_000)
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := wire.WriteFrame(w, (&request{Op: opSet, Key: "cache/entry", TTL: time.Minute, Val: val}).append(nil)); err != nil {
		t.Fatal(err)
	}
	if n := buf.Len(); n > len(val)+64 {
		t.Errorf("a %d-byte set frame is %d bytes, want at most %d", len(val), n, len(val)+64)
	}

	srv, err := Serve("127.0.0.1:0", NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), 0)
	defer c.Close()
	if err := c.Set("k", val, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("empty", []byte{}, 0); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get("k"); err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("get = %d bytes, %v, %v; want the %d bytes set", len(got), ok, err, len(val))
	}
	if got, ok, err := c.Get("empty"); err != nil || !ok || len(got) != 0 {
		t.Fatalf("get of an empty value = %q, %v, %v", got, ok, err)
	}
}

// FuzzDecodeMessage feeds arbitrary frame bodies to the request and
// response decoders: they must fail cleanly, never panic, and a message
// that decodes must survive re-encoding.
func FuzzDecodeMessage(f *testing.F) {
	f.Add((&request{Op: opSet, Key: "k", TTL: time.Second, Val: []byte("v\xff")}).append(nil))
	f.Add((&request{Op: opList, Key: "dig/"}).append(nil))
	f.Add((&response{Pairs: map[string][]byte{"dig/n1": []byte("{}"), "dig/n2": nil}}).append(nil))
	f.Add((&response{Err: "bad op \"x\"", Found: true, Val: []byte{}}).append(nil))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := decodeRequest(data); err == nil {
			again, err := decodeRequest(req.append(nil))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request %+v came back as %+v, %v", req, again, err)
			}
		}
		if resp, err := decodeResponse(data); err == nil {
			again, err := decodeResponse(resp.append(nil))
			if err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response %+v came back as %+v, %v", resp, again, err)
			}
		}
	})
}
