package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// allocatedBy reports the bytes the process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestJoinRejectsOversizedPrefix sends the hub a bare length prefix
// claiming a 256 MiB frame. The join read is bounded by what the magic and
// the token need, so the hub closes the connection at once, without
// waiting out the join timeout and without allocating for the claim.
func TestJoinRejectsOversizedPrefix(t *testing.T) {
	h, err := Listen("127.0.0.1:0", "s3cr3t")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var closed error
	alloc := allocatedBy(func() {
		conn, err := net.Dial("tcp", h.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0x0f}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, closed = conn.Read(make([]byte, 1))
	})
	var ne net.Error
	if errors.As(closed, &ne) && ne.Timeout() {
		t.Fatal("hub kept the connection open after an oversized join prefix")
	}
	if closed == nil {
		t.Fatal("hub answered an oversized join prefix")
	}
	if alloc >= 1<<20 {
		t.Fatalf("an oversized join prefix cost %d bytes of allocation", alloc)
	}
	if n := h.Workers(); n != 0 {
		t.Fatalf("%d workers parked", n)
	}
}

// TestReadFrameGrowsWithData checks that a frame's buffer follows the
// bytes that arrive: a 256 MiB claim backed by a few bytes allocates little
// and fails as a truncated frame, while a frame several growth steps long
// still arrives intact.
func TestReadFrameGrowsWithData(t *testing.T) {
	short := append([]byte{0xff, 0xff, 0xff, 0x0f}, make([]byte, 1000)...)
	var err error
	alloc := allocatedBy(func() {
		_, err = readFrame(bufio.NewReader(bytes.NewReader(short)))
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if alloc >= 1<<20 {
		t.Fatalf("a truncated 256 MiB claim cost %d bytes of allocation", alloc)
	}

	want := frame{src: 2, dst: -1, tag: 7, data: make([]byte, 5*frameStep+123)}
	for i := range want.data {
		want.data[i] = byte(i * 31)
	}
	var wire bytes.Buffer
	if err := writeFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(bufio.NewReader(&wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.src != want.src || got.dst != want.dst || got.tag != want.tag || !bytes.Equal(got.data, want.data) {
		t.Fatal("a multi-step frame did not round-trip")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader, unbounded and
// with the join bound of an open hub. Reading must not panic, an accepted
// frame must respect the payload bound, and it must re-encode through
// writeFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{12, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 7, 0, 0, 0})
	var join bytes.Buffer
	writeFrame(&join, frame{tag: tagCtrlJoin, data: []byte(joinMagic)})
	f.Add(join.Bytes())
	f.Add(append(join.Bytes(), 'x'))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int{maxFrame, len(joinMagic)} {
			got, err := readFrameMax(bufio.NewReader(bytes.NewReader(data)), limit)
			if err != nil {
				continue
			}
			if len(got.data) > limit {
				t.Fatalf("accepted a %d-byte payload over the %d-byte bound", len(got.data), limit)
			}
			var enc bytes.Buffer
			if err := writeFrame(&enc, got); err != nil {
				t.Fatal(err)
			}
			if enc.Len() > len(data) || !bytes.Equal(enc.Bytes(), data[:enc.Len()]) {
				t.Fatalf("frame re-encodes to %x, consumed %x", enc.Bytes(), data[:min(enc.Len(), len(data))])
			}
		}
	})
}
