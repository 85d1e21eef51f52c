package transport

import (
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"fuzzyid/internal/telemetry"
	"fuzzyid/internal/wire"
)

// TestFrameHeapHeaderOnlyConns gates what unauthenticated clients can pin on
// a real server: 64 connections that each send one frame header declaring
// wire.MaxFrameLen and nothing more may raise the process's live heap
// (HeapAlloc after a GC) by at most 8 MiB while the server waits for their
// bodies.
func TestFrameHeapHeaderOnlyConns(t *testing.T) {
	const conns = 64
	w := newWorld(t, 64, 209)
	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", w.proto, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hdr := binary.BigEndian.AppendUint32(nil, wire.MaxFrameLen)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(hdr); err != nil {
			t.Fatal(err)
		}
	}
	// Once the server has counted every header's bytes, a connection
	// goroutine parked reading a frame is parked on the body, whose buffer
	// it sized before that read.
	in := reg.Counter("transport.bytes.in")
	for deadline := time.Now().Add(10 * time.Second); in.Load() < conns*4 || bodyReaders() < conns; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d header bytes and parks %d body reads, want %d and %d", in.Load(), bodyReaders(), conns*4, conns)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("%d header-only connections: live heap +%d B", conns, grew)
	if grew > 8<<20 {
		t.Errorf("%d header-only connections raised live heap by %d B, want <= %d", conns, grew, 8<<20)
	}
}

// bodyReaders counts the goroutines parked on network input inside the
// wire frame reader.
func bodyReaders() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[IO wait") && strings.Contains(g, "wire.readFrameInto") {
			n++
		}
	}
	return n
}
