package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// headerThenBlock serves one frame header, then blocks the body read until
// release is closed and answers it with EOF. started is closed when the body
// read begins: by then the reader has allocated whatever it allocates for
// the declared body.
type headerThenBlock struct {
	hdr     []byte
	started chan struct{}
	release chan struct{}
}

func (r *headerThenBlock) Read(p []byte) (int, error) {
	if len(r.hdr) > 0 {
		n := copy(p, r.hdr)
		r.hdr = r.hdr[n:]
		return n, nil
	}
	close(r.started)
	<-r.release
	return 0, io.EOF
}

// TestFrameHeapHeaderOnly gates what four unauthenticated bytes can pin: a
// header declaring MaxFrameLen (256 MiB), with no body behind it, may raise
// live heap (HeapAlloc after a GC) by at most 128 KiB while Receive waits
// for the body.
func TestFrameHeapHeaderOnly(t *testing.T) {
	r := &headerThenBlock{
		hdr:     binary.BigEndian.AppendUint32(nil, MaxFrameLen),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	done := make(chan error, 1)
	go func() {
		_, err := Receive(r)
		done <- err
	}()
	<-r.started
	runtime.GC()
	runtime.ReadMemStats(&m1)
	close(r.release)
	if err := <-done; !errors.Is(err, ErrTruncated) {
		t.Fatalf("Receive of a header-only frame = %v, want ErrTruncated", err)
	}
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("header declaring %d bytes: live heap +%d B", MaxFrameLen, grew)
	if grew > 128<<10 {
		t.Errorf("a header-only frame raised live heap by %d B, want <= %d", grew, 128<<10)
	}
}

// TestReadFrameGrowsToDeclaredLength checks the grown buffer path end to
// end: a body several times frameChunk, delivered a few bytes per Read,
// arrives whole, and one cut short is ErrTruncated.
func TestReadFrameGrowsToDeclaredLength(t *testing.T) {
	body := make([]byte, 5*frameChunk+123)
	for i := range body {
		body[i] = byte(i * 7)
	}
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	got, err := ReadFrame(&trickle{b: frame, per: 4093})
	if err != nil || string(got) != string(body) {
		t.Fatalf("ReadFrame = %d bytes, %v; want the %d-byte body", len(got), err, len(body))
	}
	for _, cut := range []int{4, 4 + frameChunk, len(frame) - 1} {
		if _, err := ReadFrame(&trickle{b: frame[:cut], per: 4093}); !errors.Is(err, ErrTruncated) {
			t.Errorf("frame cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// trickle returns at most per bytes of b per Read.
type trickle struct {
	b   []byte
	per int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.per)], r.b)
	r.b = r.b[n:]
	return n, nil
}
