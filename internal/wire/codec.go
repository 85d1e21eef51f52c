// Package wire defines the binary message codec and framing for the §V
// protocols. Frames are length-prefixed so messages survive TCP stream
// segmentation; all integers are big-endian; all variable-length fields are
// length-prefixed and bounded, so a malicious peer cannot force unbounded
// allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Limits enforced while decoding.
const (
	// MaxVectorLen bounds sketch/vector dimensions (the paper sweeps up to
	// n = 31,000; we allow two orders of magnitude of headroom).
	MaxVectorLen = 1 << 22
	// MaxBytesLen bounds byte-string fields (keys, signatures, seeds, IDs).
	MaxBytesLen = 1 << 20
	// MaxFrameLen bounds a whole frame.
	MaxFrameLen = 1 << 28
	// MaxBatchLen bounds batch entries (normal-approach challenge lists).
	MaxBatchLen = 1 << 20
	// MaxTenantLen bounds tenant names on the wire and in the mutation
	// codec; it matches store.MaxTenantNameLen.
	MaxTenantLen = 64
	// MaxTenantList bounds the names of one TenantInfo answer.
	MaxTenantList = 1 << 16
)

// Errors returned by the codec.
var (
	ErrTooLarge  = errors.New("wire: field exceeds size limit")
	ErrTruncated = errors.New("wire: truncated message")
	// ErrBadFrame marks a frame that does not decode as a message. Every
	// Unmarshal, Receive and ReceiveInto error after the frame was read
	// whole is one, so a stream that returned it is still in sync; a
	// frame cut short or declared over MaxFrameLen is not one.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrUnknownType is an ErrBadFrame whose tag names no message, such as
	// a retired one.
	ErrUnknownType = fmt.Errorf("%w: unknown message type", ErrBadFrame)
)

// Encoder appends primitive values to a buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// AppendEncoder returns an encoder that appends to buf, reusing its
// capacity: a caller that keeps its buffer between encodings allocates
// only when an encoding outgrows it.
func AppendEncoder(buf []byte) Encoder { return Encoder{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint32 appends a big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Uint64 appends a big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// Int64 appends a big-endian int64 (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Byte appends one byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Bytes32 appends a fixed 32-byte value.
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// VarBytes appends a length-prefixed byte string.
func (e *Encoder) VarBytes(v []byte) {
	e.Uint32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) { e.VarBytes([]byte(v)) }

// Int64Slice appends a length-prefixed slice of int64. The buffer grows
// once and the values are written in place.
func (e *Encoder) Int64Slice(v []int64) {
	e.Uint32(uint32(len(v)))
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:off+8*len(v)]
	out := e.buf[off:]
	for i, x := range v {
		binary.BigEndian.PutUint64(out[8*i:], uint64(x))
	}
}

// Decoder consumes primitive values from a buffer.
type Decoder struct {
	buf []byte
	off int
	// scratch, when set, receives the next Int64Slice (see ReceiveInto).
	scratch *[]int64
	// open, when set, is the session state an EnrollRequest or
	// ReEnrollRequest decodes into (see ReceiveOpener).
	open *Opener
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns an error unless the buffer was fully consumed — every message
// decoder calls it last to reject trailing garbage.
func (d *Decoder) Done() error {
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, d.Remaining())
	}
	return nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrTruncated
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out, nil
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Byte reads one byte.
func (d *Decoder) Byte() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Bool reads a boolean.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.Byte()
	if err != nil {
		return false, err
	}
	if b > 1 {
		return false, fmt.Errorf("%w: bool byte %d", ErrBadFrame, b)
	}
	return b == 1, nil
}

// Bytes32 reads a fixed 32-byte value.
func (d *Decoder) Bytes32() ([32]byte, error) {
	var out [32]byte
	b, err := d.take(32)
	if err != nil {
		return out, err
	}
	copy(out[:], b)
	return out, nil
}

// view reads a length-prefixed byte string of at most max bytes and
// returns it in place: the slice aliases the decoder's buffer.
func (d *Decoder) view(max int) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, max)
	}
	return d.take(int(n))
}

// VarBytes reads a length-prefixed byte string of at most max bytes. The
// returned slice is a copy.
func (d *Decoder) VarBytes(max int) ([]byte, error) {
	b, err := d.view(max)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// varBytesInto is VarBytes copying into *dst's capacity, and setting *dst
// to the copy, when dst is non-nil.
func (d *Decoder) varBytesInto(max int, dst *[]byte) ([]byte, error) {
	if dst == nil {
		return d.VarBytes(max)
	}
	b, err := d.view(max)
	if err != nil {
		return nil, err
	}
	*dst = append((*dst)[:0], b...)
	return *dst, nil
}

// String reads a length-prefixed string of at most max bytes, copying it
// out of the buffer once.
func (d *Decoder) String(max int) (string, error) {
	b, err := d.view(max)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Int64Slice reads a length-prefixed int64 slice of at most max elements.
func (d *Decoder) Int64Slice(max int) ([]int64, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, max)
	}
	b, err := d.take(8 * int(n))
	if err != nil {
		return nil, err
	}
	var out []int64
	if d.scratch != nil {
		out = slices.Grow((*d.scratch)[:0], int(n))[:n]
		*d.scratch, d.scratch = out, nil
	} else {
		out = make([]int64, n)
	}
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// frameChunk is the first allocation for a frame body that does not fit
// the caller's buffer.
const frameChunk = 64 << 10

// readFrameInto reads one length-prefixed frame into buf, reusing its
// capacity, and returns the payload. The header is read into buf too, so a
// warm buffer reads a frame without allocating; an empty one is replaced by
// a frameChunk buffer first, so a cold read of a body up to frameChunk is
// one allocation. A body that fits buf, or frameChunk, is one read into one
// buffer. A larger one is read into a buffer that starts at the larger of
// buf and frameChunk and doubles, up to the declared length, only as body
// bytes arrive: a header alone, from a peer nothing has authenticated yet,
// pins at most frameChunk beyond buf however large a frame it declares, and
// a trickled body at most twice what was sent.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, frameChunk)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrameLen {
		return nil, fmt.Errorf("%w: frame %d bytes", ErrTooLarge, n)
	}
	if uint32(cap(buf)) < min(n, frameChunk) {
		buf = make([]byte, 0, min(n, frameChunk))
	}
	buf = buf[:0]
	for uint32(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*len(buf), int(n))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), int(n))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: frame body: %v", ErrTruncated, err)
		}
	}
	return buf, nil
}
