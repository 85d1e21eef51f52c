package persist

// This file owns the byte-level formats: CRC-checked frames, the WAL and
// snapshot file layouts, and the mutation payload codec (which reuses
// internal/wire so the repo has one serialization layer).
//
//	WAL segment  wal-<seq:016x>.log   "FZWAL001" header, then frames
//	Snapshot     snap-<seq:016x>.snap "FZSNP001" header, uint64 count, frames
//	Frame        [4B payload length][4B CRC32-C of payload][payload]
//	WAL payload  [1B op] + EncodeRecord (insert) | length-prefixed ID (delete)
//	Snap payload EncodeRecord
//
// CRC32-C (Castagnoli) detects torn and bit-rotten frames; the version is
// carried in the 8-byte header magic and in every record's leading version
// byte (wire.RecordVersion).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fuzzyid/internal/store"
	"fuzzyid/internal/wire"
)

const (
	walMagic  = "FZWAL001"
	snapMagic = "FZSNP001"
	headerLen = 8
	// frameOverhead is the per-frame byte cost: length + CRC.
	frameOverhead = 8
	// maxPayload bounds one frame; matches the wire layer's frame bound.
	maxPayload = wire.MaxFrameLen
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newReader sizes the read buffer for segment and snapshot replay.
func newReader(f *os.File) *bufio.Reader { return bufio.NewReaderSize(f, 1<<16) }

// errTorn marks a frame cut short by a crash mid-write: tolerated at the
// tail of the last WAL segment, fatal anywhere else.
var errTorn = errors.New("persist: torn frame")

func walName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name; ok is false for foreign files.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// appendFrame appends one CRC-framed payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame reads one frame. It returns io.EOF at a clean end, errTorn for
// a frame cut short, and ErrCorrupt for a CRC mismatch or oversized length.
// claimed is the frame's total on-disk extent (header + declared payload)
// when the header could be read and its length field was sane, else -1 —
// WAL replay uses it to decide whether a corrupt frame is the file's last.
func readFrame(r io.Reader) (payload []byte, claimed int64, err error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, -1, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, -1, errTorn
		}
		return nil, -1, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxPayload {
		return nil, -1, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	claimed = frameOverhead + int64(n)
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, claimed, errTorn
		}
		return nil, claimed, err
	}
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, claimed, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, claimed, nil
}

// appendMutationFrame appends m's WAL frame to buf: the payload is the
// shared codec of internal/wire (the replication stream ships the very same
// bytes), encoded in place behind the frame header it then fills in, so an
// append into a warm buf allocates nothing.
func appendMutationFrame(buf []byte, m store.Mutation) ([]byte, error) {
	start := len(buf)
	e := wire.AppendEncoder(append(buf, make([]byte, frameOverhead)...))
	if err := wire.EncodeMutation(&e, m); err != nil {
		return buf, fmt.Errorf("persist: %w", err)
	}
	frame := e.Bytes()
	payload := frame[start+frameOverhead:]
	binary.BigEndian.PutUint32(frame[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[start+4:], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

// decodeMutation parses a frame payload back into a mutation.
func decodeMutation(payload []byte) (store.Mutation, error) {
	d := wire.NewDecoder(payload)
	m, err := wire.DecodeMutation(d)
	if err != nil {
		return store.Mutation{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := d.Done(); err != nil {
		return store.Mutation{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// layout is the set of on-disk artefacts found when opening a directory.
type layout struct {
	man     manifest // the committed snapshot chain, meaningful iff hasMan
	hasMan  bool
	snapSeq uint64 // newest snapshot (the chain base when hasMan), iff hasSnap
	hasSnap bool
	walSeqs []uint64 // ascending; the segments the recovery chain replays
	stale   []string // files subsumed by the snapshot chain, or tmp litter
}

// scanDir classifies the persistence directory's contents. With a MANIFEST
// the chain it names is authoritative: any snapshot, increment or WAL
// segment outside it is a crash orphan and goes on the stale list. Without
// one (a legacy or fresh directory) the newest snapshot wins, as before the
// manifest existed.
func scanDir(dir string) (layout, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return layout{}, fmt.Errorf("persist: scan %s: %w", dir, err)
	}
	var l layout
	var snapSeqs, incrSeqs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue // e.g. the tenants/ partition subdir
		}
		if strings.HasSuffix(name, ".tmp") {
			l.stale = append(l.stale, name)
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			l.walSeqs = append(l.walSeqs, seq)
			continue
		}
		if seq, ok := parseSeq(name, "incr-", ".snap"); ok {
			incrSeqs = append(incrSeqs, seq)
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
			continue
		}
	}
	sort.Slice(l.walSeqs, func(i, j int) bool { return l.walSeqs[i] < l.walSeqs[j] })
	l.man, l.hasMan, err = readManifest(dir)
	if err != nil {
		return layout{}, err
	}
	if l.hasMan {
		l.hasSnap, l.snapSeq = true, l.man.Base
		chained := make(map[uint64]bool, len(l.man.Incrs))
		for _, s := range l.man.Incrs {
			chained[s] = true
		}
		for _, s := range snapSeqs {
			if s != l.man.Base {
				l.stale = append(l.stale, snapName(s))
			}
		}
		for _, s := range incrSeqs {
			if !chained[s] {
				l.stale = append(l.stale, incrName(s))
			}
		}
		cut := l.man.cut()
		live := l.walSeqs[:0]
		for _, s := range l.walSeqs {
			if s < cut {
				l.stale = append(l.stale, walName(s))
			} else {
				live = append(live, s)
			}
		}
		l.walSeqs = live
		return l, nil
	}
	// No manifest: increments are unreachable orphans, and everything
	// strictly older than the newest snapshot is subsumed by it — dead
	// weight from a crash between snapshot rename and purge.
	for _, s := range incrSeqs {
		l.stale = append(l.stale, incrName(s))
	}
	for _, s := range snapSeqs {
		if !l.hasSnap || s > l.snapSeq {
			l.hasSnap = true
			l.snapSeq = s
		}
	}
	if l.hasSnap {
		for _, s := range snapSeqs {
			if s < l.snapSeq {
				l.stale = append(l.stale, snapName(s))
			}
		}
		live := l.walSeqs[:0]
		for _, s := range l.walSeqs {
			if s < l.snapSeq {
				l.stale = append(l.stale, walName(s))
			} else {
				live = append(live, s)
			}
		}
		l.walSeqs = live
	}
	return l, nil
}

// writeSnapshotFile writes the full record set as snapshot seq, atomically:
// content goes to a tmp file which is fsynced and renamed into place, then
// the directory is fsynced, so the snapshot exists completely or not at all.
func writeSnapshotFile(dir string, seq uint64, recs []*store.Record) error {
	tmp := filepath.Join(dir, snapName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot tmp: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	var hdr [headerLen + 8]byte
	copy(hdr[:headerLen], snapMagic)
	binary.BigEndian.PutUint64(hdr[headerLen:], uint64(len(recs)))
	buf := append(make([]byte, 0, 1<<16), hdr[:]...)
	for _, rec := range recs {
		e := wire.NewEncoder(256)
		wire.EncodeRecord(e, rec)
		buf = appendFrame(buf, e.Bytes())
		if len(buf) >= 1<<20 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return fmt.Errorf("persist: snapshot write: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("persist: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(seq))); err != nil {
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// replaySnapshotFile streams every record of snapshot seq into apply as an
// insert mutation. A snapshot is complete by construction (atomic rename),
// so any decode failure is corruption, not a crash artefact.
func replaySnapshotFile(dir string, seq uint64, apply func(store.Mutation) error) error {
	return replaySnapshotFiltered(dir, seq, nil, apply)
}

// replaySnapshotFiltered is replaySnapshotFile restricted to records whose
// ID passes keep (nil keeps all) — chain replay uses it to drop base records
// superseded by an increment.
func replaySnapshotFiltered(dir string, seq uint64, keep func(id string) bool, apply func(store.Mutation) error) error {
	path := filepath.Join(dir, snapName(seq))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("persist: open snapshot: %w", err)
	}
	defer f.Close()
	r := newReader(f)
	var hdr [headerLen + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: snapshot %s header: %v", ErrCorrupt, snapName(seq), err)
	}
	if string(hdr[:headerLen]) != snapMagic {
		return fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, snapName(seq))
	}
	count := binary.BigEndian.Uint64(hdr[headerLen:])
	for i := uint64(0); i < count; i++ {
		payload, _, err := readFrame(r)
		if err != nil {
			return fmt.Errorf("%w: snapshot %s record %d: %v", ErrCorrupt, snapName(seq), i, err)
		}
		d := wire.NewDecoder(payload)
		rec, err := wire.DecodeRecord(d)
		if err == nil {
			err = d.Done()
		}
		if err != nil {
			return fmt.Errorf("%w: snapshot %s record %d: %v", ErrCorrupt, snapName(seq), i, err)
		}
		if keep != nil && !keep(rec.ID) {
			continue
		}
		if err := apply(store.InsertMutation(rec)); err != nil {
			return err
		}
	}
	if _, _, err := readFrame(r); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: snapshot %s: trailing data", ErrCorrupt, snapName(seq))
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: sync dir: %w", err)
	}
	return nil
}
