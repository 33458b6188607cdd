// Package storage is the disk half of the Storage Manager (§2.3, Fig 3):
// segment-file backed, CRC-framed append logs for the state a restart must
// not lose — HA output logs and connection-point history spilled past the
// memory budget — plus small atomic checkpoint files for dedup and
// stats-plane state.
//
// A Log is a directory of segment files. Each frame is
//
//	[uint32 LE payload length][uint32 LE CRC-32 (IEEE) of payload][payload]
//
// where the payload is one transport-encoded message (the same tuple
// encoding that crosses the wire, so the disk format inherits the codec's
// fuzzing and golden pins; wire bytes themselves are untouched). The tail
// segment is append-only; a crash can tear its last frame, and the reader
// treats any short or CRC-failing tail frame as the end of the log rather
// than an error — everything before it is intact by checksum.
//
// Truncation and eviction operate on whole segments: a sealed segment
// whose highest tuple sequence falls below the truncation point is
// deleted with one unlink, which is what makes a multi-gigabyte output
// log cheap to drain.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/stream"
	"repro/internal/transport"
)

// frameHeaderSize is the fixed per-frame overhead: length + CRC.
const frameHeaderSize = 8

// maxFramePayload fences hostile or corrupt length fields: no legitimate
// frame exceeds it, so the reader can reject a huge length without
// attempting the allocation.
const maxFramePayload = 16 << 20

// DefaultSegmentBytes is the rotation threshold when LogConfig leaves it
// zero: small enough that truncation reclaims space promptly, large
// enough that steady appends do not thrash the directory.
const DefaultSegmentBytes = 1 << 20

// LogConfig tunes one segment log.
type LogConfig struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 means DefaultSegmentBytes).
	SegmentBytes int
	// SyncEvery fsyncs the active segment after every N appends (0 means
	// sync on every append — the durable-send commit point; raise it when
	// the caller batches its own sync via Sync).
	SyncEvery int
}

// segment is one on-disk file's index entry.
type segment struct {
	path   string
	index  uint64 // monotonically increasing file ordinal
	bytes  int64
	frames int
	tuples int
	minSeq uint64 // lowest tuple Seq in the segment (0 when empty)
	maxSeq uint64 // highest tuple Seq in the segment
}

// Log is a segment-file backed append log of transport messages. All
// methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	cfg  LogConfig
	segs []segment // sealed segments, oldest first
	act  segment   // the active (append) segment's index entry
	f    *os.File  // active segment file, nil until first append
	buf  []byte    // frame scratch
	// sinceSync counts appends since the last fsync.
	sinceSync int
	// appended/evicted are lifetime counters across rotations.
	appended uint64
	evicted  uint64
	// torn records whether Open found (and ignored) a torn tail frame.
	torn bool
}

// OpenLog opens (creating if needed) the segment log rooted at dir and
// indexes every existing segment, tolerating a torn tail frame in the
// newest one. Appends resume in a fresh segment after the newest existing
// one, so a torn tail is never appended over.
func OpenLog(dir string, cfg LogConfig) (*Log, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	l := &Log{dir: dir, cfg: cfg}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		idx, ok := segmentIndex(e.Name())
		if !ok {
			continue
		}
		path := filepath.Join(dir, e.Name())
		seg := segment{path: path, index: idx}
		torn, err := scanSegment(path, func(m transport.Msg, frameBytes int) {
			noteFrame(&seg, m, frameBytes)
		})
		if err != nil {
			return nil, err
		}
		l.torn = l.torn || torn
		l.segs = append(l.segs, seg)
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].index < l.segs[j].index })
	for _, s := range l.segs {
		l.appended += uint64(s.tuples)
	}
	next := uint64(1)
	if n := len(l.segs); n > 0 {
		next = l.segs[n-1].index + 1
	}
	l.act = segment{path: l.segPath(next), index: next}
	return l, nil
}

func (l *Log) segPath(index uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%016d.log", index))
}

// segmentIndex parses a segment file name, ok=false for foreign files.
func segmentIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

func noteFrame(seg *segment, m transport.Msg, frameBytes int) {
	seg.bytes += int64(frameBytes)
	seg.frames++
	seg.tuples += len(m.Tuples)
	for _, t := range m.Tuples {
		if seg.minSeq == 0 || t.Seq < seg.minSeq {
			seg.minSeq = t.Seq
		}
		if t.Seq > seg.maxSeq {
			seg.maxSeq = t.Seq
		}
	}
}

// Append frames and writes one message to the active segment, rotating
// first when the segment is full. The message's tuples' Seq fields drive
// segment min/max indexing (TruncateBefore); BaseSeq and Stream travel
// with the frame for the caller's own use (the output log stores the
// origin sequence in BaseSeq).
func (l *Log) Append(m transport.Msg) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil || l.act.bytes >= int64(l.cfg.SegmentBytes) {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if cap(l.buf) < frameHeaderSize {
		l.buf = make([]byte, frameHeaderSize, 512)
	}
	l.buf = l.buf[:frameHeaderSize]
	l.buf = transport.Encode(l.buf, m)
	payload := l.buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(l.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("storage: append: %w", err)
	}
	noteFrame(&l.act, m, len(l.buf))
	l.appended += uint64(len(m.Tuples))
	l.sinceSync++
	if l.cfg.SyncEvery <= 0 || l.sinceSync >= l.cfg.SyncEvery {
		l.sinceSync = 0
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("storage: sync: %w", err)
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("storage: seal sync: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("storage: seal: %w", err)
		}
		l.segs = append(l.segs, l.act)
		l.act = segment{path: l.segPath(l.act.index + 1), index: l.act.index + 1}
	}
	f, err := os.OpenFile(l.act.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: rotate: %w", err)
	}
	l.f = f
	l.sinceSync = 0
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinceSync = 0
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Replay streams every retained message, oldest segment first, into fn;
// returning false from fn stops the replay. A torn tail frame ends the
// replay cleanly. Appends are blocked for the duration.
func (l *Log) Replay(fn func(transport.Msg) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("storage: replay sync: %w", err)
		}
	}
	stopped := false
	for _, seg := range append(append([]segment(nil), l.segs...), l.act) {
		if seg.frames == 0 || stopped {
			continue
		}
		if _, err := scanSegment(seg.path, func(m transport.Msg, _ int) {
			if !stopped && !fn(m) {
				stopped = true
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// ReplayTuples is Replay flattened to tuples.
func (l *Log) ReplayTuples(fn func(t stream.Tuple, baseSeq uint64) bool) error {
	return l.Replay(func(m transport.Msg) bool {
		for _, t := range m.Tuples {
			if !fn(t, m.BaseSeq) {
				return false
			}
		}
		return true
	})
}

// TruncateBefore unlinks every sealed segment whose highest tuple Seq is
// strictly below seq, returning how many tuples were freed. The active
// segment and any sealed segment straddling the boundary are retained —
// disk truncation is conservative, a superset of the in-memory log. So is
// the newest segment holding frames: its highest Seq is where a recovered
// log resumes stamping, so a fully acknowledged log still remembers it.
func (l *Log) TruncateBefore(seq uint64) (tuples int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	newest := -1
	if l.act.frames == 0 {
		for i, seg := range l.segs {
			if seg.frames > 0 {
				newest = i
			}
		}
	}
	kept := l.segs[:0]
	for i, seg := range l.segs {
		if seg.maxSeq < seq && seg.frames > 0 && i != newest {
			if rmErr := os.Remove(seg.path); rmErr != nil && err == nil {
				err = fmt.Errorf("storage: truncate: %w", rmErr)
			}
			tuples += seg.tuples
			l.evicted += uint64(seg.tuples)
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return tuples, err
}

// EvictOldest unlinks sealed segments, oldest first, until the log's
// total footprint is at or below maxBytes, returning how many tuples and
// bytes were dropped. The active segment is never evicted. This is the
// disk budget's enforcement: unlike TruncateBefore the dropped tuples
// were not known safe — the caller must account for them as lost history.
func (l *Log) EvictOldest(maxBytes int64) (tuples int, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.act.bytes
	for _, seg := range l.segs {
		total += seg.bytes
	}
	i := 0
	for ; i < len(l.segs) && total > maxBytes; i++ {
		seg := l.segs[i]
		os.Remove(seg.path)
		total -= seg.bytes
		tuples += seg.tuples
		bytes += seg.bytes
		l.evicted += uint64(seg.tuples)
	}
	l.segs = append(l.segs[:0], l.segs[i:]...)
	return tuples, bytes
}

// Bytes returns the log's total on-disk footprint.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.act.bytes
	for _, seg := range l.segs {
		total += seg.bytes
	}
	return total
}

// Tuples returns how many tuples the log currently retains.
func (l *Log) Tuples() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.act.tuples
	for _, seg := range l.segs {
		n += seg.tuples
	}
	return n
}

// Segments returns how many segment files the log spans (sealed + active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.segs)
	if l.act.frames > 0 {
		n++
	}
	return n
}

// Appended returns the lifetime count of tuples ever appended (including
// tuples indexed from disk at Open).
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Evicted returns the lifetime count of tuples dropped by TruncateBefore
// and EvictOldest.
func (l *Log) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Torn reports whether Open found a torn tail frame (evidence of a crash
// mid-append; the frame was ignored).
func (l *Log) Torn() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.torn
}

// Close seals the active segment. The log must not be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// scanSegment reads every intact frame of one segment file into fn and
// reports whether a torn tail was found. Corruption beyond frame framing
// (a payload that passes CRC but fails the codec) is an error: the CRC
// vouches the bytes are exactly what was written, so a decode failure
// means a writer bug, not a crash artifact.
func scanSegment(path string, fn func(m transport.Msg, frameBytes int)) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("storage: %w", err)
	}
	pos := 0
	for {
		m, used, ok, err := decodeFrame(data[pos:])
		if err != nil {
			return false, fmt.Errorf("storage: %s@%d: %w", filepath.Base(path), pos, err)
		}
		if !ok {
			return used > 0 || pos < len(data), nil
		}
		fn(m, used)
		pos += used
	}
}

// decodeFrame parses one frame from src. ok=false means a clean end: src
// is empty or holds a torn/corrupt tail (used is then the length of the
// ignored tail, for diagnostics). An error means an intact frame whose
// payload fails the codec.
func decodeFrame(src []byte) (m transport.Msg, used int, ok bool, err error) {
	if len(src) < frameHeaderSize {
		return m, len(src), false, nil
	}
	n := binary.LittleEndian.Uint32(src[0:4])
	sum := binary.LittleEndian.Uint32(src[4:8])
	if n > maxFramePayload || int(n) > len(src)-frameHeaderSize {
		return m, len(src), false, nil
	}
	payload := src[frameHeaderSize : frameHeaderSize+int(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return m, len(src), false, nil
	}
	msg, consumed, err := transport.Decode(payload)
	if err != nil {
		return m, 0, false, fmt.Errorf("frame payload: %w", err)
	}
	if consumed != len(payload) {
		return m, 0, false, fmt.Errorf("frame payload: %d trailing bytes", len(payload)-consumed)
	}
	return msg, frameHeaderSize + int(n), true, nil
}

// DecodeSegment parses an in-memory segment image, returning the intact
// messages and whether a torn tail was ignored. The fuzz target drives
// this directly; scanSegment is the file-reading wrapper.
func DecodeSegment(data []byte) (msgs []transport.Msg, torn bool, err error) {
	pos := 0
	for {
		m, used, ok, err := decodeFrame(data[pos:])
		if err != nil {
			return msgs, false, err
		}
		if !ok {
			return msgs, used > 0 || pos < len(data), nil
		}
		msgs = append(msgs, m)
		pos += used
	}
}
