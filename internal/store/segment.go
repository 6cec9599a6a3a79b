package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// segment is one CRC-framed, append-only log file — the physical layer
// shared by the store's WAL and the general-purpose Journal:
//
//	file  = magic frame*
//	magic = 8 bytes naming the log kind ("DEXAWAL1", "DEXAJNL1")
//	frame = EncodeFrame(payload)
//
// Appends go through an in-process buffer and reach the kernel at flush,
// so a caller batching records (the WAL's group commit) pays one write
// syscall per batch. The first write error is latched: the file's tail
// is then in an unknown state, and every later append or flush fails
// rather than stacking frames behind a torn one that recovery would
// discard. Only frames that reached the file count in records and bytes.
type segment struct {
	f     *os.File
	bw    *bufio.Writer
	magic string
	what  string // "wal" or "journal", for error messages

	records int64 // frames replayed at open plus frames flushed since
	bytes   int64 // file size: magic plus every counted frame
	// pendingRecords and pendingBytes are frames buffered but not yet
	// flushed; they move into records and bytes when a flush succeeds.
	pendingRecords int64
	pendingBytes   int64

	// truncated reports that recovery cut a torn or corrupt tail.
	truncated bool
	err       error // latched write error
}

// openSegment recovers the log at path and opens it for appends at the
// end of its intact prefix. Recovery hands every verified payload to
// replay, in order. A torn or corrupt tail ends recovery at the last
// good frame, and the file is cut back there; so does a replay error
// that is exactly ErrTornFrame (a checksummed but undecodable payload).
// Any other replay error is a hard error, as is a file whose magic is
// wrong. A missing file, or one shorter than the magic (a crash during
// creation), is created afresh.
func openSegment(path, magic, what string, bufSize int, replay func(payload []byte) error) (*segment, error) {
	g := &segment{magic: magic, what: what}
	good, err := g.recover(path, replay)
	if err != nil {
		return nil, err
	}
	// O_APPEND: every write lands at the end of the file, so cutting the
	// file back (here, or in reset) needs no seek.
	g.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", what, err)
	}
	if good == 0 || g.truncated {
		if err := g.f.Truncate(good); err != nil {
			g.f.Close()
			return nil, fmt.Errorf("store: truncating torn %s tail: %w", what, err)
		}
	}
	if good == 0 {
		if _, err := g.f.WriteString(magic); err != nil {
			g.f.Close()
			return nil, fmt.Errorf("store: writing %s header: %w", what, err)
		}
		good = int64(len(magic))
	}
	g.bytes = good
	g.bw = bufio.NewWriterSize(g.f, bufSize)
	return g, nil
}

// recover scans the log at path, handing each intact payload to replay
// and counting it in records, and returns the size of the intact prefix:
// 0 when the file must be created afresh. It sets truncated when a torn
// tail follows the prefix.
func (g *segment) recover(path string, replay func(payload []byte) error) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: opening %s: %w", g.what, err)
	}
	defer f.Close()

	head := make([]byte, len(g.magic))
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, nil // crash during creation; recreate
	}
	if string(head) != g.magic {
		return 0, fmt.Errorf("store: %s is not a %s (bad magic)", path, g.what)
	}
	fr := NewFrameReader(f)
	for {
		good := int64(len(g.magic)) + fr.Consumed()
		payload, err := fr.Next()
		if err == io.EOF {
			return good, nil // clean end
		}
		if err == nil {
			err = replay(payload)
		}
		if err == ErrTornFrame {
			g.truncated = true // torn, corrupt or undecodable tail
			return good, nil
		}
		if err != nil {
			return 0, err
		}
		g.records++
	}
}

// append frames one payload into the buffer. It neither writes through
// nor syncs; flush and sync decide those points.
func (g *segment) append(payload []byte) error {
	if g.err != nil {
		return g.err
	}
	frame := EncodeFrame(payload)
	if _, err := g.bw.Write(frame); err != nil {
		g.err = fmt.Errorf("store: appending %s record: %w", g.what, err)
		return g.err
	}
	g.pendingRecords++
	g.pendingBytes += int64(len(frame))
	return nil
}

// flush writes buffered frames through to the file.
func (g *segment) flush() error {
	if g.err != nil {
		return g.err
	}
	if err := g.bw.Flush(); err != nil {
		g.err = fmt.Errorf("store: flushing %s: %w", g.what, err)
		return g.err
	}
	g.records += g.pendingRecords
	g.bytes += g.pendingBytes
	g.pendingRecords, g.pendingBytes = 0, 0
	return nil
}

// sync forces the log to stable storage, flushing the buffer first.
func (g *segment) sync() error {
	if err := g.flush(); err != nil {
		return err
	}
	if err := g.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", g.what, err)
	}
	return nil
}

// reset truncates the log back to its magic header (after a snapshot has
// absorbed its records) and syncs. Buffered frames are discarded, and a
// latched write error clears: the damaged tail is gone.
func (g *segment) reset() error {
	g.bw.Reset(g.f)
	g.pendingRecords, g.pendingBytes = 0, 0
	if err := g.f.Truncate(int64(len(g.magic))); err != nil {
		return fmt.Errorf("store: truncating %s: %w", g.what, err)
	}
	g.err = nil
	g.records = 0
	g.bytes = int64(len(g.magic))
	return g.sync()
}

// close syncs and closes the file.
func (g *segment) close() error {
	err := g.sync()
	if cerr := g.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: closing %s: %w", g.what, cerr)
	}
	return err
}
