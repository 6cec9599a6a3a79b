package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is a general-purpose append-only log of JSON records: a log
// segment (see segment.go) under the magic "DEXAJNL1", in the same frame
// format as the example-store WAL, with the same torn-tail truncation on
// open. It backs subsystems that need a durable, replayable event stream
// without the store's snapshot machinery: the lifecycle event log and the
// repair queue.
//
// A Journal opened with an empty path is memory-only: appends succeed and
// are forgotten, which keeps callers free of "is persistence on?" branches.
type Journal struct {
	mu      sync.Mutex
	seg     *segment // nil when memory-only
	records int64    // memory-only append count
	closed  bool
}

const journalMagic = "DEXAJNL1"

// journalBufferSize bounds one buffered append; Append flushes every
// record through to the kernel before it returns.
const journalBufferSize = 4 << 10

// OpenJournal opens (or creates) the journal at path, invoking replay for
// every intact record before returning. Records after a torn or corrupt
// tail are discarded and the file is truncated back to the last good
// frame, mirroring the store WAL's crash-recovery contract; an error from
// replay fails the open. replay may be nil when the caller does not need
// the history. An empty path yields a memory-only journal.
func OpenJournal(path string, replay func(payload []byte) error) (*Journal, error) {
	if path == "" {
		return &Journal{}, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating journal dir: %w", err)
	}
	n := 0
	seg, err := openSegment(path, journalMagic, "journal", journalBufferSize, func(payload []byte) error {
		if replay != nil {
			if err := replay(payload); err != nil {
				return fmt.Errorf("store: replaying journal record %d: %w", n, err)
			}
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Journal{seg: seg}, nil
}

// Append marshals v as JSON and writes its frame through to the kernel.
// It does not sync; callers decide the durability point (see Sync). After
// a failed write every later Append fails too: the torn frame would make
// replay drop whatever followed it.
func (j *Journal) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("store: journal is closed")
	}
	if j.seg == nil {
		j.records++ // memory-only
		return nil
	}
	if err := j.seg.append(payload); err != nil {
		return err
	}
	return j.seg.flush()
}

// Sync forces appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg == nil || j.closed {
		return nil
	}
	return j.seg.sync()
}

// Close syncs and closes the underlying file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.seg == nil {
		return nil
	}
	return j.seg.close()
}

// Records returns the number of records replayed plus appended.
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg == nil {
		return j.records
	}
	return j.seg.records
}

// TailTruncated reports whether opening discarded a torn or corrupt tail.
func (j *Journal) TailTruncated() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seg != nil && j.seg.truncated
}
