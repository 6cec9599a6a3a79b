package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dexa/internal/dataexample"
)

// The write-ahead log is an append-only file of length-prefixed,
// checksummed JSON records:
//
//	file   = magic frame*
//	magic  = "DEXAWAL1"                       (8 bytes)
//	frame  = length(uint32 BE) crc32(uint32 BE) payload
//	payload = JSON Record, `length` bytes, IEEE CRC-32 `crc32`
//
// Appends go to the end of the file; a crash can only damage the final
// frame. Replay accepts every frame whose length and checksum verify and
// truncates the file back to the last good frame when it meets a torn or
// corrupt tail, so a mid-write crash loses at most the records after the
// last sync and never poisons the store.
//
// The same physical frame format carries records over the replication
// feed (GET /wal): EncodeFrame and FrameReader are the two halves of it,
// shared by the disk log and the wire.

const walMagic = "DEXAWAL1"

// walFrameOverhead is the per-record framing cost (length + CRC).
const walFrameOverhead = 8

// maxWALRecordSize bounds a single record so a corrupt length prefix
// cannot make replay attempt a multi-gigabyte allocation.
const maxWALRecordSize = 64 << 20

// Mutation operations as logged in Record.Op.
const (
	OpPut    = "put"
	OpDelete = "delete"
)

// Record is one logged mutation: the unit of WAL replay and of
// leader-to-follower replication. Version is the per-module change count
// at the time of the mutation; replay falls back to recomputing it when
// absent (records written by older versions of the store).
type Record struct {
	Seq      uint64          `json:"seq"`
	Op       string          `json:"op"`
	Module   string          `json:"module"`
	Hash     string          `json:"hash,omitempty"`
	Version  uint64          `json:"version,omitempty"`
	Examples dataexample.Set `json:"examples,omitempty"`
}

// EncodeFrame wraps one payload in the WAL's physical frame format:
// length, CRC-32, payload. The disk log and the replication feed both
// emit frames this way, so a follower verifies end-to-end integrity with
// the same checksum the crash-recovery path uses.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, walFrameOverhead+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// ErrTornFrame reports a frame whose length, payload or checksum did not
// verify: the stream is damaged (or was cut) at that point. For the disk
// log this marks the truncation offset; for the replication feed it
// aborts the batch so the follower re-requests from its last good
// sequence.
var ErrTornFrame = errors.New("store: torn or corrupt frame")

// FrameReader decodes a stream of EncodeFrame frames. Next returns each
// verified payload in order, io.EOF at a clean end, and ErrTornFrame when
// the stream is damaged mid-frame. Consumed reports how many bytes of
// intact frames were read — the truncation point when the tail is torn.
type FrameReader struct {
	r        io.Reader
	header   [walFrameOverhead]byte
	consumed int64
}

// NewFrameReader wraps r for frame-by-frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next returns the next verified payload.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.header[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end
		}
		return nil, ErrTornFrame // torn frame header
	}
	length := binary.BigEndian.Uint32(fr.header[0:4])
	sum := binary.BigEndian.Uint32(fr.header[4:8])
	if length > maxWALRecordSize {
		return nil, ErrTornFrame // corrupt length prefix
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, ErrTornFrame // torn payload
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrTornFrame // bit rot / partial overwrite
	}
	fr.consumed += walFrameOverhead + int64(length)
	return payload, nil
}

// Consumed returns the byte count of fully verified frames read so far.
func (fr *FrameReader) Consumed() int64 { return fr.consumed }

// walBufferSize sizes the WAL segment's in-process buffer. A
// group-commit batch accumulates frames here and reaches the kernel in
// one write, so a 64-record batch costs one syscall instead of 64.
const walBufferSize = 256 << 10

// openWAL recovers the WAL at path, handing every intact record to apply
// in log order, and opens it for appends at the end of the intact
// prefix. A checksummed but undecodable frame is a torn tail like any
// other. Appends are not durable until flush (one write syscall per
// batch) and sync (one fsync per batch); the committer decides both
// points.
func openWAL(path string, apply func(Record)) (*segment, error) {
	return openSegment(path, walMagic, "wal", walBufferSize, func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return ErrTornFrame
		}
		apply(rec)
		return nil
	})
}

// appendRecord encodes one record and buffers its frame. An encoding
// failure touches nothing; a write failure latches in the segment.
func appendRecord(wal *segment, rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding wal record: %w", err)
	}
	return wal.append(payload)
}
