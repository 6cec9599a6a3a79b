package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalLatchesWriteError closes the file under an open journal:
// the failing append is not counted, and once the file is usable again
// every later append still fails, because the torn frame would make
// replay drop whatever followed it. Replay recovers exactly the records
// written before the failure.
func TestJournalLatchesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.log")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := j.Append(journalRec{N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.seg.f.Close()
	if err := j.Append(journalRec{N: 2}); err == nil {
		t.Fatal("Append on a closed file succeeded")
	}
	if got := j.Records(); got != 2 {
		t.Fatalf("Records = %d after a failed append, want 2", got)
	}
	// Hand the journal a working file again: the latch must still hold.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j.seg.f = f
	j.seg.bw.Reset(f)
	if err := j.Append(journalRec{N: 3}); err == nil {
		t.Fatal("Append after a latched write error succeeded")
	}
	if got := j.Records(); got != 2 {
		t.Fatalf("Records = %d, want 2", got)
	}
	f.Close()
	if got := replayAll(t, path); len(got) != 2 || got[1].N != 1 {
		t.Fatalf("replay = %+v, want the two records written before the failure", got)
	}
}

// refFrames scans a frame stream independently of FrameReader and
// returns the payloads before the first torn or corrupt frame, with the
// byte offset (relative to the stream) where each one ends.
func refFrames(stream []byte) (payloads [][]byte, ends []int64) {
	off := 0
	for off+walFrameOverhead <= len(stream) {
		n := int(binary.BigEndian.Uint32(stream[off:]))
		sum := binary.BigEndian.Uint32(stream[off+4:])
		if n > maxWALRecordSize || off+walFrameOverhead+n > len(stream) {
			break
		}
		payload := stream[off+walFrameOverhead : off+walFrameOverhead+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		off += walFrameOverhead + n
		payloads = append(payloads, payload)
		ends = append(ends, int64(off))
	}
	return payloads, ends
}

// FuzzSegmentRecovery opens arbitrary bytes as a WAL and as a journal.
// Recovery must not panic, must return no payload past the first torn
// frame (for the WAL, the first undecodable one too), and must cut the
// file back to a frame boundary of the intact prefix.
func FuzzSegmentRecovery(f *testing.F) {
	for _, name := range []string{"wal.golden", "walbatch.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
		f.Add(append([]byte(journalMagic), data[len(walMagic):]...), true)
		f.Add(data[:len(data)-3], false)
	}
	f.Add([]byte(walMagic[:5]), false)
	f.Fuzz(func(t *testing.T, data []byte, journal bool) {
		magic := walMagic
		if journal {
			magic = journalMagic
		}
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		var records int64
		var truncated bool
		var err error
		if journal {
			var j *Journal
			j, err = OpenJournal(path, func(p []byte) error {
				got = append(got, bytes.Clone(p))
				return nil
			})
			if err == nil {
				records, truncated = j.Records(), j.TailTruncated()
				j.seg.f.Close() // no fsync: the fuzzer runs thousands of opens
			}
		} else {
			var wal *segment
			wal, err = openWAL(path, func(rec Record) {
				p, _ := json.Marshal(rec)
				got = append(got, p)
			})
			if err == nil {
				records, truncated = wal.records, wal.truncated
				wal.f.Close()
			}
		}
		if len(data) >= len(magic) && string(data[:len(magic)]) != magic {
			if err == nil {
				t.Fatal("bad magic accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		var want [][]byte
		var ends []int64
		if len(data) >= len(magic) {
			want, ends = refFrames(data[len(magic):])
		}
		if !journal {
			// The WAL stops at the first checksummed but undecodable frame.
			for i, p := range want {
				var rec Record
				if json.Unmarshal(p, &rec) != nil {
					want, ends = want[:i], ends[:i]
					break
				}
			}
		}
		if int64(len(got)) != records || len(got) != len(want) {
			t.Fatalf("recovered %d payloads (records %d), want the %d before the first torn frame", len(got), records, len(want))
		}
		if journal {
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("payload %d differs from the frame on disk", i)
				}
			}
		}
		boundary := int64(len(magic))
		if len(ends) > 0 {
			boundary += ends[len(ends)-1]
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != boundary {
			t.Fatalf("log is %d bytes after recovery, want the frame boundary %d", fi.Size(), boundary)
		}
		// A log shorter than its magic is recreated, not truncated.
		if torn := len(data) >= len(magic) && int64(len(data)) != boundary; truncated != torn {
			t.Fatalf("truncated = %v for a log whose intact prefix is %d of %d bytes", truncated, boundary, len(data))
		}
	})
}
