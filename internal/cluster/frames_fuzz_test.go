package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dexa/internal/store"
)

// refDecode decodes a frame stream independently of store.FrameReader:
// the records when every frame verifies and decodes, ok=false otherwise.
func refDecode(stream []byte) (recs []store.Record, ok bool) {
	for off := 0; off < len(stream); {
		if off+8 > len(stream) {
			return nil, false
		}
		n := int(binary.BigEndian.Uint32(stream[off:]))
		if n > 64<<20 || off+8+n > len(stream) {
			return nil, false
		}
		payload := stream[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(stream[off+4:]) {
			return nil, false
		}
		var rec store.Record
		if json.Unmarshal(payload, &rec) != nil {
			return nil, false
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return recs, true
}

// FuzzDecodeFrameStream feeds arbitrary bytes to the follower's decoder,
// raw and through the deflate path. It must not panic, and it returns
// either an error and no records (a batch with a torn or undecodable
// frame anywhere is dropped whole) or exactly the records an independent
// decoder reads.
func FuzzDecodeFrameStream(f *testing.F) {
	for _, name := range []string{"wal.golden", "walbatch.golden"} {
		data, err := os.ReadFile(filepath.Join("..", "store", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		stream := data[len("DEXAWAL1"):]
		f.Add(stream, false)
		f.Add(stream[:len(stream)-5], false)
		var z bytes.Buffer
		fw, _ := flate.NewWriter(&z, flate.BestSpeed)
		fw.Write(stream)
		fw.Close()
		f.Add(z.Bytes(), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, deflated bool) {
		stream := data
		var r io.Reader = bytes.NewReader(data)
		if deflated {
			inflated, err := io.ReadAll(flate.NewReader(bytes.NewReader(data)))
			if err != nil {
				// A damaged deflate stream must fail the batch too.
				if recs, err := DecodeFrameStream(flate.NewReader(bytes.NewReader(data))); err == nil {
					t.Fatalf("decoded %d records from a damaged deflate stream", len(recs))
				}
				return
			}
			stream = inflated
			r = flate.NewReader(bytes.NewReader(data))
		}
		got, err := DecodeFrameStream(r)
		want, ok := refDecode(stream)
		if !ok {
			if err == nil || got != nil {
				t.Fatalf("damaged stream: got %d records, err %v; want an error and none", len(got), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("intact stream rejected: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %d records, want %d", len(got), len(want))
		}
	})
}
