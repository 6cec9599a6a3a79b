package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
)

// matchesResponse wraps the matrix with the cache state it was computed
// under, so clients can correlate a body with its ETag.
type matchesResponse struct {
	State  string             `json:"state"`
	Matrix *match.MatchMatrix `json:"matrix"`
	// Cluster mode only: a scatter with failed shards degrades to a
	// partial matrix instead of failing. Absent on healthy answers, so
	// the healthy-cluster body matches a single node's shape.
	Partial      bool     `json:"partial,omitempty"`
	FailedShards []string `json:"failedShards,omitempty"`
}

// matrixCache memoizes the last all-pairs matrix build together with the
// catalog state it reflects and its encoded response bytes. The state
// key folds every registered module's stored-set content hash (and the
// signature index generation, when one is wired), so any annotation
// change — or an index Update/Remove after a signature change — produces
// a different key and forces a rebuild; an unchanged catalog serves the
// cached bytes verbatim (no re-serialisation per request) and lets
// If-None-Match answer 304 without recomputation. Rebuilds run through
// an IncrementalMatrix, which keeps its grid index-aligned with the
// sorted module IDs and, while those are unchanged, patches it in place:
// a changed catalog pays only for the pairs touching the modules that
// actually changed, not a full sweep. A rebuild that fails (a cancelled
// request) leaves this cache untouched and the changed modules marked
// dirty, so the next request recomputes their pairs and nothing else. The body is encoded once per rebuild
// by appendMatchesBody, without reflection.
type matrixCache struct {
	mu     sync.Mutex
	state  string
	matrix *match.MatchMatrix
	body   []byte
	inc    *match.IncrementalMatrix
}

// subsEntry is one warmed substitute search: the full (unlimited)
// ranking plus the state key it was computed under. The limit query
// parameter is applied per request, so every limit shares one entry.
type subsEntry struct {
	state string
	hash  string
	subs  match.Substitutes
}

// subsCache memoizes substitute searches per target module.
type subsCache struct {
	mu      sync.Mutex
	entries map[string]subsEntry
}

// matrixStateKey fingerprints everything the matrix depends on: the
// mapping mode, the index generation (signature churn), and each
// registered module's stored-annotation content hash. Modules without a
// stored set contribute their absence, so annotating one later changes
// the key.
func (s *Server) matrixStateKey() string {
	h := sha256.New()
	io.WriteString(h, s.Comparer.Mode.String())
	h.Write([]byte{0})
	if s.Comparer.Index != nil {
		fmt.Fprintf(h, "g%d", s.Comparer.Index.Generation())
		h.Write([]byte{0})
	}
	for _, id := range s.Registry.IDs() {
		hash, _ := s.Store.Hash(id)
		io.WriteString(h, id)
		h.Write([]byte{0})
		io.WriteString(h, hash)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// substitutesStateKey fingerprints a substitute search for one target:
// the mode, the target's stored-set hash, and the availability of the
// candidate set (candidates are invoked live, so their availability —
// not their stored annotations — is what the result depends on).
//
// With an index wired (and kept in sync with availability via SyncIndex
// and the lifecycle manager), the generation counter subsumes the
// candidate set: every availability flip and signature change bumps it,
// so the key is O(1) per request. Without an index the key falls back to
// folding the sorted available-module IDs — correct, but O(catalog).
func (s *Server) substitutesStateKey(targetID, targetHash string) string {
	h := sha256.New()
	io.WriteString(h, s.Comparer.Mode.String())
	h.Write([]byte{0})
	io.WriteString(h, targetID)
	h.Write([]byte{0})
	io.WriteString(h, targetHash)
	h.Write([]byte{0})
	if s.Comparer.Index != nil {
		fmt.Fprintf(h, "g%d", s.Comparer.Index.Generation())
		h.Write([]byte{0})
	} else {
		avail := s.Registry.Available()
		ids := make([]string, len(avail))
		for i, m := range avail {
			ids[i] = m.ID
		}
		sort.Strings(ids)
		for _, id := range ids {
			io.WriteString(h, id)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// handleMatches serves the catalog-wide verdict matrix over the stored
// annotations. The ETag is the catalog state key: If-None-Match answers
// 304 before any work, a matching cached build answers without
// recomputation, and only a genuinely changed catalog pays for a sweep.
func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) {
	if s.Comparer == nil {
		writeError(w, http.StatusNotImplemented, "matching is not enabled on this server")
		return
	}
	if s.clusterMode() {
		s.scatterMatches(w, r)
		return
	}
	state := s.matrixStateKey()
	etag := `"` + state + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}

	s.matrix.mu.Lock()
	defer s.matrix.mu.Unlock()
	if s.matrix.matrix == nil || s.matrix.state != state {
		if s.matrix.inc == nil {
			s.matrix.inc = match.NewIncrementalMatrix(s.Comparer)
		}
		keyedSet := func(id string) (*dataexample.KeyedSet, bool) {
			set, _, ok := s.Store.GetKeyed(id)
			return set, ok
		}
		mm, err := s.matrix.inc.Matrix(r.Context(), s.Registry.Modules(), keyedSet)
		if err != nil {
			writeError(w, http.StatusBadGateway, "building match matrix: %v", err)
			return
		}
		// The previous body's length is a close capacity hint: one
		// module's change moves the body by a few cells at most.
		body, err := appendMatchesBody(make([]byte, 0, len(s.matrix.body)), &matchesResponse{State: state, Matrix: mm})
		if err != nil {
			writeError(w, http.StatusInternalServerError, "encoding match matrix: %v", err)
			return
		}
		s.matrix.state = state
		s.matrix.matrix = mm
		s.matrix.body = body
	}
	writeJSONBody(w, s.matrix.body)
}

// writeJSONBody serves pre-encoded JSON with a 200.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// appendMatchesBody appends r to b exactly as writeJSON renders it —
// two-space indent, HTML-escaped strings, encoding/json's float format,
// trailing newline — without reflection or a re-indent pass. The field
// order and names follow the json tags of matchesResponse and the match
// package's matrix types; TestMatchesBodyEqualsMarshalIndent and
// FuzzMatchesBody check the bytes against json.MarshalIndent. The only
// error is a score encoding/json cannot represent (NaN or ±Inf).
func appendMatchesBody(b []byte, r *matchesResponse) ([]byte, error) {
	b = append(b, "{\n  \"state\": "...)
	b = appendJSONString(b, r.State)
	b = append(b, ",\n  \"matrix\": "...)
	if mm := r.Matrix; mm == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, "{\n    \"mode\": "...)
		b = appendJSONString(b, mm.Mode)
		b = append(b, ",\n    \"modules\": "...)
		b = appendJSONStrings(b, mm.Modules, "    ")
		if len(mm.Missing) > 0 {
			b = append(b, ",\n    \"missing\": "...)
			b = appendJSONStrings(b, mm.Missing, "    ")
		}
		b = append(b, ",\n    \"cells\": "...)
		switch {
		case mm.Cells == nil:
			b = append(b, "null"...)
		case len(mm.Cells) == 0:
			b = append(b, "[]"...)
		default:
			b = append(b, '[')
			for i := range mm.Cells {
				c := &mm.Cells[i]
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      {\n        \"target\": "...)
				b = appendJSONString(b, c.Target)
				b = append(b, ",\n        \"candidate\": "...)
				b = appendJSONString(b, c.Candidate)
				b = append(b, ",\n        \"verdict\": "...)
				b = appendJSONString(b, c.Verdict)
				b = append(b, ",\n        \"score\": "...)
				var err error
				if b, err = appendJSONFloat(b, c.Score); err != nil {
					return nil, err
				}
				b = append(b, ",\n        \"compared\": "...)
				b = strconv.AppendInt(b, int64(c.Compared), 10)
				b = append(b, ",\n        \"agreeing\": "...)
				b = strconv.AppendInt(b, int64(c.Agreeing), 10)
				b = append(b, "\n      }"...)
			}
			b = append(b, "\n    ]"...)
		}
		st := &mm.Stats
		for i, f := range [...]struct {
			name string
			v    int
		}{
			{"modules", st.Modules}, {"pairs", st.Pairs}, {"pruned", st.Pruned},
			{"compared", st.Compared}, {"mirrored", st.Mirrored},
			{"incomparable", st.Incomparable}, {"equivalent", st.Equivalent},
			{"overlapping", st.Overlapping}, {"disjoint", st.Disjoint},
		} {
			if i == 0 {
				b = append(b, ",\n    \"stats\": {"...)
			} else {
				b = append(b, ',')
			}
			b = append(b, "\n      \""...)
			b = append(b, f.name...)
			b = append(b, "\": "...)
			b = strconv.AppendInt(b, int64(f.v), 10)
		}
		b = append(b, "\n    }\n  }"...)
	}
	if r.Partial {
		b = append(b, ",\n  \"partial\": true"...)
	}
	if len(r.FailedShards) > 0 {
		b = append(b, ",\n  \"failedShards\": "...)
		b = appendJSONStrings(b, r.FailedShards, "  ")
	}
	return append(b, "\n}\n"...), nil
}

// appendJSONStrings appends a string array whose opening bracket sits on
// a line indented by indent.
func appendJSONStrings(b []byte, ss []string, indent string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	if len(ss) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = append(b, indent...)
		b = append(b, "  "...)
		b = appendJSONString(b, s)
	}
	b = append(b, '\n')
	b = append(b, indent...)
	return append(b, ']')
}

// appendJSONString appends s as encoding/json does with HTML escaping
// on: control bytes, quote and backslash escaped (\b \f \n \r \t by
// name), <, > and & as \u00XX, invalid UTF-8 replaced by \ufffd, and
// U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: the
// shortest round-tripping decimal, switching to an exponent below 1e-6
// and from 1e21 up, with a two-digit negative exponent trimmed (e-07 →
// e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("json: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// warmedSubstitutes returns the cached substitute search for the target
// when the catalog state still matches, running and caching the search
// otherwise. Concurrent requests serialise on the cache lock, so
// identical searches arriving together collapse onto one run (the
// second request hits the entry the first one just warmed).
func (s *Server) warmedSubstitutes(r *http.Request, target *module.Module, targetHash, state string) (match.Substitutes, error) {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	if e, ok := s.subs.entries[target.ID]; ok && e.state == state {
		return e.subs, nil
	}
	subs, err := s.Comparer.FindSubstitutesStoredContext(r.Context(), s.Store, target, s.Registry.Available())
	if err != nil {
		return match.Substitutes{}, err
	}
	if s.subs.entries == nil {
		s.subs.entries = map[string]subsEntry{}
	}
	s.subs.entries[target.ID] = subsEntry{state: state, hash: targetHash, subs: subs}
	return subs, nil
}
