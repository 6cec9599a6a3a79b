package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"testing"
	"testing/quick"

	"dexa/internal/match"
)

func rawGet(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("ETag")
}

// TestMatchesCachedBody pins the cached-bytes serving path: an
// unchanged catalog serves byte-identical response bodies without
// re-encoding, the bytes are exactly the writeJSON rendering of the
// cached matrix, and an annotation change swaps in a new body whose
// matrix reflects the change.
func TestMatchesCachedBody(t *testing.T) {
	f := newFixture(t, "")
	for _, id := range []string{"alpha", "beta", "gamma"} {
		post(t, f.ts.URL+"/modules/"+id+"/generate")
	}
	url := f.ts.URL + "/matches"
	b1, e1 := rawGet(t, url)
	b2, e2 := rawGet(t, url)
	if !bytes.Equal(b1, b2) || e1 != e2 {
		t.Fatal("unchanged catalog served different bodies or ETags")
	}
	// The cached bytes are indistinguishable from a per-request encode:
	// decode, re-encode the way writeJSON does, compare bytes.
	type response struct {
		State  string             `json:"state"`
		Matrix *match.MatchMatrix `json:"matrix"`
	}
	var decoded response
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	reenc, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reenc = append(reenc, '\n')
	if !bytes.Equal(b1, reenc) {
		t.Error("cached body is not the canonical writeJSON rendering")
	}
	if decoded.Matrix.Stats.Equivalent != 2 {
		t.Fatalf("stats = %+v", decoded.Matrix.Stats)
	}

	// Deleting one module's annotation changes the catalog state: the
	// body must change and the matrix must lose alpha's cells.
	if err := f.st.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	b3, e3 := rawGet(t, url)
	if bytes.Equal(b3, b1) || e3 == e1 {
		t.Fatal("annotation change did not produce a new body and ETag")
	}
	decoded = response{}
	if err := json.Unmarshal(b3, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Matrix.Missing) != 1 || decoded.Matrix.Missing[0] != "alpha" {
		t.Fatalf("missing = %v", decoded.Matrix.Missing)
	}
	if decoded.Matrix.Stats.Equivalent != 0 {
		t.Fatalf("stats after delete = %+v", decoded.Matrix.Stats)
	}

	// Restoring the annotation restores an equivalent matrix through the
	// incremental rebuild — only alpha's row and column are recomputed,
	// and the served body must again equal a canonical encode.
	post(t, f.ts.URL+"/modules/alpha/generate")
	b4, e4 := rawGet(t, url)
	if bytes.Equal(b4, b3) || e4 == e3 {
		t.Fatal("restored annotation did not produce a new body")
	}
	decoded = response{}
	if err := json.Unmarshal(b4, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Matrix.Stats.Equivalent != 2 || len(decoded.Matrix.Missing) != 0 {
		t.Fatalf("restored matrix = %+v", decoded.Matrix.Stats)
	}
}

// marshalMatchesOracle is the reflective rendering appendMatchesBody
// replaced: writeJSON's bytes for a matchesResponse.
func marshalMatchesOracle(resp *matchesResponse) ([]byte, error) {
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

func checkMatchesBody(t *testing.T, resp *matchesResponse) {
	t.Helper()
	want, werr := marshalMatchesOracle(resp)
	got, gerr := appendMatchesBody(nil, resp)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("oracle error %v, appender error %v", werr, gerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appender diverged from json.MarshalIndent\n got %q\nwant %q", got, want)
	}
}

// awkwardIDs are strings every escaping rule of encoding/json touches:
// HTML-sensitive and quoting bytes, named and numeric control escapes,
// DEL, the JavaScript line separators, invalid and truncated UTF-8 and
// an encoded surrogate half.
var awkwardIDs = []string{
	"", "getUniprotRecord", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
	"\b\f\n\r\t", "\x00\x01\x1f\x7f", "sep\u2028par\u2029", "bad\xffutf8",
	"trunc\xe2\x82", "\xed\xa0\x80", "ünïcødé→😀",
}

// awkwardScores cover both float formats encoding/json switches between,
// the boundaries of the switch, and the exponent trimming.
var awkwardScores = []float64{
	0, 1, 1.0 / 3, 2.0 / 3, 0.5, 1e-7, 5e-324, 1e-6, 9.99e-7, 1e20, 1e21,
	123456789.125, -0.25, math.Copysign(0, -1), math.MaxFloat64,
}

func randomWireString(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return awkwardIDs[r.Intn(len(awkwardIDs))]
	}
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

// randomWireStrings returns nil, empty or populated lists alike, since
// encoding/json tells nil (null) from empty ([]).
func randomWireStrings(r *rand.Rand) []string {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	ss := make([]string, 1+r.Intn(4))
	for i := range ss {
		ss[i] = randomWireString(r)
	}
	return ss
}

func randomMatchesResponse(r *rand.Rand) matchesResponse {
	ints := []int{0, 1, 7, -3, 1 << 40, math.MaxInt64, math.MinInt64}
	num := func() int { return ints[r.Intn(len(ints))] }
	resp := matchesResponse{State: randomWireString(r), Partial: r.Intn(2) == 0, FailedShards: randomWireStrings(r)}
	if r.Intn(8) == 0 {
		return resp // nil matrix
	}
	mm := &match.MatchMatrix{
		Mode:    randomWireString(r),
		Modules: randomWireStrings(r),
		Missing: randomWireStrings(r),
		Stats: match.MatrixStats{
			Modules: num(), Pairs: num(), Pruned: num(), Compared: num(), Mirrored: num(),
			Incomparable: num(), Equivalent: num(), Overlapping: num(), Disjoint: num(),
		},
	}
	switch r.Intn(4) {
	case 0: // nil cells
	case 1:
		mm.Cells = []match.MatrixCell{}
	default:
		mm.Cells = make([]match.MatrixCell, 1+r.Intn(5))
		for i := range mm.Cells {
			mm.Cells[i] = match.MatrixCell{
				Target:    randomWireString(r),
				Candidate: randomWireString(r),
				Verdict:   randomWireString(r),
				Score:     awkwardScores[r.Intn(len(awkwardScores))],
				Compared:  num(),
				Agreeing:  num(),
			}
		}
	}
	resp.Matrix = mm
	return resp
}

// TestMatchesBodyEqualsMarshalIndent: the direct appender renders random
// responses byte-identically to json.MarshalIndent plus the trailing
// newline — awkward IDs and scores, nil versus empty lists, missing
// modules, partial answers and failed shards alike — and rejects the
// scores encoding/json rejects.
func TestMatchesBodyEqualsMarshalIndent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		resp := randomMatchesResponse(r)
		checkMatchesBody(t, &resp)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := matchesResponse{Matrix: &match.MatchMatrix{Cells: []match.MatrixCell{{Score: bad}}}}
		checkMatchesBody(t, &resp)
	}
	// testing/quick fills every field of every wire type, so a field added
	// to them without a matching change to the appender diverges here.
	if err := quick.Check(func(resp matchesResponse) bool {
		want, werr := marshalMatchesOracle(&resp)
		got, gerr := appendMatchesBody(nil, &resp)
		return werr == nil && gerr == nil && bytes.Equal(got, want)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzMatchesBody feeds decoded matrices, plus arbitrary state and shard
// bytes that skip JSON decoding's UTF-8 repair, through the appender and
// the reflective oracle. Seeded from the match-matrix golden file.
func FuzzMatchesBody(f *testing.F) {
	golden, err := os.ReadFile("../match/testdata/matrix_golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, "0123456789abcdef", "", false)
	f.Add([]byte(`{"modules":[],"missing":["x"],"cells":[{"score":1e-7}]}`), "<&>\u2028", "s1\xff", true)
	f.Fuzz(func(t *testing.T, matrix []byte, state, shard string, partial bool) {
		var mm match.MatchMatrix
		if json.Unmarshal(matrix, &mm) != nil {
			return
		}
		resp := matchesResponse{State: state, Matrix: &mm, Partial: partial}
		if shard != "" {
			resp.FailedShards = []string{shard, state}
		}
		checkMatchesBody(t, &resp)
	})
}
