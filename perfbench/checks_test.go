package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"dexa/internal/match"
)

func ok200(body string) answer {
	return answer{status: http.StatusOK, body: []byte(body), header: http.Header{}}
}

// served encodes v as the server does: two-space indent, trailing
// newline.
func served(v any) answer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return ok200(buf.String())
}

// matchesBody and searchBody have the field order of the server's
// /matches and /search answers.
type matchesBody struct {
	State   string            `json:"state"`
	Matrix  match.MatchMatrix `json:"matrix"`
	Partial bool              `json:"partial,omitempty"`
}

type searchBody struct {
	Query      string              `json:"query"`
	Hits       []map[string]string `json:"hits"`
	Count      int                 `json:"count"`
	Total      int                 `json:"total"`
	NextCursor string              `json:"nextCursor,omitempty"`
	Generation uint64              `json:"generation"`
	Partial    bool                `json:"partial,omitempty"`
}

func withETag(a answer, etag string) answer {
	a.header.Set("ETag", etag)
	return a
}

// Each check accepts the right answer and rejects every planted wrong
// one.
func TestChecksRejectPlantedAnswers(t *testing.T) {
	type tc struct {
		name  string
		err   error
		wrong bool
	}
	oracle := []ranked{{ID: "a", Verdict: "equivalent", Score: 1}, {ID: "b", Verdict: "overlapping", Score: 0.5}, {ID: "c", Verdict: "overlapping", Score: 0.4}}
	others := map[string]bool{"b": true}
	rankingBody := func(ids ...string) answer {
		var rs []ranked
		for _, id := range ids {
			for _, r := range oracle {
				if r.ID == id {
					rs = append(rs, r)
				}
			}
			if id == "t" {
				rs = append(rs, ranked{ID: "t", Verdict: "equivalent", Score: 1})
			}
		}
		b, _ := json.Marshal(map[string]any{"substitutes": rs})
		return ok200(string(b))
	}
	cells := []match.MatrixCell{{Target: "a", Candidate: "b", Verdict: "equivalent", Score: 1, Compared: 3, Agreeing: 3}}
	matrixBody := func(state string, c []match.MatrixCell, pruned int, partial bool) answer {
		return served(matchesBody{State: state, Matrix: match.MatchMatrix{Mode: "exact", Cells: c, Stats: match.MatrixStats{Pruned: pruned}}, Partial: partial})
	}
	fresh := &match.MatchMatrix{Mode: "exact", Cells: cells}
	changed := []match.MatrixCell{cells[0]}
	changed[0].Verdict = "overlapping"
	wantMatrix, _ := matrixOf(matrixBody("oracle", cells, 0, false).body)
	wantCells, _ := cellsOf(matrixBody("s", cells, 0, false).body)
	hitA := []map[string]string{{"id": "a"}}
	searchAnswer := func(hits []map[string]string, total int, gen uint64, partial bool) answer {
		return served(searchBody{Query: "q", Hits: hits, Count: len(hits), Total: total, NextCursor: fmt.Sprint("c", gen), Generation: gen, Partial: partial})
	}
	searchWant, _ := searchPrefix(served(searchBody{Query: "q", Hits: hitA, Count: 1, Total: 1, Generation: 4}).body)

	cases := []tc{
		{"same", checkSame(ok200("x"), []byte("x")), false},
		{"same/body", checkSame(ok200("y"), []byte("x")), true},
		{"same/status", checkSame(answer{status: 502, body: []byte("x")}, []byte("x")), true},

		{"examples", checkExamples(withETag(ok200(`{"hash":"h1"}`), `"h1"`), "h1"), false},
		{"examples/body-hash", checkExamples(withETag(ok200(`{"hash":"h2"}`), `"h1"`), "h1"), true},
		{"examples/etag", checkExamples(withETag(ok200(`{"hash":"h1"}`), `"h2"`), "h1"), true},
		{"examples/stored", checkExamples(withETag(ok200(`{"hash":"h1"}`), `"h1"`), "h2"), true},

		{"not-modified", checkNotModified(withETag(answer{status: 304, header: http.Header{}}, `"h"`), `"h"`), false},
		{"not-modified/full-body", checkNotModified(withETag(ok200(`{}`), `"h"`), `"h"`), true},
		{"not-modified/etag", checkNotModified(withETag(answer{status: 304, header: http.Header{}}, `"g"`), `"h"`), true},

		{"write", checkWrite(ok200(`{"hash":"d","changed":true}`), "d"), false},
		{"write/unchanged", checkWrite(ok200(`{"hash":"d","changed":false}`), "d"), true},
		{"write/hash", checkWrite(ok200(`{"hash":"o","changed":true}`), "d"), true},

		{"ranking", checkRetiredRanking(rankingBody("a", "b"), "t", oracle, others, 2), false},
		{"ranking/other-retired", checkRetiredRanking(rankingBody("a", "c"), "t", oracle, others, 2), false},
		{"ranking/target-ranks", checkRetiredRanking(rankingBody("t", "a"), "t", oracle, others, 2), true},
		{"ranking/missing-unheld", checkRetiredRanking(rankingBody("b", "c"), "t", oracle, others, 2), true},
		{"ranking/order", checkRetiredRanking(rankingBody("b", "a"), "t", oracle, others, 2), true},
		{"ranking/short", checkRetiredRanking(rankingBody("a"), "t", oracle, others, 2), true},

		{"search", checkSearchSame(searchAnswer(hitA, 1, 9, false), searchWant), false},
		{"search/hits", checkSearchSame(searchAnswer([]map[string]string{{"id": "b"}}, 1, 4, false), searchWant), true},
		{"search/total", checkSearchSame(searchAnswer(hitA, 2, 4, false), searchWant), true},
		{"search/partial", checkSearchSame(searchAnswer(hitA, 1, 4, true), searchWant), true},
		{"search/not-search", checkSearchSame(ok200(`{"error":"x"}`), searchWant), true},
		{"search-shape", checkSearchShape(ok200(`{"hits":[{"id":"a"}],"count":1}`)), false},
		{"search-shape/count", checkSearchShape(ok200(`{"hits":[{"id":"a"}],"count":2}`)), true},

		{"matrix", checkMatrixSame(matrixBody("cluster", cells, 0, false), wantMatrix), false},
		{"matrix/cell", checkMatrixSame(matrixBody("cluster", changed, 0, false), wantMatrix), true},
		{"matrix/partial", checkMatrixSame(matrixBody("cluster", cells, 0, true), wantMatrix), true},
		{"cells", checkMatrixCells(matrixBody("t", cells, 7, false), wantCells), false},
		{"cells/verdict", checkMatrixCells(matrixBody("t", changed, 0, false), wantCells), true},
		{"cells/missing", checkMatrixCells(matrixBody("t", nil, 0, false), wantCells), true},
		{"cells/not-matrix", checkMatrixCells(ok200(`{"error":"x"}`), wantCells), true},
		{"fresh", checkMatrixFresh(matrixBody("s", cells, 0, false), fresh), false},
		{"fresh/stale", checkMatrixFresh(matrixBody("s", changed, 0, false), fresh), true},
	}
	for _, c := range cases {
		if got := c.err != nil; got != c.wrong {
			t.Errorf("%s: check error %v, want error %v", c.name, c.err, c.wrong)
		}
	}

	leader := map[string]string{"a": "h1", "b": "h2"}
	if errs := checkReplica(leader, map[string]string{"a": "h1", "b": "h2"}); len(errs) != 0 {
		t.Errorf("replica: %v", errs)
	}
	for name, follower := range map[string]map[string]string{
		"stale":   {"a": "h1", "b": "h0"},
		"missing": {"a": "h1"},
		"extra":   {"a": "h1", "b": "h2", "c": "h3"},
	} {
		if errs := checkReplica(leader, follower); len(errs) == 0 {
			t.Errorf("replica/%s: accepted", name)
		}
	}
}
