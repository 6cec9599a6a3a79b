package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"dexa/internal/match"
)

// The answer checks. Each returns nil for a right answer and an error
// naming what is wrong otherwise; every error counts as a failed
// operation.

func wantStatus(a answer, status int) error {
	if a.status != status {
		return fmt.Errorf("status %d, want %d: %.200s", a.status, status, a.body)
	}
	return nil
}

// checkSame wants a 200 whose body is byte-equal to the recorded one.
func checkSame(a answer, want []byte) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	if !bytes.Equal(a.body, want) {
		return fmt.Errorf("body differs from the recorded answer (%d vs %d bytes)", len(a.body), len(want))
	}
	return nil
}

// examplesHash reads the "hash" field of an examples or generate body.
func examplesHash(body []byte) (string, error) {
	var v struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("decoding body: %w", err)
	}
	return v.Hash, nil
}

// checkExamples wants an examples answer whose body hash, ETag and the
// store's hash for the module all agree.
func checkExamples(a answer, stored string) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	hash, err := examplesHash(a.body)
	if err != nil {
		return err
	}
	if etag := a.header.Get("ETag"); hash != stored || etag != `"`+stored+`"` {
		return fmt.Errorf("body hash %s, ETag %s, stored hash %s", hash, etag, stored)
	}
	return nil
}

// checkNotModified wants a 304 revalidating the given ETag.
func checkNotModified(a answer, etag string) error {
	if err := wantStatus(a, http.StatusNotModified); err != nil {
		return err
	}
	if got := a.header.Get("ETag"); got != etag {
		return fmt.Errorf("304 with ETag %s, want %s", got, etag)
	}
	return nil
}

// checkWrite wants a generate answer that changed the stored set to one
// of the module's two known contents, namely want.
func checkWrite(a answer, want string) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	var v struct {
		Hash    string `json:"hash"`
		Changed bool   `json:"changed"`
	}
	if err := json.Unmarshal(a.body, &v); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if !v.Changed || v.Hash != want {
		return fmt.Errorf("write answered changed=%v hash %s, want changed=true hash %s", v.Changed, v.Hash, want)
	}
	return nil
}

// ranked is one entry of a /substitutes ranking.
type ranked struct {
	ID       string  `json:"id"`
	Verdict  string  `json:"verdict"`
	Score    float64 `json:"score"`
	Compared int     `json:"compared"`
	Agreeing int     `json:"agreeing"`
}

func ranking(body []byte) ([]ranked, error) {
	var v struct {
		Substitutes []ranked `json:"substitutes"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decoding ranking: %w", err)
	}
	return v.Substitutes, nil
}

// checkRetiredRanking checks a repair answer: the retired target never
// ranks, and the ranking is the single-retirement oracle's, less at most
// one module another client may hold retired, cut to limit.
func checkRetiredRanking(a answer, target string, oracle []ranked, others map[string]bool, limit int) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	got, err := ranking(a.body)
	if err != nil {
		return err
	}
	for _, r := range got {
		if r.ID == target {
			return fmt.Errorf("retired target %s ranks", target)
		}
	}
	if sameRanking(got, cut(oracle, "", limit)) {
		return nil
	}
	for _, r := range oracle {
		if others[r.ID] && sameRanking(got, cut(oracle, r.ID, limit)) {
			return nil
		}
	}
	return fmt.Errorf("ranking %v matches no oracle variant for %s", ids(got), target)
}

// cut drops skip from the ranking and keeps the first limit entries.
func cut(rs []ranked, skip string, limit int) []ranked {
	out := make([]ranked, 0, limit)
	for _, r := range rs {
		if r.ID != skip && len(out) < limit {
			out = append(out, r)
		}
	}
	return out
}

func sameRanking(a, b []ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ids(rs []ranked) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// The server writes JSON with a two-space indent (serve.writeJSON), so a
// key's indentation tells its depth. The checks below locate the fields
// they compare by that layout and compare bytes, without decoding a body
// inside the measured loop.

// after returns body from the first line that opens key at the given
// indent onward, or nil when there is none.
func after(body []byte, indent int, key string) []byte {
	marker := "\n" + strings.Repeat(" ", indent) + `"` + key + `": `
	if i := bytes.Index(body, []byte(marker)); i >= 0 {
		return body[i:]
	}
	return nil
}

// searchPrefix returns a /search answer up to the fields that name the
// answering index's generation (nextCursor, generation), which differ
// between a cluster and a single node by construction: the query, hits,
// count and total.
func searchPrefix(body []byte) ([]byte, error) {
	rest := after(body, 2, "nextCursor")
	if rest == nil {
		rest = after(body, 2, "generation")
	}
	if rest == nil || !bytes.HasPrefix(body, []byte("{\n  \"query\": ")) {
		return nil, fmt.Errorf("not a search answer: %.200s", body)
	}
	if after(rest, 2, "partial") != nil {
		return nil, fmt.Errorf("partial search answer")
	}
	return body[:len(body)-len(rest)], nil
}

// checkSearchSame wants a search answer equal to the oracle's in query,
// hits, count and total.
func checkSearchSame(a answer, want []byte) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	got, err := searchPrefix(a.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("search answer differs from the oracle's (%d vs %d bytes before its generation)", len(got), len(want))
	}
	return nil
}

// checkSearchShape wants a decodable search answer whose count matches
// its hits.
func checkSearchShape(a answer) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	var v struct {
		Hits  []json.RawMessage `json:"hits"`
		Count int               `json:"count"`
	}
	if err := json.Unmarshal(a.body, &v); err != nil {
		return fmt.Errorf("decoding search: %w", err)
	}
	if v.Count != len(v.Hits) {
		return fmt.Errorf("count %d but %d hits", v.Count, len(v.Hits))
	}
	return nil
}

// matrixOf returns a /matches answer from its "matrix" field to the end:
// everything but the leading "state", which names the answering node's
// catalog state. A partial matrix's flags follow the matrix, so they are
// part of it.
func matrixOf(body []byte) ([]byte, error) {
	if m := after(body, 2, "matrix"); m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("no matrix in the answer: %.200s", body)
}

// checkMatrixSame wants a /matches answer whose matrix is byte-equal to
// want's.
func checkMatrixSame(a answer, want []byte) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	got, err := matrixOf(a.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("matrix differs from the oracle's (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// cellsOf returns the "cells" field of a /matches answer's matrix, up to
// the "stats" that follows it.
func cellsOf(body []byte) ([]byte, error) {
	cells := after(body, 4, "cells")
	stats := after(cells, 4, "stats")
	if stats == nil {
		return nil, fmt.Errorf("no matrix cells in the answer: %.200s", body)
	}
	return cells[:len(cells)-len(stats)], nil
}

// checkMatrixCells wants a /matches answer whose verdict cells equal
// want (availability flips may move the prune statistics, never a cell).
func checkMatrixCells(a answer, want []byte) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	got, err := cellsOf(a.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("matrix cells differ from the set-up cells (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// checkMatrixFresh wants the served matrix to equal a fresh full build.
func checkMatrixFresh(a answer, fresh *match.MatchMatrix) error {
	if err := wantStatus(a, http.StatusOK); err != nil {
		return err
	}
	var v struct {
		Matrix *match.MatchMatrix `json:"matrix"`
	}
	if err := json.Unmarshal(a.body, &v); err != nil {
		return fmt.Errorf("decoding matches: %w", err)
	}
	got, err := json.Marshal(v.Matrix)
	if err != nil {
		return err
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served matrix differs from a fresh build (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// checkReplica wants the follower to hold exactly the leader's hashes.
func checkReplica(leader, follower map[string]string) []error {
	var errs []error
	keys := make([]string, 0, len(leader))
	for id := range leader {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	for _, id := range keys {
		if follower[id] != leader[id] {
			errs = append(errs, fmt.Errorf("follower holds %s at %q, leader at %q", id, follower[id], leader[id]))
		}
	}
	for id := range follower {
		if _, ok := leader[id]; !ok {
			errs = append(errs, fmt.Errorf("follower holds %s, leader does not", id))
		}
	}
	return errs
}
