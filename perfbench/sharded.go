package main

import (
	"fmt"
	"math/rand"
	"net/http"
)

// sharded is a read mix on a static two-shard cluster holding the same
// catalog: examples (answered 307 by the shard that does not own the
// module), /substitutes, /search and /matches, the last three
// scatter-gathered across both shards. Every answer must equal a
// single-node oracle's.
type sharded struct {
	ids     []string
	queries queryPool

	examples map[string][]byte // path -> oracle body
	subs     map[string][]byte // path -> oracle body
	search   map[string][]byte // path -> oracle answer before its generation
	matrix   []byte            // oracle /matches from its matrix on
}

var shardNames = []string{"s1", "s2"}

func (s *sharded) plan(w *world, seed int64, clients int) {
	rng := rand.New(rand.NewSource(seed))
	s.ids = w.u.Registry.IDs()
	s.queries = searchPool(w.u, rng)
}

func (s *sharded) setup(w *world, seed int64, clients int) error {
	if err := w.sharded(shardNames); err != nil {
		return err
	}
	if err := w.annotate(clients); err != nil {
		return err
	}
	s.plan(w, seed, clients)
	s.examples, s.subs, s.search = map[string][]byte{}, map[string][]byte{}, map[string][]byte{}
	base := w.oracle.url + "/api"
	for _, id := range s.ids {
		body, _, err := w.do(http.MethodGet, base+examplesPath(id))
		if err != nil {
			return err
		}
		s.examples[examplesPath(id)] = body
		p := substitutesPath(id) + "?limit=5"
		if s.subs[p], _, err = w.do(http.MethodGet, base+p); err != nil {
			return err
		}
	}
	for _, q := range s.queries.all() {
		body, _, err := w.do(http.MethodGet, base+q.path())
		if err != nil {
			return err
		}
		if s.search[q.path()], err = searchPrefix(body); err != nil {
			return fmt.Errorf("oracle search: %w", err)
		}
	}
	body, _, err := w.do(http.MethodGet, base+"/matches")
	if err != nil {
		return err
	}
	if s.matrix, err = matrixOf(body); err != nil {
		return err
	}
	// Warm both shards' router memo and connections.
	for _, n := range w.nodes {
		if _, _, err := w.do(http.MethodGet, n.url+"/api/matches"); err != nil {
			return err
		}
	}
	return nil
}

// next draws from the kinds of dexa-load's default read mix that a
// cluster scatters or redirects (examples=6,search=3,substitutes=2,matches=1).
func (s *sharded) next(rng *rand.Rand, c int) op {
	shard := rng.Intn(len(shardNames))
	id := s.ids[rng.Intn(len(s.ids))]
	switch r := rng.Intn(12); {
	case r < 6:
		return op{kind: kindLookup, path: examplesPath(id), module: id, shard: shard}
	case r < 9:
		return op{kind: kindSearch, path: s.queries.draw(rng).path(), shard: shard}
	case r < 11:
		return op{kind: kindSubstitutes, path: substitutesPath(id) + "?limit=5", module: id, shard: shard}
	default:
		return op{kind: kindMatches, path: "/matches", shard: shard}
	}
}

func (s *sharded) exec(w *world, c *client, o op) {
	url := w.nodes[o.shard].url + "/api" + o.path
	switch o.kind {
	case kindLookup:
		c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkSame(a, s.examples[o.path]) })
	case kindSubstitutes:
		c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkSame(a, s.subs[o.path]) })
	case kindSearch:
		c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkSearchSame(a, s.search[o.path]) })
	case kindMatches:
		c.noteMatches(c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkMatrixSame(a, s.matrix) }))
	}
}

func (s *sharded) finish(w *world) []error { return nil }
