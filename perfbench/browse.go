package main

import (
	"fmt"
	"math/rand"
	"net/http"
)

// browse is a read-only scientist session on a fully annotated catalog:
// stored examples (a third revalidated with an ETag seen earlier),
// module info, repository search, substitute search, workflow synthesis
// and the all-pairs matrix. Nothing changes during the run, so every
// answer must equal the one recorded at set-up.
type browse struct {
	n       *node
	ids     []string
	queries queryPool
	compose []composeReq

	answers map[string][]byte // path -> recorded body
	etags   map[string]string // examples path -> recorded ETag
	hashes  map[string]string // module -> stored hash at set-up
}

func (b *browse) plan(w *world, seed int64, clients int) {
	rng := rand.New(rand.NewSource(seed))
	b.ids = w.u.Registry.IDs()
	b.queries = searchPool(w.u, rng)
	b.compose = composePool(w.u)
}

func (b *browse) setup(w *world, seed int64, clients int) error {
	n, err := w.single(false)
	if err != nil {
		return err
	}
	b.n = n
	if err := w.annotate(clients); err != nil {
		return err
	}
	b.plan(w, seed, clients)
	b.answers, b.etags, b.hashes = map[string][]byte{}, map[string]string{}, map[string]string{}
	record := func(path string) error {
		body, etag, err := w.do(http.MethodGet, n.url+"/api"+path)
		if err != nil {
			return err
		}
		b.answers[path] = body
		b.etags[path] = etag
		return nil
	}
	for _, id := range b.ids {
		for _, p := range []string{examplesPath(id), modulePath(id), substitutesPath(id) + "?limit=5"} {
			if err := record(p); err != nil {
				return err
			}
		}
		stored, _ := n.st.Hash(id)
		p := examplesPath(id)
		if err := checkExamples(answer{status: http.StatusOK, body: b.answers[p], header: http.Header{"Etag": {b.etags[p]}}}, stored); err != nil {
			return fmt.Errorf("set-up answer for %s: %w", p, err)
		}
		b.hashes[id] = stored
	}
	for _, q := range b.queries.all() {
		if err := record(q.path()); err != nil {
			return err
		}
	}
	for _, r := range b.compose {
		if err := record(r.path()); err != nil {
			return err
		}
	}
	if err := record("/matches"); err != nil {
		return err
	}
	return nil
}

// next draws from dexa-load's default read mix
// (examples=6,search=3,substitutes=2,matches=1,catalog=1,stats=1,compose=1),
// the repository's one stated read mix; no traffic log backs its weights.
// Module info takes the catalog's weight, and /stats, an operator's read,
// is left out.
func (b *browse) next(rng *rand.Rand, c int) op {
	id := b.ids[rng.Intn(len(b.ids))]
	switch r := rng.Intn(14); {
	case r < 6:
		return op{kind: kindLookup, path: examplesPath(id), module: id, cond: rng.Intn(3) == 0}
	case r < 7:
		return op{kind: kindLookup, path: modulePath(id), module: id}
	case r < 10:
		return op{kind: kindSearch, path: b.queries.draw(rng).path()}
	case r < 12:
		return op{kind: kindSubstitutes, path: substitutesPath(id) + "?limit=5", module: id}
	case r < 13:
		return op{kind: kindCompose, path: b.compose[rng.Intn(len(b.compose))].path()}
	default:
		return op{kind: kindMatches, path: "/matches"}
	}
}

func (b *browse) exec(w *world, c *client, o op) {
	url := b.n.url + "/api" + o.path
	if o.path == examplesPath(o.module) {
		seen := c.etags[o.path]
		if o.cond && seen != "" {
			c.request(o.kind, http.MethodGet, url, map[string]string{"If-None-Match": seen}, func(a answer) error {
				return checkNotModified(a, seen)
			})
			return
		}
		c.request(o.kind, http.MethodGet, url, nil, func(a answer) error {
			if err := checkSame(a, b.answers[o.path]); err != nil {
				return err
			}
			stored, _ := b.n.st.Hash(o.module)
			etag := a.header.Get("ETag")
			if etag != b.etags[o.path] || stored != b.hashes[o.module] {
				return fmt.Errorf("ETag %s and stored hash %s, want %s and %s", etag, stored, b.etags[o.path], b.hashes[o.module])
			}
			c.etags[o.path] = etag
			return nil
		})
		return
	}
	a := c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkSame(a, b.answers[o.path]) })
	if o.kind == kindMatches {
		c.noteMatches(a)
	}
}

func (b *browse) finish(w *world) []error { return nil }
