package main

import (
	"fmt"
	"math/rand"
	"net/http"
)

// repair is the paper's Fig.-8 workflow repair. Each operation retires
// one owned module (Registry.SetAvailable(id, false), as the lifecycle
// manager does to a dead provider), asks for its substitutes — cold,
// because the flip bumps the index generation — and re-admits it. One
// operation in eight fetches /matches instead.
type repair struct {
	n      *node
	owned  [][]string
	others []map[string]bool   // client -> modules other clients own
	oracle map[string][]ranked // target -> ranking with only it retired
	cells  []byte              // the matrix cells at set-up, as served
}

func (r *repair) plan(w *world, seed int64, clients int) {
	r.owned = split(w.u.Registry.IDs(), rand.New(rand.NewSource(seed)), clients)
	r.others = make([]map[string]bool, clients)
	for c := range r.others {
		r.others[c] = map[string]bool{}
		for o, ids := range r.owned {
			for _, id := range ids {
				if o != c {
					r.others[c][id] = true
				}
			}
		}
	}
}

func (r *repair) setup(w *world, seed int64, clients int) error {
	n, err := w.single(false)
	if err != nil {
		return err
	}
	r.n = n
	if err := w.annotate(clients); err != nil {
		return err
	}
	r.plan(w, seed, clients)
	r.oracle = map[string][]ranked{}
	for _, id := range w.u.Registry.IDs() {
		if err := w.u.Registry.SetAvailable(id, false); err != nil {
			return err
		}
		body, _, err := w.do(http.MethodGet, n.url+"/api"+substitutesPath(id))
		if err2 := w.u.Registry.SetAvailable(id, true); err == nil {
			err = err2
		}
		if err != nil {
			return err
		}
		if r.oracle[id], err = ranking(body); err != nil {
			return err
		}
	}
	body, _, err := w.do(http.MethodGet, n.url+"/api/matches")
	if err != nil {
		return err
	}
	r.cells, err = cellsOf(body)
	return err
}

func (r *repair) next(rng *rand.Rand, c int) op {
	if rng.Intn(8) == 0 {
		return op{kind: kindMatches, path: "/matches"}
	}
	owned := r.owned[c]
	id := owned[rng.Intn(len(owned))]
	return op{kind: kindSubstitutes, path: substitutesPath(id) + "?limit=5", module: id}
}

func (r *repair) exec(w *world, c *client, o op) {
	url := r.n.url + "/api" + o.path
	if o.kind == kindMatches {
		c.noteMatches(c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkMatrixCells(a, r.cells) }))
		return
	}
	if err := w.u.Registry.SetAvailable(o.module, false); err != nil {
		c.fail(err)
		return
	}
	c.request(o.kind, http.MethodGet, url, nil, func(a answer) error {
		return checkRetiredRanking(a, o.module, r.oracle[o.module], r.others[c.id], 5)
	})
	if err := w.u.Registry.SetAvailable(o.module, true); err != nil {
		c.fail(err)
	}
}

func (r *repair) finish(w *world) []error {
	if ids := w.u.Registry.UnavailableIDs(); len(ids) > 0 {
		return []error{fmt.Errorf("modules left retired: %v", ids)}
	}
	return nil
}
