package main

import (
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"dexa/internal/simulation"
)

// Request pools, drawn from the catalog with the workload seed. The same
// universe and seed always give the same pools.

// query is one /search query and its family.
type query struct {
	family string // keyword, concept or behaves
	q      string
}

func (q query) path() string { return "/search?q=" + url.QueryEscape(q.q) }

var queryFamilies = []string{"keyword", "concept", "behaves"}

// queryPool holds the /search queries per family.
type queryPool map[string][]query

// searchPool builds the repository searches scientists run (Davidson et
// al.), over the whole catalog so a pool's cost does not hinge on the
// seed: per module two consecutive description keywords (the seed picks
// which two) and the modules that behave like it, and every concept a
// module produces (expanded through subsumption).
func searchPool(u *simulation.Universe, rng *rand.Rand) queryPool {
	pool := queryPool{}
	seen := map[string]bool{}
	add := func(family, q string) {
		if q != "" && !seen[q] {
			seen[q] = true
			pool[family] = append(pool[family], query{family, q})
		}
	}
	for _, m := range u.Registry.Modules() {
		var words []string
		for _, w := range strings.Fields(m.Description) {
			if len(w) >= 4 {
				words = append(words, strings.ToLower(w))
			}
		}
		if len(words) >= 2 {
			j := rng.Intn(len(words) - 1)
			add("keyword", words[j]+" "+words[j+1])
		}
		add("concept", "concept:"+m.Outputs[0].Semantic)
		add("behaves", "behaves:"+m.ID)
	}
	return pool
}

// draw picks a family, then a query of it.
func (p queryPool) draw(rng *rand.Rand) query {
	qs := p[queryFamilies[rng.Intn(len(queryFamilies))]]
	return qs[rng.Intn(len(qs))]
}

// all lists every query, family by family.
func (p queryPool) all() []query {
	var out []query
	for _, f := range queryFamilies {
		out = append(out, p[f]...)
	}
	return out
}

// composeReq is one workflow-synthesis request.
type composeReq struct{ in, out string }

func (r composeReq) path() string {
	return "/compose?in=" + url.QueryEscape(r.in) + "&out=" + url.QueryEscape(r.out) + "&limit=3"
}

// composePool lists every workflow-synthesis request the catalog's
// signatures suggest (Lamprecht et al.: compose from an input concept to
// an output concept): one per distinct primary input and output concept
// pair, each with at least the one-step plan through its module.
func composePool(u *simulation.Universe) []composeReq {
	var out []composeReq
	seen := map[composeReq]bool{}
	for _, m := range u.Registry.Modules() {
		r := composeReq{m.Inputs[0].Semantic, m.Outputs[0].Semantic}
		if r.in != "" && r.out != "" && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// split shuffles ids with rng and deals them round-robin to clients, so
// each client owns a disjoint share.
func split(ids []string, rng *rand.Rand, clients int) [][]string {
	shuffled := append([]string(nil), ids...)
	sort.Strings(shuffled)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	out := make([][]string, clients)
	for i, id := range shuffled {
		out[i%clients] = append(out[i%clients], id)
	}
	return out
}

func examplesPath(id string) string    { return "/modules/" + url.PathEscape(id) + "/examples" }
func modulePath(id string) string      { return "/modules/" + url.PathEscape(id) }
func substitutesPath(id string) string { return "/modules/" + url.PathEscape(id) + "/substitutes" }
func generatePath(id string) string    { return "/modules/" + url.PathEscape(id) + "/generate" }
