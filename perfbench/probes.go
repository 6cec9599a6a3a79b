package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dexa/internal/compose"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/search"
)

// probe times direct calls of the public functions of store, match,
// search and compose on the workload's own node and seeded inputs. It
// runs after the load and its checks, with nothing else in flight, and
// writes its results into out. Writes it makes are undone before it
// returns.
func probe(w *world, seed int64, out map[string]float64) error {
	ctx := context.Background()
	n := w.nodes[0]
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ids := n.st.IDs()
	if len(ids) == 0 {
		return fmt.Errorf("probe: node %s stores nothing", n.name)
	}
	pick := func() string { return ids[rng.Intn(len(ids))] }
	timed := func(fn func()) time.Duration {
		start := time.Now()
		fn()
		return time.Since(start)
	}

	// store: Get, and Put alternating a module between its set and the
	// set less its last example.
	var get dist
	for i := 0; i < 4000; i++ {
		id := pick()
		get = append(get, float64(timed(func() { n.st.Get(id) }))/1e3)
	}
	out["store.get_us"] = get.median()
	id, set, short := shortenable(n, rng, ids)
	var put dist
	for i := 0; i < 24; i++ {
		s := short
		if i%2 == 1 {
			s = set
		}
		var err error
		put = append(put, ms(timed(func() { _, _, err = n.st.Put(id, s) })))
		if err != nil {
			return fmt.Errorf("probe: put: %w", err)
		}
	}
	out["store.put_ms"] = put.median()

	// match: substitute searches with the target retired, counting the
	// candidates compared and pruned; incremental matrix rebuilds after
	// one module's annotation changed.
	searches0 := counter(n, "dexa_match_searches_total")
	compared0 := counter(n, "dexa_match_comparisons_total")
	pruned0 := counter(n, "dexa_match_pruned_total")
	var find dist
	for i := 0; i < 12; i++ {
		target, _ := w.u.Registry.Get(pick())
		avail := without(w.u.Registry.Available(), target.Module.ID)
		var err error
		find = append(find, ms(timed(func() {
			_, err = n.cmp.FindSubstitutesStoredContext(ctx, n.st, target.Module, avail)
		})))
		if err != nil {
			return fmt.Errorf("probe: substitutes of %s: %w", target.Module.ID, err)
		}
	}
	searches := counter(n, "dexa_match_searches_total") - searches0
	compared := counter(n, "dexa_match_comparisons_total") - compared0
	pruned := counter(n, "dexa_match_pruned_total") - pruned0
	out["match.find_substitutes_ms"] = find.median()
	out["match.candidates_compared_per_search"] = ratio(compared, searches)
	out["match.prune_ratio"] = ratio(pruned, pruned+compared)

	mods := w.u.Registry.Modules()
	im := match.NewIncrementalMatrix(n.cmp)
	if _, err := im.Matrix(ctx, mods, w.keyed(n)); err != nil {
		return err
	}
	var matrix dist
	for i := 0; i < 6; i++ {
		id, set, short := shortenable(n, rng, ids)
		if _, _, err := n.st.Put(id, short); err != nil {
			return err
		}
		var err error
		matrix = append(matrix, ms(timed(func() { _, err = im.Matrix(ctx, mods, w.keyed(n)) })))
		if err != nil {
			return err
		}
		if _, _, err := n.st.Put(id, set); err != nil {
			return err
		}
		if _, err := im.Matrix(ctx, mods, w.keyed(n)); err != nil {
			return err
		}
	}
	out["match.matrix_ms"] = matrix.median()

	// search: each query family, and re-indexing one module.
	perFamily := map[string]dist{}
	queries := searchPool(w.u, rand.New(rand.NewSource(seed)))
	for rep := 0; rep < 3; rep++ {
		for _, q := range queries.all() {
			pq, err := search.ParseQuery(q.q)
			if err != nil {
				return err
			}
			perFamily[q.family] = append(perFamily[q.family], float64(timed(func() { n.search.Search(pq, 20, "") }))/1e3)
		}
	}
	for _, f := range queryFamilies {
		out["search.query_us."+f] = perFamily[f].median()
	}
	var update dist
	for i := 0; i < 200; i++ {
		e, _ := w.u.Registry.Get(pick())
		set, _, _ := n.st.Get(e.Module.ID)
		version, _ := n.st.Version(e.Module.ID)
		update = append(update, float64(timed(func() { n.search.Update(e.Module, set, version) }))/1e3)
	}
	out["search.update_us"] = update.median()

	// compose: the planner the /compose handler builds, over the store.
	planner := &compose.Planner{
		Ont: w.u.Ont, Reg: w.u.Registry, MaxPlans: 3,
		Examples: func(id string) (dataexample.Set, bool) {
			set, _, ok := n.st.Get(id)
			return set, ok
		},
	}
	var plan dist
	var inv0 uint64
	if w.tr != nil {
		inv0 = w.tr.invocations.Load()
	}
	for rep := 0; rep < 2; rep++ {
		for _, r := range composePool(w.u) {
			var err error
			plan = append(plan, ms(timed(func() {
				_, err = planner.Plan(compose.Constraints{In: r.in, Out: r.out, MaxPlans: 3})
			})))
			if err != nil {
				return fmt.Errorf("probe: compose %s -> %s: %w", r.in, r.out, err)
			}
		}
	}
	out["compose.plan_ms"] = plan.median()
	if w.tr != nil {
		out["compose.enactments_per_plan"] = ratio(float64(w.tr.invocations.Load()-inv0), float64(len(plan)))
	}
	return nil
}

// shortenable picks a stored module with at least two examples and
// returns it with its set and the set less its last example.
func shortenable(n *node, rng *rand.Rand, ids []string) (string, dataexample.Set, dataexample.Set) {
	for {
		id := ids[rng.Intn(len(ids))]
		if set, _, ok := n.st.Get(id); ok && len(set) > 1 {
			return id, set, set[:len(set)-1]
		}
	}
}

func without(mods []*module.Module, id string) []*module.Module {
	out := make([]*module.Module, 0, len(mods))
	for _, m := range mods {
		if m.ID != id {
			out = append(out, m)
		}
	}
	return out
}

// counter reads one counter of n's telemetry registry.
func counter(n *node, name string) float64 {
	return float64(n.reg.Counter(name, "").Value())
}
