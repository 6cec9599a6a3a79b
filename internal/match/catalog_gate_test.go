package match_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/simulation"
)

// The full-catalog gates: the production match paths checked against
// their oracles over the 252-module experimental universe, in both
// mapping modes. They gate results and allocation counts, not timings,
// so they hold on any host.

// catalogWorld is the shared fixture: the universe, its modules, every
// annotated module's generated set, and those sets interned into one
// symbol table. Built once per test binary.
type catalogWorld struct {
	u     *simulation.Universe
	mods  []*module.Module
	raw   map[string]dataexample.Set
	keyed map[string]*dataexample.KeyedSet
	tab   *dataexample.SymbolTable
}

var (
	catalogOnce sync.Once
	catalog     *catalogWorld
)

func fullCatalog(t *testing.T) *catalogWorld {
	t.Helper()
	catalogOnce.Do(func() {
		u := simulation.NewUniverse()
		w := &catalogWorld{
			u:     u,
			raw:   map[string]dataexample.Set{},
			keyed: map[string]*dataexample.KeyedSet{},
			tab:   dataexample.NewSymbolTable(),
		}
		for _, e := range u.Catalog.Entries {
			w.mods = append(w.mods, e.Module)
			if s, _, err := u.Gen.Generate(e.Module); err == nil && len(s) > 0 {
				w.raw[e.Module.ID] = s
				w.keyed[e.Module.ID] = s.KeyedInterned(w.tab)
			}
		}
		catalog = w
	})
	return catalog
}

// source serves w.keyed as read at call time, so a test that swaps an
// entry sees the swap on the next build.
func (w *catalogWorld) source(id string) (*dataexample.KeyedSet, bool) {
	s, ok := w.keyed[id]
	return s, ok
}

// target is the unavailable module the search gates rank candidates for.
func (w *catalogWorld) target(t *testing.T) (*module.Module, match.Unavailable) {
	t.Helper()
	e, ok := w.u.Catalog.Get("getUniprotRecord")
	if !ok || len(w.raw[e.Module.ID]) == 0 {
		t.Fatal("getUniprotRecord missing or unannotated")
	}
	return e.Module, match.Unavailable{Signature: e.Module, Examples: w.raw[e.Module.ID]}
}

// TestFullCatalogPrunedSearchMatchesExhaustive: the index-pruned
// substitute search returns exactly the exhaustive sequential search's
// result in both modes, prunes only mapping-infeasible candidates, and
// in exact mode prunes every one of them.
func TestFullCatalogPrunedSearchMatchesExhaustive(t *testing.T) {
	w := fullCatalog(t)
	mod, target := w.target(t)
	available := w.u.Registry.Available()
	ix := match.NewCatalogIndex(w.u.Ont, w.mods)
	ctx := context.Background()
	for _, mode := range []match.Mode{match.ModeExact, match.ModeRelaxed} {
		seq := match.NewComparer(w.u.Ont, nil)
		seq.Mode, seq.Workers = mode, 1
		want, err := seq.FindSubstitutesContext(ctx, target, available)
		if err != nil {
			t.Fatalf("%s exhaustive search: %v", mode, err)
		}
		idx := match.NewComparer(w.u.Ont, nil)
		idx.Mode, idx.Index = mode, ix
		got, err := idx.FindSubstitutesContext(ctx, target, available)
		if err != nil {
			t.Fatalf("%s indexed search: %v", mode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s indexed search diverged from the exhaustive search", mode)
		}
		feas := ix.Feasibility(mod, mode)
		infeasible := 0
		for _, m := range w.mods {
			if m.ID == mod.ID {
				continue
			}
			if _, mappable := match.MapParameters(w.u.Ont, mod, m, mode); !mappable {
				infeasible++
			}
		}
		if feas.Pruned > infeasible {
			t.Errorf("%s pruned %d candidates but only %d are mapping-infeasible (unsound)", mode, feas.Pruned, infeasible)
		}
		if mode == match.ModeExact && feas.Pruned != infeasible {
			t.Errorf("exact mode pruned %d of %d mapping-infeasible candidates (incomplete)", feas.Pruned, infeasible)
		}
	}
}

// TestFullCatalogIndexedMatrixMatchesSequential: the indexed matrix at
// the default sharding width produces the plain sequential sweep's cells.
func TestFullCatalogIndexedMatrixMatchesSequential(t *testing.T) {
	w := fullCatalog(t)
	ctx := context.Background()
	plain := match.NewComparer(w.u.Ont, nil)
	plain.Workers = 1
	want, err := plain.MatchMatrixFromKeyedSets(ctx, w.mods, w.source)
	if err != nil {
		t.Fatalf("sequential matrix: %v", err)
	}
	fast := match.NewComparer(w.u.Ont, nil)
	fast.Index = match.NewCatalogIndex(w.u.Ont, w.mods)
	got, err := fast.MatchMatrixFromKeyedSets(ctx, w.mods, w.source)
	if err != nil {
		t.Fatalf("indexed matrix: %v", err)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) ||
		!reflect.DeepEqual(got.Modules, want.Modules) ||
		!reflect.DeepEqual(got.Missing, want.Missing) {
		t.Error("indexed sharded matrix diverged from the sequential sweep")
	}
}

// TestFullCatalogInternedMatchesOracle: interned-ID alignment equals the
// string-keyed oracle on every mappable ordered pair in both modes, with
// one scratch shared throughout (a stale-scratch bug surfaces as a
// divergence too).
func TestFullCatalogInternedMatchesOracle(t *testing.T) {
	w := fullCatalog(t)
	var sc match.CompareScratch
	for _, mode := range []match.Mode{match.ModeExact, match.ModeRelaxed} {
		pairs := 0
		for _, tm := range w.mods {
			for _, cm := range w.mods {
				if tm.ID == cm.ID || w.keyed[tm.ID] == nil || w.keyed[cm.ID] == nil {
					continue
				}
				mapping, ok := match.MapParameters(w.u.Ont, tm, cm, mode)
				if !ok {
					continue
				}
				pairs++
				want := match.CompareExampleSets(tm.ID, cm.ID, w.raw[tm.ID], w.raw[cm.ID], mapping)
				got := match.CompareKeyedSets(&sc, tm.ID, cm.ID, w.keyed[tm.ID], w.keyed[cm.ID], mapping)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s interned alignment diverged from the string-keyed oracle for %s -> %s", mode, tm.ID, cm.ID)
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no mappable pairs in the catalog", mode)
		}
	}
}

// TestFullCatalogKeyedCompareAllocs: the keyed self-comparison through
// a warm scratch allocates nothing.
func TestFullCatalogKeyedCompareAllocs(t *testing.T) {
	w := fullCatalog(t)
	mod, _ := w.target(t)
	self := w.keyed[mod.ID]
	mapping, ok := match.MapParameters(w.u.Ont, mod, mod, match.ModeExact)
	if !ok {
		t.Fatal("self-mapping must exist")
	}
	var sc match.CompareScratch
	allocs := testing.AllocsPerRun(100, func() {
		if r := match.CompareKeyedSets(&sc, mod.ID, mod.ID, self, self, mapping); r.Verdict != match.Equivalent {
			t.Fatalf("self-comparison verdict = %s", r.Verdict)
		}
	})
	if allocs != 0 {
		t.Errorf("keyed scratch comparison allocates %.0f allocs/op, want 0", allocs)
	}
}

// TestFullCatalogWarmMatrixAllocs: a warm indexed matrix build over
// pre-interned sets stays under 2000 allocations.
func TestFullCatalogWarmMatrixAllocs(t *testing.T) {
	w := fullCatalog(t)
	ctx := context.Background()
	cmp := match.NewComparer(w.u.Ont, nil)
	cmp.Index = match.NewCatalogIndex(w.u.Ont, w.mods)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = cmp.MatchMatrixFromKeyedSets(ctx, w.mods, w.source)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs >= 2000 {
		t.Errorf("warm indexed matrix allocates %.0f allocs/op, want < 2000", allocs)
	}
}

// TestFullCatalogIncrementalMatchesFull: across annotation changes,
// catalog shrinkage and index availability flips, the incremental matrix
// equals a from-scratch build over identical inputs.
func TestFullCatalogIncrementalMatchesFull(t *testing.T) {
	full := fullCatalog(t)
	// Work on a private copy of the keyed map: the steps below swap
	// entries, and the other gates share the fixture.
	w := *full
	w.keyed = make(map[string]*dataexample.KeyedSet, len(full.keyed))
	for id, s := range full.keyed {
		w.keyed[id] = s
	}
	mod, _ := w.target(t)
	ctx := context.Background()
	ix := match.NewCatalogIndex(w.u.Ont, w.mods)
	cmp := match.NewComparer(w.u.Ont, nil)
	cmp.Index = ix
	inc := match.NewIncrementalMatrix(cmp)
	step := func(name string, ms []*module.Module) {
		t.Helper()
		got, err := inc.Matrix(ctx, ms, w.source)
		if err != nil {
			t.Fatalf("incremental matrix (%s): %v", name, err)
		}
		want, err := cmp.MatchMatrixFromKeyedSets(ctx, ms, w.source)
		if err != nil {
			t.Fatalf("full matrix (%s): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("incremental matrix diverged from the full build after %q", name)
		}
	}
	step("initial build", w.mods)
	step("no change", w.mods)
	var mutID string
	for _, m := range w.mods {
		if m.ID != mod.ID && w.keyed[m.ID] != nil {
			mutID = m.ID
			break
		}
	}
	if mutID == "" {
		t.Fatal("no mutable fixture module")
	}
	w.keyed[mutID] = w.raw[mutID].KeyedInterned(w.tab)
	step("re-interned set, same content", w.mods)
	if len(w.raw[mutID]) > 1 {
		w.keyed[mutID] = w.raw[mutID][:len(w.raw[mutID])-1].KeyedInterned(w.tab)
		step("changed annotation", w.mods)
	}
	step("removed module", w.mods[1:])
	ix.Remove(mod.ID)
	step("index remove", w.mods)
	ix.Update(mod)
	step("index update", w.mods)
}
