package match

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dexa/internal/dataexample"
	"dexa/internal/module"
)

// TestInternedComparisonMatchesOracle: over random catalogs whose sets
// include empty annotations and duplicate-input-key conflicts, the
// interned-ID alignment — shared table, private tables, and string-only
// keying, all through one reused scratch — must be byte-identical to
// the string-keyed oracle for every mappable ordered pair in both
// modes.
func TestInternedComparisonMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed + 900))
		f := newFixture(t)
		n := 5 + r.Intn(5)
		mods := make([]*module.Module, n)
		sets := make([]dataexample.Set, n)
		shared := dataexample.NewSymbolTable()
		sharedKeyed := make([]*dataexample.KeyedSet, n)
		privateKeyed := make([]*dataexample.KeyedSet, n)
		stringKeyed := make([]*dataexample.KeyedSet, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
			set, _, err := f.gen.Generate(mods[i])
			if err != nil {
				t.Fatalf("seed %d: generating: %v", seed, err)
			}
			switch r.Intn(5) {
			case 0: // empty annotation: every alignment is Incomparable
				set = nil
			case 1: // duplicate input key, conflicting outputs: first wins
				if len(set) > 1 {
					dup := set[0]
					dup.Outputs = set[1].Outputs
					set = append(set, dup)
				}
			}
			sets[i] = set
			sharedKeyed[i] = set.KeyedInterned(shared)
			privateKeyed[i] = set.KeyedInterned(dataexample.NewSymbolTable())
			stringKeyed[i] = set.Keyed()
		}
		var sc CompareScratch
		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			for i, tm := range mods {
				for j, cm := range mods {
					if i == j {
						continue
					}
					mapping, ok := MapParameters(f.ont, tm, cm, mode)
					if !ok {
						continue
					}
					want := compareSets(tm.ID, cm.ID, sets[i], sets[j], mapping)
					for _, v := range []struct {
						name string
						t, c *dataexample.KeyedSet
					}{
						{"shared-table", sharedKeyed[i], sharedKeyed[j]},
						{"private-tables", privateKeyed[i], privateKeyed[j]},
						{"string-only", stringKeyed[i], stringKeyed[j]},
					} {
						got := CompareKeyedSets(&sc, tm.ID, cm.ID, v.t, v.c, mapping)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("seed %d/%s/%s: %s -> %s diverged from oracle\n got %+v\nwant %+v",
								seed, mode, v.name, tm.ID, cm.ID, got, want)
						}
					}
					// A nil scratch must agree too and own its map.
					got := CompareKeyedSets(nil, tm.ID, cm.ID, sharedKeyed[i], sharedKeyed[j], mapping)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d/%s: CompareKeyedSets %s -> %s diverged from oracle", seed, mode, tm.ID, cm.ID)
					}
				}
			}
		}
	}
}

// TestCatalogIndexPairAgreesWithRow pins the contract PrunesPair is
// built on: the single-pair query must return exactly the verdict the
// row-bitset Feasibility query gives that candidate — for indexed and
// unindexed targets and candidates alike, in both modes.
func TestCatalogIndexPairAgreesWithRow(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed + 500))
		f := newFixture(t)
		n := 6 + r.Intn(8)
		mods := make([]*module.Module, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
		}
		ix := NewCatalogIndex(f.ont, mods)
		outsider := randomModule(r, "outsider") // never indexed
		all := append(append([]*module.Module{}, mods...), outsider)
		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			for _, target := range all {
				feas := ix.Feasibility(target, mode)
				for _, cand := range all {
					if cand.ID == target.ID {
						continue
					}
					row := feas.Prunes(cand.ID)
					pair := ix.PrunesPair(target, cand, mode)
					if row != pair {
						t.Errorf("seed %d/%s: %s -> %s row prune %v, pair prune %v",
							seed, mode, target.ID, cand.ID, row, pair)
					}
				}
			}
		}
	}
}

// TestIncrementalMatrixEqualsFull drives random mutation sequences —
// annotation changes, content-identical re-interning, annotations
// vanishing and returning, modules leaving and rejoining the universe,
// index availability flips, explicit invalidation, and no-op steps —
// and demands the incremental matrix stay byte-identical to a fresh
// full build after every one.
func TestIncrementalMatrixEqualsFull(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed + 100))
		f := newFixture(t)
		n := 5 + r.Intn(5)
		all := make([]*module.Module, n)
		tab := dataexample.NewSymbolTable()
		raw := make(map[string]dataexample.Set, n)
		keyed := make(map[string]*dataexample.KeyedSet, n)
		for i := range all {
			all[i] = randomModule(r, fmt.Sprintf("m%02d", i))
			set, _, err := f.gen.Generate(all[i])
			if err != nil {
				t.Fatalf("seed %d: generating: %v", seed, err)
			}
			raw[all[i].ID] = set
			keyed[all[i].ID] = set.KeyedInterned(tab)
		}
		src := func(id string) (*dataexample.KeyedSet, bool) {
			s, ok := keyed[id]
			return s, ok
		}
		cmp := NewComparer(f.ont, nil)
		cmp.Mode = []Mode{ModeExact, ModeRelaxed}[r.Intn(2)]
		cmp.Workers = r.Intn(3) // sequential, width 1, width 2
		cmp.Index = NewCatalogIndex(f.ont, all)
		inc := NewIncrementalMatrix(cmp)
		universe := append([]*module.Module{}, all...)
		ctx := context.Background()
		check := func(step string) {
			t.Helper()
			got, err := inc.Matrix(ctx, universe, src)
			if err != nil {
				t.Fatalf("seed %d %s: incremental: %v", seed, step, err)
			}
			want, err := cmp.MatchMatrixFromKeyedSets(ctx, universe, src)
			if err != nil {
				t.Fatalf("seed %d %s: full: %v", seed, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %s: incremental matrix diverged from the full build\n got %+v\nwant %+v",
					seed, step, got, want)
			}
		}
		check("initial build")
		for step := 0; step < 14; step++ {
			pick := all[r.Intn(n)]
			op := r.Intn(7)
			switch op {
			case 0: // annotation content change (shrink, or restore the original)
				if set := raw[pick.ID]; keyed[pick.ID] != nil && len(set) > 1 && keyed[pick.ID].Len() == len(set) {
					keyed[pick.ID] = set[:len(set)-1].KeyedInterned(tab)
				} else {
					keyed[pick.ID] = raw[pick.ID].KeyedInterned(tab)
				}
			case 1: // fresh pointer, identical content: recompute, same cells
				if keyed[pick.ID] != nil {
					keyed[pick.ID] = keyed[pick.ID].Examples().KeyedInterned(tab)
				}
			case 2: // annotation vanishes / returns
				if keyed[pick.ID] != nil {
					delete(keyed, pick.ID)
				} else {
					keyed[pick.ID] = raw[pick.ID].KeyedInterned(tab)
				}
			case 3: // module leaves / rejoins the universe
				at := -1
				for i, m := range universe {
					if m == pick {
						at = i
						break
					}
				}
				if at >= 0 && len(universe) > 2 {
					universe = append(universe[:at:at], universe[at+1:]...)
				} else if at < 0 {
					universe = append(universe, pick)
				}
			case 4: // index availability flip
				if cmp.Index.Contains(pick.ID) {
					cmp.Index.Remove(pick.ID)
				} else {
					cmp.Index.Update(pick)
				}
			case 5:
				inc.Invalidate(pick.ID)
			case 6: // nothing changed: the cached grid serves as-is
			}
			check(fmt.Sprintf("step %d (op %d on %s)", step, op, pick.ID))
		}
		inc.InvalidateAll()
		check("invalidate-all rebuild")
	}
}
