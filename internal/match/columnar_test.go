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

// TestCatalogIndexPairAgreesWithRow pins the contract the incremental
// matrix relies on: snapshotPrune, the per-pair verdict an incremental
// sweep prunes with, must equal the row-bitset Feasibility verdict a
// full build prunes with — both read through matrixView, for indexed
// and unindexed targets and candidates alike (including one removed
// from the index), in both modes.
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
		ix.Remove(mods[r.Intn(n)].ID)
		outsider := randomModule(r, "outsider") // never indexed
		all := append(append([]*module.Module{}, mods...), outsider)
		in := resolveMatrixInputs(all, func(string) (*dataexample.KeyedSet, bool) { return nil, true })
		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			snaps, feas := ix.matrixView(&in, mode, true)
			prune := ix.snapshotPrune(&in, snaps, mode)
			for ti := range in.ids {
				for ci := range in.ids {
					if ci == ti {
						continue
					}
					row := feas[ti].Prunes(in.ids[ci])
					pair := prune(ti, ci)
					if row != pair {
						t.Errorf("seed %d/%s: %s -> %s row prune %v, pair prune %v",
							seed, mode, in.ids[ti], in.ids[ci], row, pair)
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

// TestIncrementalMatrixConcurrentIndexFlips races index availability
// flips (CatalogIndex.Update/Remove) against incremental rebuilds. Cells
// computed under one index state must never be recorded as computed
// under another: whatever interleaving the flips land in, once they
// stop, one more rebuild must equal a fresh full build.
func TestIncrementalMatrixConcurrentIndexFlips(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed + 300))
		f := newFixture(t)
		n := 8 + r.Intn(4)
		mods := make([]*module.Module, n)
		tab := dataexample.NewSymbolTable()
		keyed := make(map[string]*dataexample.KeyedSet, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
			set, _, err := f.gen.Generate(mods[i])
			if err != nil {
				t.Fatalf("seed %d: generating: %v", seed, err)
			}
			keyed[mods[i].ID] = set.KeyedInterned(tab)
		}
		src := func(id string) (*dataexample.KeyedSet, bool) {
			s, ok := keyed[id]
			return s, ok
		}
		cmp := NewComparer(f.ont, nil)
		cmp.Mode = []Mode{ModeExact, ModeRelaxed}[seed%2]
		cmp.Workers = 1 + int(seed/2) // sequential, then two workers
		cmp.Index = NewCatalogIndex(f.ont, mods)
		inc := NewIncrementalMatrix(cmp)
		ctx := context.Background()
		for round := 0; round < 20; round++ {
			flipsDone := make(chan struct{})
			go func(fr *rand.Rand) {
				defer close(flipsDone)
				for i := 0; i < 100; i++ {
					m := mods[fr.Intn(n)]
					if cmp.Index.Contains(m.ID) {
						cmp.Index.Remove(m.ID)
					} else {
						cmp.Index.Update(m)
					}
				}
			}(rand.New(rand.NewSource(r.Int63())))
			for running := true; running; {
				select {
				case <-flipsDone:
					running = false
				default:
				}
				if _, err := inc.Matrix(ctx, mods, src); err != nil {
					t.Fatalf("seed %d round %d: incremental: %v", seed, round, err)
				}
			}
			got, err := inc.Matrix(ctx, mods, src)
			if err != nil {
				t.Fatalf("seed %d round %d: incremental: %v", seed, round, err)
			}
			want, err := cmp.MatchMatrixFromKeyedSets(ctx, mods, src)
			if err != nil {
				t.Fatalf("seed %d round %d: full: %v", seed, round, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: incremental matrix kept cells computed under a superseded index state\n got %+v\nwant %+v",
					seed, round, got.Stats, want.Stats)
			}
		}
	}
}
