package match

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dexa/internal/module"
	"dexa/internal/typesys"
)

// randomModule builds a module with a random signature over the fixture
// ontology and a deterministic behaviour parameterised by a small salt,
// so random catalogs contain equivalent, overlapping, disjoint and
// incomparable pairs in varying proportions.
func randomModule(r *rand.Rand, id string) *module.Module {
	concepts := []string{"Seq", "DNA", "RNA", "Prot", "Acc"}
	nIn := 1 + r.Intn(2)
	nOut := 1 + r.Intn(2)
	m := &module.Module{ID: id, Name: id}
	for i := 0; i < nIn; i++ {
		m.Inputs = append(m.Inputs, module.Parameter{
			Name: fmt.Sprintf("p%d", i), Struct: typesys.StringType,
			Semantic: concepts[r.Intn(len(concepts))],
		})
	}
	if r.Intn(4) == 0 { // occasional optional input with a default
		m.Inputs = append(m.Inputs, module.Parameter{
			Name: "opt", Struct: typesys.StringType,
			Semantic: concepts[r.Intn(len(concepts))],
			Optional: true, Default: typesys.Str("dflt"),
		})
	}
	outConcepts := make([]string, nOut)
	for i := 0; i < nOut; i++ {
		outConcepts[i] = concepts[r.Intn(len(concepts))]
		m.Outputs = append(m.Outputs, module.Parameter{
			Name: fmt.Sprintf("q%d", i), Struct: typesys.StringType,
			Semantic: outConcepts[i],
		})
	}
	salt := r.Intn(3)
	m.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		names := make([]string, 0, len(in))
		for n := range in {
			names = append(names, n)
		}
		sort.Strings(names)
		var sb strings.Builder
		for _, n := range names {
			sb.WriteString(string(in[n].(typesys.StringValue)))
			sb.WriteByte('|')
		}
		concat := sb.String()
		eff := salt
		if strings.Contains(concat, "U") { // behaviour varies by input region
			eff = (salt + 1) % 3
		}
		out := make(map[string]typesys.Value, nOut)
		for i := 0; i < nOut; i++ {
			// Output values depend on the output's concept (not its name), so
			// renamed-but-mapped outputs can still agree.
			out[fmt.Sprintf("q%d", i)] = typesys.Str(fmt.Sprintf("%d:%s:%s", eff, outConcepts[i], concat))
		}
		return out, nil
	}))
	return m
}

// TestPrunedSearchMatchesExhaustive is the property test behind the
// tentpole's correctness claim: over random catalogs, in both mapping
// modes and at several worker widths, an index-pruned FindSubstitutes
// returns a result byte-identical to the exhaustive search — and in
// exact mode the index prunes exactly the mapping-infeasible candidates,
// never fewer.
func TestPrunedSearchMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t)
		n := 6 + r.Intn(8)
		mods := make([]*module.Module, n)
		for i := range mods {
			mods[i] = randomModule(r, fmt.Sprintf("m%02d", i))
		}
		target := mods[r.Intn(n)]
		set, _, err := f.gen.Generate(target)
		if err != nil {
			t.Fatalf("seed %d: generating target: %v", seed, err)
		}
		un := Unavailable{Signature: target, Examples: set}

		for _, mode := range []Mode{ModeExact, ModeRelaxed} {
			f.cmp.Mode = mode
			f.cmp.Index = nil
			f.cmp.Workers = 1
			want, err := f.cmp.FindSubstitutesContext(context.Background(), un, mods)
			if err != nil {
				t.Fatalf("seed %d/%s: exhaustive: %v", seed, mode, err)
			}
			ix := NewCatalogIndex(f.ont, mods)
			f.cmp.Index = ix
			for _, workers := range []int{1, 4} {
				f.cmp.Workers = workers
				got, err := f.cmp.FindSubstitutesContext(context.Background(), un, mods)
				if err != nil {
					t.Fatalf("seed %d/%s/w%d: pruned: %v", seed, mode, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d/%s/w%d: pruned search diverged from exhaustive\n got %+v\nwant %+v",
						seed, mode, workers, got, want)
				}
			}
			// The pruning-power guarantee: exact mode prunes every candidate
			// MapParameters would reject; relaxed mode never prunes one it
			// would accept.
			feas := ix.Feasibility(target, mode)
			infeasible := 0
			for _, m := range mods {
				if m.ID == target.ID {
					continue
				}
				_, mappable := MapParameters(f.ont, target, m, mode)
				if !mappable {
					infeasible++
				}
				if mappable && feas.Prunes(m.ID) {
					t.Errorf("seed %d/%s: unsound prune of %s", seed, mode, m.ID)
				}
			}
			if mode == ModeExact && feas.Pruned != infeasible {
				t.Errorf("seed %d: exact pruned %d of %d infeasible", seed, feas.Pruned, infeasible)
			}
			f.cmp.Index = nil
		}
	}
}
