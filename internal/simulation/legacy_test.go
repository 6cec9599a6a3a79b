package simulation

import (
	"context"
	"testing"

	"dexa/internal/match"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

var sharedLegacy *LegacyWorld

func legacyWorld(t testing.TB) *LegacyWorld {
	t.Helper()
	u := universe(t)
	if sharedLegacy == nil {
		sharedLegacy = BuildLegacyWorld(u)
	}
	return sharedLegacy
}

func TestLegacyWorldCounts(t *testing.T) {
	lw := legacyWorld(t)
	if len(lw.Traced) != 72 {
		t.Errorf("traced legacy modules = %d, want 72", len(lw.Traced))
	}
	if len(lw.Untraced) != legacyUntraced {
		t.Errorf("untraced = %d", len(lw.Untraced))
	}
	var e, o, u2, n int
	for _, lm := range lw.Traced {
		switch lm.Expected {
		case ExpectEquivalent:
			e++
		case ExpectOverlapping:
			o++
			if lm.ContextUsable {
				u2++
			}
		case ExpectNone:
			n++
		}
	}
	if e != 16 || o != 23 || u2 != 6 || n != 33 {
		t.Errorf("categories = equiv %d, overlap %d (usable %d), none %d", e, o, u2, n)
	}
	if lw.Corpus.Len() == 0 {
		t.Error("no legacy traces recorded")
	}
	if got := len(lw.Workflows); got != repoHealthy+repoBroken {
		t.Errorf("repository size = %d, want %d", got, repoHealthy+repoBroken)
	}
}

func TestLegacyModulesRetired(t *testing.T) {
	lw := legacyWorld(t)
	u := universe(t)
	for _, lm := range lw.Traced {
		entry, ok := u.Registry.Get(lm.Module.ID)
		if !ok || entry.Available {
			t.Errorf("legacy %s should be registered and unavailable", lm.Module.ID)
		}
	}
	// Available modules are exactly the 252 catalog modules.
	if got := len(u.Registry.Available()); got != 252 {
		t.Errorf("available modules = %d, want 252", got)
	}
}

func TestRepositoryWorkflowsValidate(t *testing.T) {
	lw := legacyWorld(t)
	u := universe(t)
	// Validate a deterministic sample from every band of the repository.
	for i := 0; i < len(lw.Workflows); i += 97 {
		wf := lw.Workflows[i]
		if err := wf.Validate(u.Registry, u.Ont); err != nil {
			t.Errorf("workflow %s invalid: %v", wf.ID, err)
		}
	}
}

func TestBrokenWorkflowCount(t *testing.T) {
	lw := legacyWorld(t)
	u := universe(t)
	broken := 0
	for _, wf := range lw.Workflows {
		if len(wf.BrokenSteps(u.Registry)) > 0 {
			broken++
		}
	}
	if broken != repoBroken {
		t.Errorf("broken workflows = %d, want %d", broken, repoBroken)
	}
}

func TestLegacyMatchingVerdicts(t *testing.T) {
	lw := legacyWorld(t)
	u := universe(t)
	cmp := match.NewComparer(u.Ont, nil)
	src := lw.ExamplesSource()
	available := u.Registry.Available()

	counts := map[ExpectedMatch]int{}
	for _, lm := range lw.Traced {
		examples, ok := src(lm.Module.ID)
		if !ok || len(examples) == 0 {
			t.Fatalf("no examples reconstructed for %s", lm.Module.ID)
		}
		subs, err := cmp.FindSubstitutesContext(context.Background(), match.Unavailable{Signature: lm.Module, Examples: examples}, available)
		if err != nil {
			t.Fatalf("FindSubstitutesContext(%s): %v", lm.Module.ID, err)
		}
		cands := subs.Ranked
		var got ExpectedMatch
		switch {
		case len(cands) > 0 && cands[0].Result.Verdict == match.Equivalent:
			got = ExpectEquivalent
		case len(cands) > 0:
			got = ExpectOverlapping
		default:
			got = ExpectNone
		}
		if got != lm.Expected {
			t.Errorf("legacy %s: verdict %v, want %v (candidates %d)", lm.Module.ID, got, lm.Expected, len(cands))
		}
		counts[got]++
	}
	if counts[ExpectEquivalent] != 16 || counts[ExpectOverlapping] != 23 || counts[ExpectNone] != 33 {
		t.Errorf("verdict counts = %v, want 16/23/33", counts)
	}
}

// repairers builds the standard two-pass repairer over the legacy world.
func repairers(lw *LegacyWorld) *workflow.Repairer {
	u := lw.universe
	exact := match.NewComparer(u.Ont, nil)
	relaxed := match.NewComparer(u.Ont, nil)
	relaxed.Mode = match.ModeRelaxed
	return &workflow.Repairer{
		Reg:      u.Registry,
		Exact:    exact,
		Relaxed:  relaxed,
		Examples: lw.ExamplesSource(),
	}
}

func TestRepairSampleWorkflows(t *testing.T) {
	lw := legacyWorld(t)
	rep := repairers(lw)

	byKind := map[workflow.RepairStatus]*workflow.Workflow{}
	// Pick a deterministic representative from each repository band.
	idx := map[string]int{
		"healthy": 0,
		"equiv":   repoHealthy,
		"context": repoHealthy + repoEquivRepairable,
		"partial": repoHealthy + repoEquivRepairable + repoContextRepairable,
		"dead":    repoHealthy + repoEquivRepairable + repoContextRepairable + repoPartial,
	}
	res, err := rep.Repair(lw.Workflows[idx["healthy"]])
	if err != nil || res.Status != workflow.NotBroken {
		t.Errorf("healthy: %v, %v", res, err)
	}
	res, err = rep.Repair(lw.Workflows[idx["equiv"]])
	if err != nil || res.Status != workflow.FullyRepaired {
		t.Fatalf("equiv band: %+v, %v", res, err)
	}
	if res.Replacements[0].Verdict != match.Equivalent {
		t.Errorf("equiv band verdict = %v", res.Replacements[0].Verdict)
	}
	byKind[res.Status] = res.Repaired

	res, err = rep.Repair(lw.Workflows[idx["context"]])
	if err != nil || res.Status != workflow.FullyRepaired {
		t.Fatalf("context band: %+v, %v", res, err)
	}
	if !res.Replacements[0].Contextual {
		t.Errorf("context band replacement should be contextual: %+v", res.Replacements[0])
	}

	res, err = rep.Repair(lw.Workflows[idx["partial"]])
	if err != nil || res.Status != workflow.PartiallyRepaired {
		t.Errorf("partial band: %+v, %v", res, err)
	}
	res, err = rep.Repair(lw.Workflows[idx["dead"]])
	if err != nil || res.Status != workflow.Unrepaired {
		t.Errorf("dead band: %+v, %v", res, err)
	}
}

// TestRepairedWorkflowEnacts re-enacts a repaired workflow end to end and
// checks it delivers results (the §6 verification step).
func TestRepairedWorkflowEnacts(t *testing.T) {
	lw := legacyWorld(t)
	u := universe(t)
	rep := repairers(lw)
	wf := lw.Workflows[repoHealthy] // first equivalent-repairable workflow
	res, err := rep.Repair(wf)
	if err != nil || res.Status != workflow.FullyRepaired {
		t.Fatalf("repair: %+v, %v", res, err)
	}
	// Build inputs for the repaired workflow from pool realizations.
	en := workflow.NewEnactor(u.Registry)
	wfInputs := map[string]typesys.Value{}
	for _, p := range res.Repaired.Inputs {
		in, ok := u.Pool.Realization(p.Semantic, p.Struct, 0)
		if !ok {
			t.Fatalf("no realization for workflow input %s (%s)", p.Name, p.Semantic)
		}
		wfInputs[p.Name] = in.Value
	}
	outs, err := en.Enact(res.Repaired, wfInputs)
	if err != nil {
		t.Fatalf("enacting repaired workflow: %v", err)
	}
	if len(outs) != len(res.Repaired.Outputs) {
		t.Errorf("outputs = %d, want %d", len(outs), len(res.Repaired.Outputs))
	}
}
