package experiment

import (
	"context"
	"fmt"

	"dexa/internal/core"
	"dexa/internal/match"
	"dexa/internal/metrics"
	"dexa/internal/simulation"
)

// RunAblationPartitioning contrasts the paper's realization-based
// partitioning (§3.1) with a leaf-only baseline: leaf-only never draws a
// realization of an inner concept, so behaviour triggered by generic
// instances (e.g. the generic-sequence branch of the broad formatters)
// goes unobserved and completeness drops; it also generates fewer
// examples.
func (s *Suite) RunAblationPartitioning() Result {
	run := func(strategy core.PartitionStrategy) (avgCompleteness, avgConciseness float64, examples int) {
		gen := core.NewGenerator(s.U.Ont, s.U.Pool)
		gen.Strategy = strategy
		var comp, conc float64
		for i, r := range s.sweepCatalog(gen, "ablation") {
			ev := metrics.Evaluate(r.Examples, s.U.Catalog.Entries[i].Behavior)
			comp += ev.Completeness
			conc += ev.Conciseness
			examples += len(r.Examples)
		}
		n := float64(len(s.U.Catalog.Entries))
		return comp / n, conc / n, examples
	}
	rComp, rConc, rEx := run(core.StrategyRealization)
	lComp, lConc, lEx := run(core.StrategyLeafOnly)
	return Result{
		ID:    "ablation-partition",
		Title: "Design ablation: realization partitioning vs leaf-only partitioning",
		Rows: []Row{
			{Label: "avg completeness (realization)", Paper: "—", Measured: fmt.Sprintf("%.3f", rComp)},
			{Label: "avg completeness (leaf-only)", Paper: "—", Measured: fmt.Sprintf("%.3f", lComp)},
			{Label: "avg conciseness (realization)", Paper: "—", Measured: fmt.Sprintf("%.3f", rConc)},
			{Label: "avg conciseness (leaf-only)", Paper: "—", Measured: fmt.Sprintf("%.3f", lConc)},
			{Label: "total examples (realization)", Paper: "—", Measured: fmt.Sprintf("%d", rEx)},
			{Label: "total examples (leaf-only)", Paper: "—", Measured: fmt.Sprintf("%d", lEx)},
		},
		Notes: []string{
			"expected shape: realization partitioning dominates leaf-only on completeness at a modest example-count cost",
		},
	}
}

// RunAblationMatchers contrasts three matchers over the 72 unavailable
// modules: the paper's aligned data-example matcher (§6), the
// signature-only baseline (Paolucci et al.), and the unaligned
// provenance-trace baseline (the authors' earlier work [4]).
//
// A proposed substitute counts as *valid* when it is behaviourally
// equivalent to the unavailable module (ground truth from the legacy
// catalog). Signature matching proposes every same-shape module — the
// Example-4 failure; unaligned traces rarely share inputs, so the trace
// baseline has little evidence and misses true equivalents.
func (s *Suite) RunAblationMatchers() Result {
	lw := s.Legacy()
	u := s.U
	available := u.Registry.Available()
	src := lw.ExamplesSource()
	cmp := match.NewComparer(u.Ont, nil)

	// Unaligned candidate traces: generated with a shifted pool selection,
	// modelling provenance recorded on other inputs. Memoized per module —
	// the trace baseline regenerates each candidate's traces once per
	// unavailable target (and again in the missed-equivalents recheck)
	// otherwise.
	base := core.NewGenerator(u.Ont, u.Pool)
	base.SelectionOffset = 1
	unalignedGen := core.NewCachedGenerator(base)

	type tally struct{ proposed, valid, missedEquiv int }
	var sig, trace, dataex tally

	for _, lm := range lw.Traced {
		isEquiv := lm.Expected == simulation.ExpectEquivalent
		examples, _ := src(lm.Module.ID)

		// Signature baseline: propose every signature-compatible module.
		sigCands := match.SignatureCandidates(u.Ont, lm.Module, available, match.ModeExact)
		for _, c := range sigCands {
			sig.proposed++
			res, err := cmp.CompareAgainstExamples(lm.Module, examples, c)
			if err != nil {
				panic(err)
			}
			if res.Verdict == match.Equivalent {
				sig.valid++
			}
		}
		if isEquiv && len(sigCands) == 0 {
			sig.missedEquiv++
		}

		// Data-example matcher: propose the best equivalent candidate.
		subs, err := cmp.FindSubstitutesContext(context.TODO(), match.Unavailable{Signature: lm.Module, Examples: examples}, available)
		if err != nil {
			panic(err)
		}
		cands := subs.Ranked
		if len(cands) > 0 && cands[0].Result.Verdict == match.Equivalent {
			dataex.proposed++
			dataex.valid++
		} else if isEquiv {
			dataex.missedEquiv++
		}

		// Trace baseline: compare raw traces (unaligned inputs on the
		// candidate side); propose candidates whose trace similarity
		// clears 0.5.
		for _, c := range sigCands {
			candTraces, _, err := unalignedGen.Generate(c)
			if err != nil {
				continue
			}
			sim := match.CompareTraces(examples, candTraces)
			if sim.Score() > 0.5 {
				trace.proposed++
				res, err := cmp.CompareAgainstExamples(lm.Module, examples, c)
				if err != nil {
					panic(err)
				}
				if res.Verdict == match.Equivalent {
					trace.valid++
				}
			}
		}
		if isEquiv {
			// Did the trace baseline propose any valid candidate for this
			// module? Recompute cheaply: a module counts as missed when the
			// tally did not grow. (Tracked via closure-free bookkeeping.)
			found := false
			for _, c := range sigCands {
				candTraces, _, err := unalignedGen.Generate(c)
				if err != nil {
					continue
				}
				if match.CompareTraces(examples, candTraces).Score() > 0.5 {
					res, _ := cmp.CompareAgainstExamples(lm.Module, examples, c)
					if res.Verdict == match.Equivalent {
						found = true
						break
					}
				}
			}
			if !found {
				trace.missedEquiv++
			}
		}
	}

	precision := func(t tally) string {
		if t.proposed == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", float64(t.valid)/float64(t.proposed))
	}
	return Result{
		ID:    "ablation-matchers",
		Title: "Baseline ablation: signature-only vs unaligned traces vs data examples",
		Rows: []Row{
			{Label: "signature-only: substitutes proposed", Paper: "—", Measured: fmt.Sprintf("%d", sig.proposed)},
			{Label: "signature-only: behaviourally valid", Paper: "—", Measured: fmt.Sprintf("%d", sig.valid)},
			{Label: "signature-only: precision", Paper: "—", Measured: precision(sig)},
			{Label: "unaligned traces: substitutes proposed", Paper: "—", Measured: fmt.Sprintf("%d", trace.proposed)},
			{Label: "unaligned traces: behaviourally valid", Paper: "—", Measured: fmt.Sprintf("%d", trace.valid)},
			{Label: "unaligned traces: equivalents missed (of 16)", Paper: "—", Measured: fmt.Sprintf("%d", trace.missedEquiv)},
			{Label: "data examples: substitutes proposed", Paper: "—", Measured: fmt.Sprintf("%d", dataex.proposed)},
			{Label: "data examples: precision", Paper: "—", Measured: precision(dataex)},
			{Label: "data examples: equivalents missed (of 16)", Paper: "—", Measured: fmt.Sprintf("%d", dataex.missedEquiv)},
		},
		Notes: []string{
			"expected shape: signature matching floods with behaviourally wrong candidates (Example 4); unaligned traces miss equivalents for lack of shared inputs; aligned data examples find all 16 with precision 1.00",
		},
	}
}
