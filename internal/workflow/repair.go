package workflow

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/registry"
)

// RepairStatus summarises a repair attempt on one workflow.
type RepairStatus int

const (
	// NotBroken: the workflow had no decayed steps.
	NotBroken RepairStatus = iota
	// FullyRepaired: every decayed step was substituted.
	FullyRepaired
	// PartiallyRepaired: some but not all decayed steps were substituted
	// (the paper's "73 were partly repaired" case).
	PartiallyRepaired
	// Unrepaired: no decayed step could be substituted.
	Unrepaired
)

// String returns the status name.
func (s RepairStatus) String() string {
	switch s {
	case NotBroken:
		return "not-broken"
	case FullyRepaired:
		return "fully-repaired"
	case PartiallyRepaired:
		return "partially-repaired"
	case Unrepaired:
		return "unrepaired"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Replacement records one substitution applied to a workflow.
type Replacement struct {
	StepID      string
	OldModuleID string
	NewModuleID string
	// Verdict is the comparison verdict that justified the substitution
	// (Equivalent, or Overlapping when certified in context).
	Verdict match.Verdict
	// Contextual marks Overlapping substitutes certified only for the
	// concepts flowing at this step (the Figure-7 case).
	Contextual bool
}

// RepairResult reports the outcome of repairing one workflow.
type RepairResult struct {
	WorkflowID   string
	Status       RepairStatus
	Replacements []Replacement
	// Unrepairable lists decayed steps with no usable substitute, with the
	// reason.
	Unrepairable map[string]string
	// Repaired is the rewritten workflow (nil unless at least one
	// replacement was applied).
	Repaired *Workflow
}

// ExamplesSource supplies data examples for an unavailable module —
// typically reconstructed from provenance traces (§6: "we cannot construct
// the data examples, as this operation would require invoking the
// unavailable modules").
type ExamplesSource func(moduleID string) (dataexample.Set, bool)

// Repairer substitutes decayed workflow steps with behaviourally matching
// available modules.
type Repairer struct {
	Reg *registry.Registry
	// Exact is the strict comparer used first; Relaxed (may be nil to
	// disable) is used for the contextual fallback with ModeRelaxed.
	Exact   *match.Comparer
	Relaxed *match.Comparer
	// Examples supplies recorded data examples for unavailable modules.
	Examples ExamplesSource
	// Cache memoises substitute lookups per (module, context) across
	// workflows. A popular decayed module appears in many workflows (§6:
	// the 16 equivalents repaired 321 of them); with the cache each is
	// matched once.
	Cache bool

	cacheMu sync.Mutex
	cached  map[string]cachedRepair
}

type cachedRepair struct {
	rep    *Replacement // nil when unrepairable; StepID unset
	reason string
}

// Repair attempts to fix every decayed step of the workflow. It never
// mutates w; the rewritten workflow is returned inside the result.
func (r *Repairer) Repair(w *Workflow) (*RepairResult, error) {
	res := &RepairResult{WorkflowID: w.ID, Unrepairable: map[string]string{}}
	broken := w.BrokenSteps(r.Reg)
	if len(broken) == 0 {
		res.Status = NotBroken
		return res, nil
	}
	available := r.Reg.Available()
	repaired := w.Clone()
	for _, stepID := range broken {
		s, _ := repaired.Step(stepID)
		rep, reason, err := r.repairStep(w, stepID, s.ModuleID, available)
		if err != nil {
			return nil, err
		}
		if rep == nil {
			res.Unrepairable[stepID] = reason
			continue
		}
		s.ModuleID = rep.NewModuleID
		res.Replacements = append(res.Replacements, *rep)
	}
	sort.Slice(res.Replacements, func(i, j int) bool { return res.Replacements[i].StepID < res.Replacements[j].StepID })
	switch {
	case len(res.Replacements) == 0:
		res.Status = Unrepaired
	case len(res.Unrepairable) > 0:
		res.Status = PartiallyRepaired
		res.Repaired = repaired
	default:
		res.Status = FullyRepaired
		res.Repaired = repaired
	}
	return res, nil
}

// repairStep finds a substitute for one decayed step. Strategy: exact
// signature mapping with Equivalent verdict first; then, when a relaxed
// comparer is configured, context-restricted relaxed matching that accepts
// candidates equivalent on every example within the step's context.
func (r *Repairer) repairStep(w *Workflow, stepID, moduleID string, available []*module.Module) (*Replacement, string, error) {
	entry, ok := r.Reg.Get(moduleID)
	if !ok {
		return nil, fmt.Sprintf("module %s not registered", moduleID), nil
	}
	var cacheKey string
	if r.Cache {
		cacheKey = moduleID + "\x00" + contextKey(r.stepContext(w, stepID, entry))
		r.cacheMu.Lock()
		hit, ok := r.cached[cacheKey]
		r.cacheMu.Unlock()
		if ok {
			if hit.rep == nil {
				return nil, hit.reason, nil
			}
			rep := *hit.rep
			rep.StepID = stepID
			return &rep, "", nil
		}
	}
	rep, reason, err := r.repairStepUncached(w, stepID, moduleID, entry, available)
	if err != nil {
		return nil, "", err
	}
	if r.Cache {
		stored := cachedRepair{reason: reason}
		if rep != nil {
			cp := *rep
			cp.StepID = ""
			stored.rep = &cp
		}
		r.cacheMu.Lock()
		if r.cached == nil {
			r.cached = map[string]cachedRepair{}
		}
		r.cached[cacheKey] = stored
		r.cacheMu.Unlock()
	}
	return rep, reason, nil
}

func contextKey(ctx map[string]string) string {
	keys := make([]string, 0, len(ctx))
	for k := range ctx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(ctx[k])
		b.WriteByte(';')
	}
	return b.String()
}

func (r *Repairer) repairStepUncached(w *Workflow, stepID, moduleID string, entry *registry.Entry, available []*module.Module) (*Replacement, string, error) {
	examples, ok := r.examplesFor(moduleID, entry)
	if !ok || len(examples) == 0 {
		return nil, "no data examples available (none recorded while the module was alive)", nil
	}
	target := match.Unavailable{Signature: entry.Module, Examples: examples}

	// Pass 1: exact mapping, Equivalent only.
	subs, err := r.Exact.FindSubstitutesContext(context.TODO(), target, available)
	if err != nil {
		return nil, "", err
	}
	for _, c := range subs.Ranked {
		if c.Result.Verdict == match.Equivalent {
			return &Replacement{StepID: stepID, OldModuleID: moduleID, NewModuleID: c.Module.ID, Verdict: match.Equivalent}, "", nil
		}
	}

	// Pass 2: contextual. Restrict the examples to the concepts actually
	// flowing into this step, then accept relaxed candidates that agree on
	// every remaining example.
	if r.Relaxed != nil {
		flowing := r.stepContext(w, stepID, entry)
		ctxExamples := match.RestrictToContext(r.Relaxed.Ont, examples, flowing)
		if len(ctxExamples) > 0 {
			for _, cand := range available {
				if cand.ID == moduleID {
					continue
				}
				res, err := r.Relaxed.CompareAgainstExamples(entry.Module, ctxExamples, cand)
				if err != nil {
					return nil, "", err
				}
				if res.Verdict == match.Equivalent {
					return &Replacement{
						StepID: stepID, OldModuleID: moduleID, NewModuleID: cand.ID,
						Verdict: match.Overlapping, Contextual: true,
					}, "", nil
				}
			}
		}
	}
	if len(subs.Ranked) > 0 {
		return nil, "only overlapping candidates, none certified in context", nil
	}
	return nil, "no behaviourally compatible candidate", nil
}

func (r *Repairer) examplesFor(moduleID string, entry *registry.Entry) (dataexample.Set, bool) {
	if r.Examples != nil {
		if set, ok := r.Examples(moduleID); ok {
			return set, true
		}
	}
	if len(entry.Examples) > 0 {
		return entry.Examples, true
	}
	return nil, false
}

// stepContext computes, per input parameter of the decayed module, the
// concept actually flowing into the step: the semantic type of the
// upstream producer port, falling back to the parameter's own concept.
func (r *Repairer) stepContext(w *Workflow, stepID string, entry *registry.Entry) map[string]string {
	ctx := map[string]string{}
	for _, p := range entry.Module.Inputs {
		ctx[p.Name] = p.Semantic
	}
	for _, l := range w.Links {
		if l.To.Step != stepID {
			continue
		}
		if _, sem, err := w.resolveSource(r.Reg, l.From); err == nil && sem != "" {
			ctx[l.To.Port] = sem
		}
	}
	return ctx
}
