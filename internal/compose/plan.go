package compose

import (
	"fmt"
	"sort"
	"strings"

	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/ontology"
	"dexa/internal/registry"
	"dexa/internal/search"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

// The constraint-guided synthesizer (Lamprecht et al., "Constraint-Guided
// Workflow Composition Based on the EDAM Ontology", applied to the data-
// example-annotated catalog): given an input concept, an output concept
// and constraints, plan multi-step workflow.Workflow chains by backward
// search over parameter signatures, then use data-example comparison to
// split task-identical candidates into behavior classes — the NW/SW/k-mer
// aligner trio shares one signature but three behaviors, and the planner
// emits one plan per behavior, not one plan treating them as
// interchangeable. Every plan is checked with workflow.Verify (validate +
// enact on a stored data example).

// Constraints scopes a planning request.
type Constraints struct {
	// In and Out are the workflow-level input and output concepts.
	In, Out string
	// MustUse requires every listed concept to flow through some step
	// parameter of the plan; MustAvoid excludes any module with a
	// parameter subsumed by a listed concept.
	MustUse, MustAvoid []string
	// Like prefers plans whose final behavior class agrees most with this
	// module's stored examples (ranking hint, not a filter).
	Like string
	// MaxDepth bounds the number of steps (default 4); MaxPlans the
	// number of ranked plans returned (default 5).
	MaxDepth, MaxPlans int
}

// PlanStep is one slot of a plan: the representative module chosen for
// the step and the behavior-class peers that are interchangeable with it
// (identical signature, data-example-equivalent behavior).
type PlanStep struct {
	Module string `json:"module"`
	// Equivalent lists the other members of the representative's behavior
	// class — swapping any of them in yields the same observed behavior.
	Equivalent []string `json:"equivalent,omitempty"`
	// Class fingerprints the behavior class (see search.Fingerprint);
	// empty when the module has no stored examples.
	Class string `json:"class,omitempty"`
	// Alternatives counts the *distinct* behavior classes sharing this
	// slot's signature: >1 means data examples disambiguated the slot.
	Alternatives int `json:"alternatives,omitempty"`
}

// Plan is one ranked synthesis result.
type Plan struct {
	Workflow *workflow.Workflow `json:"-"`
	Steps    []PlanStep         `json:"steps"`
	Verified bool               `json:"verified"`
	// Witness carries the workflow-level outputs of the verification
	// enactment, rendered.
	Witness map[string]string `json:"witness,omitempty"`
	// Rationale explains the ranking ("verified", behavior-class choices)
	// or why verification failed.
	Rationale string `json:"rationale,omitempty"`

	rank []int // tie-break vector: slot class-rank indices
}

// Chain renders "a -> b -> c".
func (p Plan) Chain() string {
	ids := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		ids[i] = s.Module
	}
	return strings.Join(ids, " -> ")
}

// ExampleFunc resolves a module's stored data-example set. The serve
// layer backs it with the store (and, in cluster mode, the owner shard);
// the CLI backs it with an on-demand generator.
type ExampleFunc func(id string) (dataexample.Set, bool)

// Planner synthesizes workflows from the annotated catalog.
type Planner struct {
	Ont      *ontology.Ontology
	Reg      *registry.Registry
	Examples ExampleFunc
	// MaxDepth bounds chain length in steps (default 4); MaxPlans the
	// ranked plans returned (default 5).
	MaxDepth int
	MaxPlans int
}

// Search caps keeping the plan space bounded on large catalogs.
const (
	maxChains         = 64
	maxCombosPerChain = 16
)

// sigGroup is one primary-signature equivalence class: every member
// consumes the same (struct, concept) primary input and produces the
// same primary output. Members are task-identical *candidates*; behavior
// classes split them further.
type sigGroup struct {
	key       string
	inSem     string
	inStruct  typesys.Type
	outSem    string
	outStruct typesys.Type
	members   []*module.Module // sorted by ID
}

// behaviorClass is a set of group members whose stored example sets are
// pairwise equivalent under an exact parameter mapping.
type behaviorClass struct {
	rep       *module.Module
	members   []*module.Module // sorted by ID; rep is members[0]
	repSet    dataexample.Set
	class     string  // fingerprint of the representative's set
	likeScore float64 // agreement with Constraints.Like, when set
}

func (p *Planner) maxDepth() int {
	if p.MaxDepth > 0 {
		return p.MaxDepth
	}
	return 4
}

func (p *Planner) maxPlans() int {
	if p.MaxPlans > 0 {
		return p.MaxPlans
	}
	return 5
}

func (p *Planner) examples(id string) dataexample.Set {
	if p.Examples == nil {
		return nil
	}
	set, _ := p.Examples(id)
	return set
}

// Plan synthesizes ranked workflow plans for the constraints. The result
// is deterministic: identical catalogs and constraints produce identical
// plans in identical order.
func (p *Planner) Plan(cs Constraints) ([]Plan, error) {
	if !p.Ont.Has(cs.In) {
		return nil, fmt.Errorf("compose: unknown input concept %q", cs.In)
	}
	if !p.Ont.Has(cs.Out) {
		return nil, fmt.Errorf("compose: unknown output concept %q", cs.Out)
	}
	for _, c := range append(append([]string{}, cs.MustUse...), cs.MustAvoid...) {
		if !p.Ont.Has(c) {
			return nil, fmt.Errorf("compose: unknown constraint concept %q", c)
		}
	}
	if cs.MaxDepth == 0 {
		cs.MaxDepth = p.maxDepth()
	}
	if cs.MaxPlans == 0 {
		cs.MaxPlans = p.maxPlans()
	}

	groups := p.groups(cs)
	chains := p.findChains(cs, groups)

	classCache := map[string][]*behaviorClass{}
	classesOf := func(g *sigGroup) []*behaviorClass {
		if cls, ok := classCache[g.key]; ok {
			return cls
		}
		cls := p.partition(g, cs)
		classCache[g.key] = cls
		return cls
	}

	var plans []Plan
	for _, chain := range chains {
		slots := make([][]*behaviorClass, len(chain))
		for i, g := range chain {
			slots[i] = classesOf(g)
		}
		plans = append(plans, p.expand(cs, chain, slots)...)
	}
	plans = p.filterMustUse(cs, plans)

	sort.SliceStable(plans, func(i, j int) bool {
		a, b := plans[i], plans[j]
		if a.Verified != b.Verified {
			return a.Verified
		}
		if len(a.Steps) != len(b.Steps) {
			return len(a.Steps) < len(b.Steps)
		}
		if ra, rb := sum(a.rank), sum(b.rank); ra != rb {
			return ra < rb
		}
		return a.Chain() < b.Chain()
	})
	if len(plans) > cs.MaxPlans {
		plans = plans[:cs.MaxPlans]
	}
	return plans, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// groups buckets the available catalog by primary signature, honouring
// MustAvoid.
func (p *Planner) groups(cs Constraints) []*sigGroup {
	mods := p.Reg.Available()
	sort.Slice(mods, func(i, j int) bool { return mods[i].ID < mods[j].ID })
	byKey := map[string]*sigGroup{}
	for _, m := range mods {
		if !m.Bound() || len(m.Inputs) == 0 || len(m.Outputs) == 0 {
			continue
		}
		in, out := primaryInput(m), primaryOutput(m)
		if in.Semantic == "" || out.Semantic == "" {
			continue
		}
		if p.avoided(cs, m) {
			continue
		}
		key := in.Struct.String() + "|" + in.Semantic + "->" + out.Struct.String() + "|" + out.Semantic
		g := byKey[key]
		if g == nil {
			g = &sigGroup{key: key, inSem: in.Semantic, inStruct: in.Struct, outSem: out.Semantic, outStruct: out.Struct}
			byKey[key] = g
		}
		g.members = append(g.members, m)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*sigGroup, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// avoided reports whether any parameter concept falls under a MustAvoid
// concept.
func (p *Planner) avoided(cs Constraints, m *module.Module) bool {
	for _, avoid := range cs.MustAvoid {
		for _, param := range append(append([]module.Parameter{}, m.Inputs...), m.Outputs...) {
			if param.Semantic != "" && p.Ont.Subsumes(avoid, param.Semantic) {
				return true
			}
		}
	}
	return false
}

// findChains runs the backward search: starting from the Out concept,
// repeatedly prepend a signature group whose output satisfies the current
// goal, until a group's input accepts the In concept.
func (p *Planner) findChains(cs Constraints, groups []*sigGroup) [][]*sigGroup {
	var chains [][]*sigGroup
	var rec func(goalSem string, goalStruct *typesys.Type, acc []*sigGroup)
	rec = func(goalSem string, goalStruct *typesys.Type, acc []*sigGroup) {
		if len(chains) >= maxChains {
			return
		}
		for _, g := range groups {
			if !p.Ont.Subsumes(goalSem, g.outSem) {
				continue
			}
			if goalStruct != nil && !g.outStruct.Equal(*goalStruct) {
				continue
			}
			if containsGroup(acc, g) {
				continue
			}
			next := append([]*sigGroup{g}, acc...)
			if p.Ont.Subsumes(g.inSem, cs.In) {
				chains = append(chains, next)
				if len(chains) >= maxChains {
					return
				}
			}
			if len(next) < cs.MaxDepth {
				st := g.inStruct
				rec(g.inSem, &st, next)
			}
		}
	}
	rec(cs.Out, nil, nil)
	return chains
}

func containsGroup(acc []*sigGroup, g *sigGroup) bool {
	for _, a := range acc {
		if a.key == g.key {
			return true
		}
	}
	return false
}

// partition splits a signature group into behavior classes: two members
// land in the same class when an exact parameter mapping exists and
// their stored example sets are equivalent under it — the data-example
// "behaves identically" test. Members without stored examples stay in
// singleton classes (nothing is known about their behavior). Each
// member's set is keyed at most once per call, on its first comparison,
// and every comparison shares one scratch.
func (p *Planner) partition(g *sigGroup, cs Constraints) []*behaviorClass {
	n := len(g.members)
	sets := make([]dataexample.Set, n)
	for i, m := range g.members {
		sets[i] = p.examples(m.ID)
	}
	keyed := make([]*dataexample.KeyedSet, n)
	keyedAt := func(i int) *dataexample.KeyedSet {
		if keyed[i] == nil {
			keyed[i] = sets[i].Keyed()
		}
		return keyed[i]
	}
	var sc match.CompareScratch
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if len(sets[i]) == 0 || len(sets[j]) == 0 {
				continue
			}
			mapping, ok := match.MapParameters(p.Ont, g.members[i], g.members[j], match.ModeExact)
			if !ok {
				continue
			}
			res := match.CompareKeyedSets(&sc, g.members[i].ID, g.members[j].ID, keyedAt(i), keyedAt(j), mapping)
			if res.Verdict == match.Equivalent {
				union(i, j)
			}
		}
	}
	byRoot := map[int]*behaviorClass{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		bc := byRoot[r]
		if bc == nil {
			bc = &behaviorClass{}
			byRoot[r] = bc
			roots = append(roots, r)
		}
		bc.members = append(bc.members, g.members[i])
	}
	sort.Ints(roots)
	var likeScore func(*module.Module, *dataexample.KeyedSet) float64
	if cs.Like != "" {
		likeScore = p.likeScorer(cs.Like, &sc)
	}
	classes := make([]*behaviorClass, 0, len(roots))
	for _, r := range roots {
		bc := byRoot[r]
		bc.rep = bc.members[0]
		bc.repSet = sets[r]
		bc.class = search.Fingerprint(bc.repSet)
		if likeScore != nil && len(bc.repSet) > 0 {
			bc.likeScore = likeScore(bc.rep, keyedAt(r))
		}
		classes = append(classes, bc)
	}
	sort.SliceStable(classes, func(i, j int) bool {
		a, b := classes[i], classes[j]
		if cs.Like != "" && a.likeScore != b.likeScore {
			return a.likeScore > b.likeScore
		}
		if len(a.members) != len(b.members) {
			return len(a.members) > len(b.members)
		}
		return a.rep.ID < b.rep.ID
	})
	return classes
}

// likeScorer scores behavior-class representatives against the Like
// module's stored examples, keyed once for the whole partition (0 when a
// representative is incomparable). It returns nil when the Like module
// is unknown or unannotated: every class then scores 0.
func (p *Planner) likeScorer(likeID string, sc *match.CompareScratch) func(rep *module.Module, repSet *dataexample.KeyedSet) float64 {
	e, ok := p.Reg.Get(likeID)
	if !ok {
		return nil
	}
	set := p.examples(likeID)
	if len(set) == 0 {
		return nil
	}
	like := set.Keyed()
	return func(rep *module.Module, repSet *dataexample.KeyedSet) float64 {
		mapping, ok := match.MapParameters(p.Ont, e.Module, rep, match.ModeExact)
		if !ok {
			return 0
		}
		return match.CompareKeyedSets(sc, likeID, rep.ID, like, repSet, mapping).Score()
	}
}

// expand turns one signature chain into concrete plans: the cartesian
// product of behavior classes across slots, enumerated in ranked order
// and capped, each built into a workflow and verified.
func (p *Planner) expand(cs Constraints, chain []*sigGroup, slots [][]*behaviorClass) []Plan {
	k := len(chain)
	idx := make([]int, k)
	var plans []Plan
	var rec func(slot int)
	rec = func(slot int) {
		if len(plans) >= maxCombosPerChain {
			return
		}
		if slot == k {
			plans = append(plans, p.build(cs, slots, idx))
			return
		}
		for i := range slots[slot] {
			idx[slot] = i
			rec(slot + 1)
			if len(plans) >= maxCombosPerChain {
				return
			}
		}
	}
	rec(0)
	return plans
}

// smallestExample picks the deterministic seed example of a set: the one
// with the lexicographically smallest input key.
func smallestExample(set dataexample.Set) (dataexample.Example, bool) {
	if len(set) == 0 {
		return dataexample.Example{}, false
	}
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].InputKey() < set[best].InputKey() {
			best = i
		}
	}
	return set[best], true
}

// build constructs and verifies the workflow for one class combination.
func (p *Planner) build(cs Constraints, slots [][]*behaviorClass, idx []int) Plan {
	k := len(idx)
	reps := make([]*module.Module, k)
	classes := make([]*behaviorClass, k)
	for i := 0; i < k; i++ {
		classes[i] = slots[i][idx[i]]
		reps[i] = classes[i].rep
	}

	ids := make([]string, k)
	for i, m := range reps {
		ids[i] = m.ID
	}
	wf := &workflow.Workflow{
		ID:   "plan-" + strings.Join(ids, "--"),
		Name: fmt.Sprintf("%s to %s via %s", cs.In, cs.Out, strings.Join(ids, ", ")),
		Inputs: []workflow.Port{
			{Name: "in", Struct: primaryInput(reps[0]).Struct, Semantic: cs.In},
		},
		Outputs: []workflow.Port{
			{Name: "out", Struct: primaryOutput(reps[k-1]).Struct, Semantic: cs.Out},
		},
	}
	var missing []string
	for i, m := range reps {
		step := workflow.Step{ID: fmt.Sprintf("s%d", i+1), ModuleID: m.ID}
		// Secondary required inputs are pinned as design-time constants
		// taken from the module's own stored examples — the values the
		// annotation run proved the module accepts.
		ex, hasEx := smallestExample(classes[i].repSet)
		for _, param := range m.Inputs[1:] {
			if param.Optional {
				continue
			}
			if v, ok := ex.Inputs[param.Name]; hasEx && ok {
				if step.Constants == nil {
					step.Constants = map[string]typesys.Value{}
				}
				step.Constants[param.Name] = v
			} else {
				missing = append(missing, fmt.Sprintf("s%d.%s", i+1, param.Name))
			}
		}
		wf.Steps = append(wf.Steps, step)
	}
	for i := 0; i < k; i++ {
		from := workflow.PortRef{Port: "in"}
		if i > 0 {
			from = workflow.PortRef{Step: fmt.Sprintf("s%d", i), Port: primaryOutput(reps[i-1]).Name}
		}
		wf.Links = append(wf.Links, workflow.Link{
			From: from,
			To:   workflow.PortRef{Step: fmt.Sprintf("s%d", i+1), Port: primaryInput(reps[i]).Name},
		})
	}
	wf.Links = append(wf.Links, workflow.Link{
		From: workflow.PortRef{Step: fmt.Sprintf("s%d", k), Port: primaryOutput(reps[k-1]).Name},
		To:   workflow.PortRef{Port: "out"},
	})

	plan := Plan{Workflow: wf, rank: append([]int{}, idx...)}
	for i, m := range reps {
		ps := PlanStep{Module: m.ID, Class: classes[i].class, Alternatives: len(slots[i])}
		for _, peer := range classes[i].members[1:] {
			ps.Equivalent = append(ps.Equivalent, peer.ID)
		}
		plan.Steps = append(plan.Steps, ps)
	}

	var rationale []string
	for i := range reps {
		if len(slots[i]) > 1 {
			rationale = append(rationale, fmt.Sprintf(
				"step s%d: %d behavior classes share signature %s; examples chose %s (%d equivalent)",
				i+1, len(slots[i]), chainSig(classes[i].rep), reps[i].ID, len(classes[i].members)))
		}
	}
	if len(missing) > 0 {
		rationale = append(rationale, "unfillable inputs: "+strings.Join(missing, ", "))
	}

	// Verify: enact on the first step's stored seed example.
	seed, ok := smallestExample(classes[0].repSet)
	if !ok {
		plan.Rationale = strings.Join(append(rationale, "unverified: no stored examples for "+reps[0].ID), "; ")
		return plan
	}
	inputs := map[string]typesys.Value{"in": seed.Inputs[primaryInput(reps[0]).Name]}
	outs, err := workflow.Verify(p.Reg, p.Ont, wf, inputs)
	if err != nil {
		plan.Rationale = strings.Join(append(rationale, "unverified: "+err.Error()), "; ")
		return plan
	}
	plan.Verified = true
	plan.Witness = map[string]string{}
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		plan.Witness[name] = truncateValue(outs[name], 80)
	}
	plan.Rationale = strings.Join(append(rationale, "verified by enactment on a stored data example"), "; ")
	return plan
}

func chainSig(m *module.Module) string {
	return primaryInput(m).Semantic + "->" + primaryOutput(m).Semantic
}

// filterMustUse keeps plans where every MustUse concept is carried by
// some step parameter.
func (p *Planner) filterMustUse(cs Constraints, plans []Plan) []Plan {
	if len(cs.MustUse) == 0 {
		return plans
	}
	var out []Plan
	for _, plan := range plans {
		ok := true
		for _, use := range cs.MustUse {
			if !p.planUses(plan, use) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, plan)
		}
	}
	return out
}

func (p *Planner) planUses(plan Plan, concept string) bool {
	for _, s := range plan.Steps {
		e, ok := p.Reg.Get(s.Module)
		if !ok {
			continue
		}
		for _, param := range append(append([]module.Parameter{}, e.Module.Inputs...), e.Module.Outputs...) {
			if param.Semantic != "" && p.Ont.Subsumes(concept, param.Semantic) {
				return true
			}
		}
	}
	return false
}
