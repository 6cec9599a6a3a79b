package match

import "dexa/internal/dataexample"

// compareSets is the string-keyed alignment oracle the keyed compare is
// gated against: canonical keys are recomputed on the fly for every
// comparison, with no interning, no identity-mapping shortcut and no
// scratch. Duplicate candidate input keys keep the first occurrence,
// matching Set.ByInputKey (generation never produces duplicates; the
// tie-break only matters for hand-built sets).
func compareSets(targetID, candidateID string, tSet, cSet dataexample.Set, mapping Mapping) Result {
	res := Result{TargetID: targetID, CandidateID: candidateID, Mapping: mapping, AgreeingKeys: map[string]bool{}}
	cIdx := make(map[string]dataexample.Example, len(cSet))
	for _, e := range cSet {
		k := e.InputKey()
		if _, dup := cIdx[k]; !dup {
			cIdx[k] = e
		}
	}
	for _, te := range tSet {
		translated := translateInputs(te.Inputs, mapping.Inputs)
		key := (dataexample.Example{Inputs: translated}).InputKey()
		ce, ok := cIdx[key]
		if !ok {
			continue
		}
		res.Compared++
		if outputsAgree(te.Outputs, ce.Outputs, mapping.Outputs) {
			res.Agreeing++
			res.AgreeingKeys[te.InputKey()] = true
		}
	}
	res.Verdict = verdictFor(res.Compared, res.Agreeing)
	return res
}
