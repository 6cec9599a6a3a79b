// End-to-end integration tests across the full stack: the generation
// heuristic over remote (REST/SOAP) modules, the annotation assistant
// feeding the generator, and persistence round trips of the complete
// annotation state (registry + provenance corpus).
package dexa

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"dexa/internal/annotate"
	"dexa/internal/core"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/provenance"
	"dexa/internal/registry"
	"dexa/internal/simulation"
	"dexa/internal/transport"
	"dexa/internal/typesys"
	"dexa/internal/workflow"
)

var (
	integrationOnce sync.Once
	integrationU    *simulation.Universe
)

func integrationUniverse(t testing.TB) *simulation.Universe {
	t.Helper()
	integrationOnce.Do(func() { integrationU = simulation.NewUniverse() })
	return integrationU
}

// TestRemoteGenerationMatchesLocal serves catalog modules over both wire
// forms and checks the heuristic produces byte-identical data examples
// through the remote proxies.
func TestRemoteGenerationMatchesLocal(t *testing.T) {
	u := integrationUniverse(t)
	served := registry.New()
	for _, id := range []string{"getUniprotRecord", "uniprotToGO", "sequenceToFasta"} {
		e, _ := u.Catalog.Get(id)
		served.MustRegister(e.Module)
	}
	restSrv := httptest.NewServer(transport.RESTHandler(served))
	defer restSrv.Close()
	soapSrv := httptest.NewServer(transport.SOAPHandler(served))
	defer soapSrv.Close()

	gen := core.NewGenerator(u.Ont, u.Pool)
	for _, tc := range []struct {
		id   string
		bind func(m *module.Module)
	}{
		{"getUniprotRecord", func(m *module.Module) {
			m.Bind(&transport.RESTExecutor{BaseURL: restSrv.URL, ModuleID: "getUniprotRecord"})
		}},
		{"uniprotToGO", func(m *module.Module) {
			m.Bind(&transport.SOAPExecutor{Endpoint: soapSrv.URL, ModuleID: "uniprotToGO"})
		}},
		{"sequenceToFasta", func(m *module.Module) {
			m.Bind(&transport.RESTExecutor{BaseURL: restSrv.URL, ModuleID: "sequenceToFasta"})
		}},
	} {
		e, _ := u.Catalog.Get(tc.id)
		local, _, err := gen.Generate(e.Module)
		if err != nil {
			t.Fatalf("%s local generation: %v", tc.id, err)
		}
		proxy := &module.Module{
			ID: tc.id + "@remote", Name: e.Module.Name,
			Inputs:  append([]module.Parameter(nil), e.Module.Inputs...),
			Outputs: append([]module.Parameter(nil), e.Module.Outputs...),
		}
		tc.bind(proxy)
		remote, _, err := gen.Generate(proxy)
		if err != nil {
			t.Fatalf("%s remote generation: %v", tc.id, err)
		}
		if len(remote) != len(local) {
			t.Fatalf("%s: %d remote vs %d local examples", tc.id, len(remote), len(local))
		}
		for i := range local {
			if !remote[i].Equal(local[i]) {
				t.Errorf("%s: example %d differs across the wire:\n local %s\nremote %s",
					tc.id, i, local[i], remote[i])
			}
		}
	}
}

// TestAnnotateThenGenerate runs the full curator pipeline of Figure 3: an
// unannotated module gets concepts from the schema-matching assistant,
// then data examples from the generator.
func TestAnnotateThenGenerate(t *testing.T) {
	u := integrationUniverse(t)
	raw := &module.Module{
		ID: "mystery-service", Name: "op4711",
		Inputs:  []module.Parameter{{Name: "uniprot_accession", Struct: typesys.StringType}},
		Outputs: []module.Parameter{{Name: "go_term_list", Struct: typesys.ListOf(typesys.StringType)}},
	}
	raw.Bind(module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
		acc := string(in["uniprot_accession"].(typesys.StringValue))
		e, ok := u.DB.ByUniprot(acc)
		if !ok {
			return nil, module.ErrRejectedInput
		}
		items := make([]typesys.Value, len(e.GOTerms))
		for i, g := range e.GOTerms {
			items[i] = typesys.Str(g)
		}
		return map[string]typesys.Value{"go_term_list": typesys.MustList(typesys.StringType, items...)}, nil
	}))

	a := annotate.NewAnnotator(u.Ont)
	if n := a.AnnotateModule(raw, 0.55); n != 2 {
		t.Fatalf("annotated %d parameters, want 2", n)
	}
	if raw.Inputs[0].Semantic != simulation.CUniprotAcc {
		t.Fatalf("input annotated %q", raw.Inputs[0].Semantic)
	}
	if raw.Outputs[0].Semantic != simulation.CGOTermList {
		t.Fatalf("output annotated %q", raw.Outputs[0].Semantic)
	}
	set, rep, err := u.Gen.Generate(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || rep.InputCoverage() != 1 {
		t.Errorf("examples = %d, coverage %.2f", len(set), rep.InputCoverage())
	}
	// The assistant-annotated mystery module now matches its catalog twin.
	cmp := match.NewComparer(u.Ont, u.Gen)
	twin, _ := u.Catalog.Get("uniprotToGO")
	res, err := cmp.Compare(raw, twin.Module)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != match.Equivalent {
		t.Errorf("verdict = %v, want equivalent", res.Verdict)
	}
}

// TestAnnotationStatePersistence round-trips the complete annotation
// state — registry with examples plus provenance corpus — and verifies
// matching works from the reloaded artefacts alone.
func TestAnnotationStatePersistence(t *testing.T) {
	u := integrationUniverse(t)

	// Annotate a module and enact a workflow for provenance.
	reg := registry.New()
	for _, id := range []string{"geneToUniprot", "getUniprotRecord", "getUniprotRecord-ddbj"} {
		e, _ := u.Catalog.Get(id)
		reg.MustRegister(e.Module)
	}
	set, _, err := u.Gen.Generate(mustEntry(t, u, "getUniprotRecord").Module)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SetExamples("getUniprotRecord", set); err != nil {
		t.Fatal(err)
	}
	corpus := provenance.NewCorpus()
	en := &workflow.Enactor{Reg: reg, Recorder: corpus}
	wf := &workflow.Workflow{
		ID: "it-wf", Name: "gene to record",
		Inputs:  []workflow.Port{{Name: "gene", Struct: typesys.StringType, Semantic: simulation.CGeneName}},
		Outputs: []workflow.Port{{Name: "record", Struct: typesys.StringType, Semantic: simulation.CUniprotRecord}},
		Steps: []workflow.Step{
			{ID: "map", ModuleID: "geneToUniprot"},
			{ID: "get", ModuleID: "getUniprotRecord"},
		},
		Links: []workflow.Link{
			{From: workflow.PortRef{Port: "gene"}, To: workflow.PortRef{Step: "map", Port: "gene"}},
			{From: workflow.PortRef{Step: "map", Port: "accession"}, To: workflow.PortRef{Step: "get", Port: "accession"}},
			{From: workflow.PortRef{Step: "get", Port: "record"}, To: workflow.PortRef{Port: "record"}},
		},
	}
	entry, _ := u.DB.ByIndex(3)
	if _, err := en.Enact(wf, map[string]typesys.Value{"gene": typesys.Str(entry.GeneName)}); err != nil {
		t.Fatal(err)
	}

	// Persist everything.
	var regBuf, corpusBuf, wfBuf bytes.Buffer
	if err := reg.Save(&regBuf); err != nil {
		t.Fatal(err)
	}
	if err := corpus.Save(&corpusBuf); err != nil {
		t.Fatal(err)
	}
	if err := wf.Save(&wfBuf); err != nil {
		t.Fatal(err)
	}

	// Reload into a fresh process image; executors only for the substitute.
	reg2, err := registry.Load(&regBuf, func(id string) module.Executor {
		if id == "getUniprotRecord-ddbj" {
			e, _ := u.Catalog.Get("getUniprotRecord-ddbj")
			return module.ExecFunc(func(in map[string]typesys.Value) (map[string]typesys.Value, error) {
				return e.Module.Invoke(in)
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus2, err := provenance.Load(&corpusBuf)
	if err != nil {
		t.Fatal(err)
	}
	wf2, err := workflow.Load(&wfBuf)
	if err != nil {
		t.Fatal(err)
	}

	// The original module decays; its reloaded examples still identify the
	// substitute.
	if err := reg2.SetAvailable("getUniprotRecord", false); err != nil {
		t.Fatal(err)
	}
	sig, _ := reg2.Get("getUniprotRecord")
	cmp := match.NewComparer(u.Ont, nil)
	subs, err := cmp.FindSubstitutesContext(context.Background(),
		match.Unavailable{Signature: sig.Module, Examples: sig.Examples},
		reg2.Available())
	if err != nil {
		t.Fatal(err)
	}
	cands := subs.Ranked
	found := false
	for _, c := range cands {
		if c.Module.ID == "getUniprotRecord-ddbj" && c.Result.Verdict == match.Equivalent {
			found = true
		}
	}
	if !found {
		t.Errorf("reloaded examples failed to identify the substitute: %v", cands)
	}

	// Reloaded provenance still reconstructs examples for the decayed
	// module, and the reloaded workflow references it.
	if got := corpus2.ExamplesFor("getUniprotRecord"); len(got) == 0 {
		t.Error("reloaded corpus reconstructs no examples")
	}
	ids := wf2.ModuleIDs()
	if len(ids) != 2 || ids[1] != "getUniprotRecord" {
		t.Errorf("reloaded workflow modules = %v", ids)
	}
}

// TestGenerationSurvivesFlakyRemote injects transport failures: the
// remote provider dies midway through the partition sweep. The generator
// must classify the 502s as transient transport faults (not §3.2
// abnormal terminations — the module never rejected the inputs), retry
// its budget, record the persistent ones as TransientFailures, and still
// return the examples it obtained rather than aborting.
func TestGenerationSurvivesFlakyRemote(t *testing.T) {
	u := integrationUniverse(t)
	served := registry.New()
	e, _ := u.Catalog.Get("getRecordSummary") // 15 partitions: plenty of calls
	served.MustRegister(e.Module)

	var calls int32
	inner := transport.RESTHandler(served)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) > 6 {
			http.Error(w, "provider interrupted", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	proxy := &module.Module{
		ID: "summary@flaky", Name: e.Module.Name,
		Inputs:  append([]module.Parameter(nil), e.Module.Inputs...),
		Outputs: append([]module.Parameter(nil), e.Module.Outputs...),
	}
	proxy.Bind(&transport.RESTExecutor{BaseURL: flaky.URL, ModuleID: "getRecordSummary"})

	gen := core.NewGenerator(u.Ont, u.Pool)
	set, rep, err := gen.Generate(proxy)
	if err != nil {
		t.Fatalf("flaky remote must not abort generation: %v", err)
	}
	if len(set) == 0 || len(set) >= 15 {
		t.Errorf("expected partial example set, got %d", len(set))
	}
	if rep.TransientFailures == 0 {
		t.Error("persistent transport faults should be recorded as transient failures")
	}
	if rep.TransientRetries == 0 {
		t.Error("the generator should have retried transient faults")
	}
	if rep.FailedCombinations != 0 {
		t.Errorf("transport faults misreported as %d abnormal terminations", rep.FailedCombinations)
	}
	if rep.InputCoverage() >= 1 {
		t.Error("partial coverage expected under failure injection")
	}
}

func mustEntry(t testing.TB, u *simulation.Universe, id string) *simulation.CatalogEntry {
	t.Helper()
	e, ok := u.Catalog.Get(id)
	if !ok {
		t.Fatalf("unknown module %s", id)
	}
	return e
}
