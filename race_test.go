// Cross-package concurrency test backing the "safe for concurrent use"
// documentation of the parallel annotation engine: example generation,
// ontology reasoning and substitute search all run simultaneously from
// many goroutines over one shared universe. Run with -race.
package dexa

import (
	"context"
	"sync"
	"testing"

	"dexa/internal/match"
	"dexa/internal/simulation"
)

func TestConcurrentEngineUse(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer")
	}
	u := simulation.NewUniverse()
	cmp := match.NewComparer(u.Ont, u.Gen)

	// A target for the substitute search, prepared up front.
	entry, ok := u.Catalog.Get("getUniprotRecord")
	if !ok {
		t.Fatal("getUniprotRecord missing from catalog")
	}
	targetSet, _, err := u.Gen.Generate(entry.Module)
	if err != nil {
		t.Fatal(err)
	}
	target := match.Unavailable{Signature: entry.Module, Examples: targetSet}
	available := u.Registry.Available()

	var wg sync.WaitGroup
	fail := make(chan string, 64)
	// Generators: run the heuristic over a rotating catalog slice.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				e := u.Catalog.Entries[(w*13+i*7)%len(u.Catalog.Entries)]
				if _, _, err := u.Gen.Generate(e.Module); err != nil {
					fail <- "generate " + e.Module.ID + ": " + err.Error()
					return
				}
			}
		}(w)
	}
	// Reasoners: hammer the ontology cache.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := u.Ont.Concepts()
			for i := 0; i < 400; i++ {
				a, b := ids[i%len(ids)], ids[(i*31)%len(ids)]
				u.Ont.Subsumes(a, b)
				if _, err := u.Ont.Partitions(a); err != nil {
					fail <- "partitions: " + err.Error()
					return
				}
			}
		}()
	}
	// Matchers: full substitute searches (which themselves fan out).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				subs, err := cmp.FindSubstitutesContext(context.Background(), target, available)
				if err != nil {
					fail <- "substitutes: " + err.Error()
					return
				}
				if len(subs.Ranked) == 0 {
					fail <- "substitute search found no candidate (getUniprotRecord-ddbj expected)"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
}
