package match

import (
	"context"
	"strings"
	"testing"
	"time"

	"dexa/internal/module"
	"dexa/internal/typesys"
)

// panickingModule's executor panics on every invocation — the failure
// mode that used to kill a pool worker and deadlock the job feed.
func panickingModule(id string) *module.Module {
	m := seqModule(id, prefixer("X:"))
	m.Bind(module.ExecFunc(func(map[string]typesys.Value) (map[string]typesys.Value, error) {
		panic("executor exploded: " + id)
	}))
	return m
}

// TestFindSubstitutesRecoversPanickingCandidate is the regression test
// for the worker-pool deadlock: before the recover, a panicking
// comparison killed its worker goroutine and the unbuffered job feed
// blocked forever once the remaining workers were saturated. The search
// must instead complete at every worker width with the panicking
// candidate in Skipped and everything else ranked normally.
func TestFindSubstitutesRecoversPanickingCandidate(t *testing.T) {
	f, un, candidates := substituteWorld(t)
	candidates = append([]*module.Module{panickingModule("panics")}, candidates...)

	for _, workers := range []int{1, 2, 0} {
		f.cmp.Workers = workers
		var (
			subs Substitutes
			err  error
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			subs, err = f.cmp.FindSubstitutesContext(context.Background(), un, candidates)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: search deadlocked on a panicking candidate", workers)
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(subs.Ranked) != 6 {
			t.Errorf("workers=%d: ranked = %d, want 6", workers, len(subs.Ranked))
		}
		if len(subs.Skipped) != 1 {
			t.Fatalf("workers=%d: skipped = %+v, want exactly the panicking candidate", workers, subs.Skipped)
		}
		sk := subs.Skipped[0]
		if sk.ModuleID != "panics" || !strings.Contains(sk.Reason, "panic") ||
			!strings.Contains(sk.Reason, "executor exploded") {
			t.Errorf("workers=%d: skip record = %+v", workers, sk)
		}
	}
}

// TestFindSubstitutesManyPanickingCandidates saturates every worker with
// panics — the historical deadlock needed only workers-many dead
// goroutines, so a field of panicking candidates wider than the pool is
// the sharpest reproduction.
func TestFindSubstitutesManyPanickingCandidates(t *testing.T) {
	f, un, candidates := substituteWorld(t)
	for _, id := range []string{"p1", "p2", "p3", "p4", "p5", "p6"} {
		candidates = append(candidates, panickingModule(id))
	}
	f.cmp.Workers = 2
	done := make(chan struct{})
	var (
		subs Substitutes
		err  error
	)
	go func() {
		defer close(done)
		subs, err = f.cmp.FindSubstitutesContext(context.Background(), un, candidates)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("search deadlocked with panicking candidates saturating the pool")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(subs.Skipped) != 6 {
		t.Errorf("skipped = %d, want 6", len(subs.Skipped))
	}
	if len(subs.Ranked) != 6 {
		t.Errorf("ranked = %d, want 6", len(subs.Ranked))
	}
}
