package main

import (
	"math/rand"
	"reflect"
	"testing"
)

// streams draws n operations per client from a freshly planned workload.
func streams(t *testing.T, w *world, name string, seed int64, clients, n int) [][]op {
	t.Helper()
	wl, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	wl.plan(w, seed, clients)
	out := make([][]op, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(streamSeed(seed, c)))
		for i := 0; i < n; i++ {
			out[c] = append(out[c], wl.next(rng, c))
		}
	}
	return out
}

func TestOpStreamDeterministic(t *testing.T) {
	w, err := newWorld(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := streams(t, w, name, 7, 2, 500)
			b := streams(t, w, name, 7, 2, 500)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed gave different op streams")
			}
			if reflect.DeepEqual(a[0], a[1]) {
				t.Fatal("both clients drew the same stream")
			}
			if other := streams(t, w, name, 8, 2, 500); reflect.DeepEqual(a, other) {
				t.Fatal("different seeds gave the same op streams")
			}
			kinds := map[string]bool{}
			for _, o := range a[0] {
				kinds[o.kind] = true
			}
			if len(kinds) < 2 {
				t.Fatalf("stream exercises only %v", kinds)
			}
		})
	}
}

// TestOwnershipDisjoint: workloads whose clients mutate modules give each
// client its own modules, so no two clients rebind or retire one module.
func TestOwnershipDisjoint(t *testing.T) {
	w, err := newWorld(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	an, rp := &annotate{}, &repair{}
	an.plan(w, 3, 2)
	rp.plan(w, 3, 2)
	for _, owned := range [][][]string{an.owned, rp.owned} {
		seen := map[string]int{}
		for c, ids := range owned {
			for _, id := range ids {
				if prev, ok := seen[id]; ok {
					t.Fatalf("%s owned by clients %d and %d", id, prev, c)
				}
				seen[id] = c
			}
		}
		if len(seen) != len(w.u.Registry.IDs()) {
			t.Fatalf("%d of %d modules owned", len(seen), len(w.u.Registry.IDs()))
		}
	}
}
