package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/simulation"
	"dexa/internal/store"
)

// annotate is curation under module drift. Each client owns a disjoint
// half of the drift-sensitive catalog. Half of its operations flip one
// owned module between its original executor and
// simulation.MutantExecutor and regenerate it (POST generate?refresh=1),
// so every write changes content and takes the durable group-commit
// path; the rest read back what was written: examples,
// /search?q=behaves:<module> and /matches. A durable follower tails the
// leader's /wal. No read invokes a module live, so a rebind only ever
// races nothing: the module it touches is the client's own.
type annotate struct {
	n      *node
	owned  [][]string
	orig   map[string]string             // module -> hash with the original executor
	drift  map[string]string             // module -> hash with the mutant executor
	sets   map[string][2]dataexample.Set // module -> (original, drifted) examples
	size   map[string][2]int             // module -> encoded set bytes (original, drifted)
	mutant map[string]module.Executor
	lag    *lagTracker

	mu        sync.Mutex
	userBytes int64
}

func (an *annotate) setup(w *world, seed int64, clients int) error {
	n, err := w.single(true)
	if err != nil {
		return err
	}
	an.n = n
	if err := w.follow(n); err != nil {
		return err
	}
	if err := w.annotate(clients); err != nil {
		return err
	}
	if err := w.catchUp(n, 30*time.Second); err != nil {
		return err
	}
	an.orig, an.drift = map[string]string{}, map[string]string{}
	an.sets, an.size = map[string][2]dataexample.Set{}, map[string][2]int{}
	an.mutant = map[string]module.Executor{}
	for _, m := range w.u.Registry.Modules() {
		set, hash, _ := n.st.Get(m.ID)
		raw := w.raw[m.ID]
		drifted := *m
		drifted.Bind(simulation.MutantExecutor(raw))
		dset, _, err := w.u.Gen.Generate(&drifted)
		if err != nil {
			continue
		}
		dhash, err := store.HashSet(dset)
		if err != nil || dhash == hash {
			continue
		}
		an.orig[m.ID], an.drift[m.ID] = hash, dhash
		an.sets[m.ID] = [2]dataexample.Set{set, dset}
		an.size[m.ID] = [2]int{encodedSize(set), encodedSize(dset)}
		an.mutant[m.ID] = w.wrap(m.ID, simulation.MutantExecutor(raw))
	}
	an.plan(w, seed, clients)
	if err := an.fillWindow(w); err != nil {
		return err
	}
	an.lag = &lagTracker{st: w.fst}
	w.goBG(func() { an.lag.run(w.ctx) })
	return nil
}

// replWindow is the store's replication window in records.
const replWindow = 4096

// fillWindow brings the leader's and the follower's replication windows
// to their steady state before timing, as in a long-running curation
// service: whole-catalog drift rounds through PutBatch, an even number
// of them so every module ends on its original content. A filling window
// would make the live heap track how many writes a run managed.
func (an *annotate) fillWindow(w *world) error {
	ids := make([]string, 0, len(an.sets))
	for _, id := range w.u.Registry.IDs() {
		if _, ok := an.sets[id]; ok {
			ids = append(ids, id)
		}
	}
	rounds := (replWindow + len(ids) - 1) / len(ids)
	rounds += rounds % 2
	for r := 0; r < rounds; r++ {
		items := make([]store.PutItem, len(ids))
		for i, id := range ids {
			items[i] = store.PutItem{ID: id, Examples: an.sets[id][1-r%2]}
		}
		if _, err := an.n.st.PutBatch(items); err != nil {
			return fmt.Errorf("filling the replication window: %w", err)
		}
	}
	return w.catchUp(an.n, 30*time.Second)
}

func encodedSize(set dataexample.Set) int {
	b, err := store.EncodeSet(set)
	if err != nil {
		return 0
	}
	return len(b)
}

// plan deals the drift-sensitive modules (those whose mutant changes
// their examples) to the clients. Before setup has found them, every
// module counts.
func (an *annotate) plan(w *world, seed int64, clients int) {
	var ids []string
	for _, id := range w.u.Registry.IDs() {
		if an.drift == nil || an.drift[id] != "" {
			ids = append(ids, id)
		}
	}
	an.owned = split(ids, rand.New(rand.NewSource(seed)), clients)
}

// next makes half of the operations writes. The reads weigh examples,
// search and /matches 6:3:1, as dexa-load's default mix does.
func (an *annotate) next(rng *rand.Rand, c int) op {
	owned := an.owned[c]
	id := owned[rng.Intn(len(owned))]
	switch r := rng.Intn(20); {
	case r < 10:
		return op{kind: kindGenerate, path: generatePath(id) + "?refresh=1", module: id}
	case r < 16:
		return op{kind: kindLookup, path: examplesPath(id), module: id}
	case r < 19:
		return op{kind: kindSearch, path: query{"behaves", "behaves:" + id}.path(), module: id}
	default:
		return op{kind: kindMatches, path: "/matches"}
	}
}

func (an *annotate) current(c *client, id string) string {
	if c.drifted[id] {
		return an.drift[id]
	}
	return an.orig[id]
}

func (an *annotate) exec(w *world, c *client, o op) {
	url := an.n.url + "/api" + o.path
	switch o.kind {
	case kindGenerate:
		drift := !c.drifted[o.module]
		e, _ := w.u.Registry.Get(o.module)
		want, bytes := an.orig[o.module], an.size[o.module][0]
		if drift {
			e.Module.Bind(an.mutant[o.module])
			want, bytes = an.drift[o.module], an.size[o.module][1]
		} else {
			e.Module.Bind(w.execs[o.module])
		}
		c.drifted[o.module] = drift
		a := c.request(o.kind, http.MethodPost, url, nil, func(a answer) error { return checkWrite(a, want) })
		if a.status == http.StatusOK {
			an.lag.add(an.n.st.Seq(), time.Now())
			an.mu.Lock()
			an.userBytes += int64(bytes)
			an.mu.Unlock()
		}
	case kindLookup:
		want := an.current(c, o.module)
		c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return checkExamples(a, want) })
	case kindSearch:
		c.request(o.kind, http.MethodGet, url, nil, checkSearchShape)
	case kindMatches:
		c.noteMatches(c.request(o.kind, http.MethodGet, url, nil, func(a answer) error { return wantStatus(a, http.StatusOK) }))
	}
}

// finish checks that the follower converged on the leader's hashes and
// that the served matrix equals a fresh full build.
func (an *annotate) finish(w *world) []error {
	if err := w.catchUp(an.n, 30*time.Second); err != nil {
		return []error{err}
	}
	leader, follower := map[string]string{}, map[string]string{}
	for _, id := range an.n.st.IDs() {
		leader[id], _ = an.n.st.Hash(id)
	}
	for _, id := range w.fst.IDs() {
		follower[id], _ = w.fst.Hash(id)
	}
	errs := checkReplica(leader, follower)
	body, status, hdr, err := roundTrip(w.ctx, w.http, http.MethodGet, an.n.url+"/api/matches", nil)
	if err != nil {
		return append(errs, err)
	}
	fresh, err := an.n.cmp.MatchMatrixFromKeyedSets(context.Background(), w.u.Registry.Modules(), w.keyed(an.n))
	if err != nil {
		return append(errs, err)
	}
	if err := checkMatrixFresh(answer{status: status, body: body, header: hdr}, fresh); err != nil {
		errs = append(errs, fmt.Errorf("final /matches: %w", err))
	}
	return errs
}

// lagTracker measures replication lag: the time from a write's
// acknowledgement to the follower's store holding it. The leader's
// sequence at the acknowledgement bounds the write's own, and the
// follower applies in sequence order, so the write has arrived once the
// follower's sequence reaches it.
//
// The tracker reads only the follower's Seq. Store.Get, Hash and Version
// race with ApplyReplicatedBatch, which writes the shard maps without
// the shard locks, so reading them on a follower while it applies can
// crash the process ("concurrent map read and map write").
type lagTracker struct {
	st *store.Store

	mu      sync.Mutex
	pending []pendingWrite
	lags    dist
}

type pendingWrite struct {
	seq   uint64
	acked time.Time
}

func (l *lagTracker) add(seq uint64, acked time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, pendingWrite{seq, acked})
	l.settle(acked)
}

// settle records every pending write the follower now holds; called
// with l.mu held.
func (l *lagTracker) settle(now time.Time) {
	applied := l.st.Seq()
	kept := l.pending[:0]
	for _, p := range l.pending {
		if applied >= p.seq {
			l.lags = append(l.lags, max(0, ms(now.Sub(p.acked))))
			continue
		}
		kept = append(kept, p)
	}
	l.pending = kept
}

func (l *lagTracker) run(ctx context.Context) {
	cursor := l.st.Seq()
	for {
		select {
		case <-ctx.Done():
			return
		case <-l.st.ReplicationChanged(cursor):
		}
		cursor = l.st.Seq()
		now := time.Now()
		l.mu.Lock()
		l.settle(now)
		l.mu.Unlock()
	}
}

// resetWindow drops the lags and written bytes recorded so far, so the
// next measurement window starts empty.
func (an *annotate) resetWindow() {
	an.lag.mu.Lock()
	an.lag.lags = nil
	an.lag.mu.Unlock()
	an.mu.Lock()
	an.userBytes = 0
	an.mu.Unlock()
}
