package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dexa/internal/cluster"
	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/match"
	"dexa/internal/module"
	"dexa/internal/search"
	"dexa/internal/serve"
	"dexa/internal/simulation"
	"dexa/internal/store"
	"dexa/internal/telemetry"
)

// The store runs durable, as `dexa-serve -store DIR -store-sync` does
// with its default compaction period and WAL batch window.
const (
	compactEvery = 256
	syncOnPut    = true
)

// node is one in-process dexa-serve instance on a loopback listener,
// wired from the same constructors cmd/dexa-serve uses.
type node struct {
	name   string
	reg    *telemetry.Registry
	st     *store.Store
	source *store.Source
	cmp    *match.Comparer
	search *search.Index
	api    *serve.Server
	feed   *cluster.Feed
	clus   *cluster.Node
	srv    *http.Server
	ln     net.Listener
	url    string
}

// world is one set-up of a workload: the universe, its serving nodes and
// their background goroutines.
type world struct {
	u   *simulation.Universe
	tr  *tracer // nil: untraced wiring
	dir string

	nodes  []*node
	oracle *node // sharded: the single-node oracle

	fst      *store.Store // annotate: the follower's store
	follower *cluster.Follower
	freg     *telemetry.Registry

	// raw holds each module's executor as the universe built it; execs
	// the one bound at set-up (wrapped in a module span in a traced run),
	// so workloads can rebind and restore it.
	raw   map[string]module.Executor
	execs map[string]module.Executor

	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup
	stores []*store.Store
	http   *http.Client
}

func newWorld(root string, tr *tracer) (*world, error) {
	w := &world{tr: tr, raw: map[string]module.Executor{}, execs: map[string]module.Executor{}}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	dir, err := os.MkdirTemp(root, "stores-")
	if err != nil {
		return nil, fmt.Errorf("creating store dir: %w", err)
	}
	w.dir = dir
	w.u = simulation.NewUniverse()
	for _, m := range w.u.Registry.Modules() {
		w.raw[m.ID] = m.Executor()
		w.execs[m.ID] = w.wrap(m.ID, m.Executor())
		m.Bind(w.execs[m.ID])
	}
	w.http = &http.Client{Timeout: 60 * time.Second}
	return w, nil
}

// wrap returns exec as the world binds it: inside a module span when
// the run is traced.
func (w *world) wrap(id string, exec module.Executor) module.Executor {
	if w.tr == nil {
		return exec
	}
	return tracedExecutor{t: w.tr, id: id, inner: exec}
}

// keyed is n's store as a matrix source.
func (w *world) keyed(n *node) match.KeyedSource {
	return func(id string) (*dataexample.KeyedSet, bool) {
		set, _, ok := n.st.GetKeyed(id)
		return set, ok
	}
}

func (w *world) goBG(fn func()) {
	w.bg.Add(1)
	go func() {
		defer w.bg.Done()
		fn()
	}()
}

// newNode wires one serving node the way cmd/dexa-serve does: store,
// store-backed source, comparer with its catalog index, availability
// sync, search index with its syncer, and the API server. An empty dir
// opens a memory-only store (the sharded workload's oracle).
func (w *world) newNode(name, dir string) (*node, error) {
	reg := telemetry.NewRegistry()
	serve.InstrumentOntology(reg, w.u.Ont)
	opts := store.Options{CompactEvery: compactEvery, SyncOnPut: syncOnPut, Metrics: reg}
	if dir != "" {
		dir = filepath.Join(w.dir, dir)
	}
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	w.stores = append(w.stores, st)
	w.u.Registry.LoadExamplesFrom(st)

	var gen core.ExampleGenerator = w.u.Gen
	if w.tr != nil {
		gen = tracedGenerator{t: w.tr, inner: gen}
	}
	source := store.NewSource(st, gen)
	serve.InstrumentSource(reg, source)
	cmp := match.NewComparer(w.u.Ont, source)
	cmp.Index = match.NewCatalogIndex(w.u.Ont, w.u.Registry.Modules())
	cmp.Index.Instrument(reg)
	cmp.Metrics = reg
	serve.SyncIndex(w.u.Registry, cmp.Index)

	six := search.New(w.u.Ont)
	six.Instrument(reg)
	syncer := &search.Syncer{Registry: w.u.Registry, Store: st, Index: six}
	syncer.IndexAll()
	syncer.HookAvailability()
	w.goBG(func() { syncer.Watch(w.ctx) })

	n := &node{name: name, reg: reg, st: st, source: source, cmp: cmp, search: six}
	n.api = &serve.Server{
		Registry:    w.u.Registry,
		Store:       st,
		Source:      source,
		Comparer:    cmp,
		SearchIndex: six,
		Telemetry:   reg,
		Tracer:      telemetry.NewTracer(telemetry.DefaultTraceCapacity),
	}
	n.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + n.ln.Addr().String()
	return n, nil
}

// start mounts the node's handlers (the dexa-serve layout: API under
// /api, the replication feed at /wal) and serves.
func (w *world) start(n *node) {
	mux := http.NewServeMux()
	mux.Handle("/api/", http.StripPrefix("/api", n.api.Handler()))
	if n.feed != nil {
		mux.Handle("/wal", n.feed)
	}
	// Liveness and readiness as dexa-serve answers them; shard health
	// checkers probe /readyz.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "ok: %d annotated in store\n", n.st.Len())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	var h http.Handler = mux
	if w.tr != nil {
		h = w.tr.handler(n.name, h)
	}
	n.srv = &http.Server{Handler: h}
	w.goBG(func() { n.srv.Serve(n.ln) })
}

// single builds one durable node. With feed set it also mounts the WAL
// replication feed a follower tails.
func (w *world) single(feed bool) (*node, error) {
	n, err := w.newNode("leader", "leader")
	if err != nil {
		return nil, err
	}
	if feed {
		n.feed = cluster.NewFeed(n.st, cluster.NewMetrics(n.reg))
	}
	w.start(n)
	w.nodes = []*node{n}
	return n, nil
}

// sharded builds a static two-shard cluster (`dexa-serve -cluster-config
// ... -cluster-self sN`) plus a memory-only single-node oracle.
func (w *world) sharded(names []string) error {
	var cfg cluster.Config
	for _, name := range names {
		n, err := w.newNode(name, name)
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, n)
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Name: name, URL: n.url})
	}
	for _, n := range w.nodes {
		cn, err := cluster.NewShardNode(cfg, n.name, n.reg)
		if err != nil {
			return err
		}
		n.feed = cluster.NewFeed(n.st, cn.Metrics)
		cn.Feed = n.feed
		n.clus = cn
		n.api.Cluster = cn
		w.goBG(func() { cn.Checker.Run(w.ctx) })
		w.start(n)
	}
	oracle, err := w.newNode("oracle", "")
	if err != nil {
		return err
	}
	w.oracle = oracle
	w.start(oracle)
	return nil
}

// follow starts a durable follower tailing leader's /wal
// (`dexa-serve -store DIR -store-sync -follow URL`).
func (w *world) follow(leader *node) error {
	w.freg = telemetry.NewRegistry()
	fst, err := store.Open(filepath.Join(w.dir, "follower"), store.Options{CompactEvery: compactEvery, SyncOnPut: syncOnPut, Metrics: w.freg})
	if err != nil {
		return err
	}
	w.stores = append(w.stores, fst)
	w.fst = fst
	w.follower = &cluster.Follower{Leader: leader.url, Store: fst, Metrics: cluster.NewMetrics(w.freg)}
	w.goBG(func() { w.follower.Run(w.ctx) })
	return nil
}

// owner returns the node that stores a module's annotation.
func (w *world) owner(id string) *node {
	if len(w.nodes) == 1 {
		return w.nodes[0]
	}
	name := w.nodes[0].clus.Ring.Owner(id)
	for _, n := range w.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// annotate cold-annotates the whole catalog through POST /generate on
// each module's owner, from as many concurrent callers as the load uses.
func (w *world) annotate(clients int) error {
	ids := w.u.Registry.IDs()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ids); i += clients {
				url := w.owner(ids[i]).url + "/api/modules/" + ids[i] + "/generate"
				if _, _, err := w.do(http.MethodPost, url); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if w.oracle != nil {
		for _, id := range ids {
			e, _ := w.u.Registry.Get(id)
			if _, _, err := w.oracle.source.Generate(e.Module); err != nil {
				return fmt.Errorf("annotating %s on the oracle: %w", id, err)
			}
		}
	}
	return nil
}

// catchUp waits until the follower holds everything the leader has.
func (w *world) catchUp(leader *node, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		want := leader.st.Seq()
		if w.fst.Seq() >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d, leader at %d after %v", w.fst.Seq(), want, limit)
		}
		select {
		case <-w.fst.ReplicationChanged(w.fst.Seq()):
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// do issues one set-up request and returns the body and ETag of a 200.
func (w *world) do(method, url string) ([]byte, string, error) {
	body, status, hdr, err := roundTrip(w.ctx, w.http, method, url, nil)
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", fmt.Errorf("%s %s: status %d: %.200s", method, url, status, body)
	}
	return body, hdr.Get("ETag"), nil
}

// close stops every server and background goroutine, closes the stores
// and removes their files.
func (w *world) close() {
	for _, n := range append(append([]*node(nil), w.nodes...), w.oracle) {
		if n == nil {
			continue
		}
		if n.srv == nil {
			n.ln.Close()
			continue
		}
		if n.feed != nil {
			n.feed.BeginDrain()
		}
		n.api.BeginDrain()
		n.srv.Close()
	}
	w.cancel()
	w.bg.Wait()
	for _, st := range w.stores {
		st.Close()
	}
	w.http.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	os.RemoveAll(w.dir)
}
