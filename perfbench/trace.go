package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dexa/internal/core"
	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

// The traced run records spans from outside the program, around the
// interfaces the benchmark hands the server: the http.Handler of every
// node, the core.ExampleGenerator given to store.NewSource, and every
// module.Executor (rebound through Module.Bind at setup). The load
// clients open the root span of each operation. Spans stay in memory and
// are written as JSON lines when the run ends.
//
// Layers, by span-name prefix:
//
//	http     client request, root of one operation (latency as the caller sees it)
//	serve    a public API request handled by a node
//	cluster  an intra-cluster hop (/cluster/*, owner example fetches, /wal)
//	core     one example-generation run
//	module   one module invocation
//
// Links: a serve span finds its client span through the X-Request-ID the
// client sends (redirects keep the header), and a core span finds its
// serve span through the request context. Hops and module invocations
// carry no link the benchmark can see, so each is parented to the
// in-flight span that can have caused it: a module invocation to the
// generation run of the same module, else to the longest-running
// substitutes or compose hop, else handler (a cache hit answers in
// microseconds, so the long runner is the one comparing); a hop to the
// most recently started public handler of the kind that issues it.

const (
	layerHTTP    = "http"
	layerServe   = "serve"
	layerCluster = "cluster"
	layerCore    = "core"
	layerModule  = "module"
)

var layers = []string{layerHTTP, layerServe, layerCluster, layerCore, layerModule}

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Req    string `json:"req,omitempty"`
	Module string `json:"module,omitempty"`
	Node   string `json:"node,omitempty"` // serving node of serve and cluster spans
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	layer  string
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans while on is set.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	// invocations counts module invocations whether or not spans are on.
	invocations atomic.Uint64

	mu      sync.Mutex
	open    map[uint64]*span
	clients map[string]*span // in-flight client spans by request ID
	done    []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[uint64]*span{}, clients: map[string]*span{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens sp (nil when tracing is off); pick, when set, chooses the
// parent among the in-flight spans under the tracer lock.
func (t *tracer) begin(sp *span, pick func(open map[uint64]*span) *span) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	sp.ID = t.ids.Add(1)
	sp.layer, _, _ = strings.Cut(sp.Name, ".")
	t.mu.Lock()
	if pick != nil {
		if p := pick(t.open); p != nil {
			sp.Parent = p.ID
			if sp.Kind == "" {
				sp.Kind = p.Kind
			}
		}
	}
	sp.Start = t.now()
	t.open[sp.ID] = sp
	if sp.layer == layerHTTP {
		t.clients[sp.Req] = sp
	}
	t.mu.Unlock()
	return sp
}

func (t *tracer) end(sp *span) {
	if sp == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	sp.End = end
	delete(t.open, sp.ID)
	if sp.layer == layerHTTP {
		delete(t.clients, sp.Req)
	}
	t.done = append(t.done, *sp)
	t.mu.Unlock()
}

// take returns the finished spans and clears them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// clientSpan opens the root span of one operation.
func (t *tracer) clientSpan(kind, req string) *span {
	return t.begin(&span{Name: layerHTTP + "." + kind, Kind: kind, Req: req}, nil)
}

type spanKey struct{}

// handler wraps a node's whole handler (API, /wal) in serve or cluster
// spans.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req := r.Header.Get("X-Request-ID")
		var sp *span
		t.mu.Lock()
		client := t.clients[req]
		t.mu.Unlock()
		if client != nil {
			sp = t.begin(&span{Name: layerServe + "." + client.Kind, Kind: client.Kind, Req: req, Parent: client.ID, Node: node}, nil)
		} else {
			name, kind := hopOf(r.URL.Path)
			sp = t.begin(&span{Name: layerCluster + "." + name, Kind: kind, Node: node}, func(open map[uint64]*span) *span {
				if kind == "" {
					return nil
				}
				return newest(open, func(s *span) bool { return s.layer == layerServe && s.Kind == kind })
			})
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		t.end(sp)
	})
}

// hopOf names an intra-cluster request and the public operation kind
// that issues it. The /wal feed serves replication, no operation.
func hopOf(path string) (name, kind string) {
	switch {
	case path == "/wal":
		return "wal", ""
	case strings.HasSuffix(path, "/cluster/substitutes"):
		return "substitutes", "substitutes"
	case strings.HasSuffix(path, "/cluster/search"):
		return "search", "search"
	case strings.HasSuffix(path, "/cluster/matrix"):
		return "matrix", "matches"
	case strings.HasSuffix(path, "/cluster/sets"):
		return "sets", "matches"
	case strings.HasSuffix(path, "/cluster/info"):
		return "info", "matches"
	case strings.HasSuffix(path, "/examples"):
		// Router.FetchExamples: a non-owner shard fetching a substitute
		// target's annotation from its owner.
		return "fetch_examples", "substitutes"
	}
	return "other", ""
}

// newest returns the most recently started open span satisfying ok.
func newest(open map[uint64]*span, ok func(*span) bool) *span {
	var best *span
	for _, s := range open {
		if ok(s) && (best == nil || s.Start > best.Start) {
			best = s
		}
	}
	return best
}

// oldest returns the longest-running open span satisfying ok.
func oldest(open map[uint64]*span, ok func(*span) bool) *span {
	var best *span
	for _, s := range open {
		if ok(s) && (best == nil || s.Start < best.Start) {
			best = s
		}
	}
	return best
}

// tracedGenerator records a core span around every generation run.
type tracedGenerator struct {
	t     *tracer
	inner core.ExampleGenerator
}

var _ core.ContextExampleGenerator = tracedGenerator{}

func (g tracedGenerator) Generate(m *module.Module) (dataexample.Set, *core.Report, error) {
	return g.GenerateContext(context.Background(), m)
}

func (g tracedGenerator) GenerateContext(ctx context.Context, m *module.Module) (dataexample.Set, *core.Report, error) {
	parent, _ := ctx.Value(spanKey{}).(*span)
	sp := &span{Name: layerCore + ".generate", Module: m.ID}
	if parent != nil {
		sp.Parent, sp.Kind = parent.ID, parent.Kind
	}
	sp = g.t.begin(sp, nil)
	defer g.t.end(sp)
	return core.GenerateWithContext(ctx, g.inner, m)
}

// tracedExecutor records a module span around every invocation.
type tracedExecutor struct {
	t     *tracer
	id    string
	inner module.Executor
}

func (e tracedExecutor) Invoke(in map[string]typesys.Value) (map[string]typesys.Value, error) {
	e.t.invocations.Add(1)
	sp := e.t.begin(&span{Name: layerModule + ".invoke", Module: e.id}, func(open map[uint64]*span) *span {
		if p := newest(open, func(s *span) bool { return s.layer == layerCore && s.Module == e.id }); p != nil {
			return p
		}
		for _, layer := range []string{layerCluster, layerServe} {
			if p := oldest(open, func(s *span) bool {
				return s.layer == layer && (s.Kind == kindSubstitutes || s.Kind == kindCompose)
			}); p != nil {
				return p
			}
		}
		return nil
	})
	defer e.t.end(sp)
	return e.inner.Invoke(in)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the per-layer report needs from the spans.
type traceSummary struct {
	ops          map[string]int              // client spans per kind
	clientNs     map[string]int64            // summed client latency per kind
	selfNs       map[string]map[string]int64 // kind -> layer -> summed self time
	overheadMs   dist                        // client latency minus handler time
	handlerMs    map[string]dist             // per kind: summed public handler time per op
	coreMs       dist
	moduleUs     dist
	moduleByKind map[string]int
	hopMs        dist
	hops         int
	slowestShare dist
}

// summarize derives self times and per-kind attribution from spans.
func summarize(spans []span) traceSummary {
	s := traceSummary{
		ops: map[string]int{}, clientNs: map[string]int64{}, selfNs: map[string]map[string]int64{},
		handlerMs: map[string]dist{}, moduleByKind: map[string]int{},
	}
	children := map[uint64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		self := sp.dur() - covered(sp, kids)
		if sp.Kind != "" {
			if s.selfNs[sp.Kind] == nil {
				s.selfNs[sp.Kind] = map[string]int64{}
			}
			s.selfNs[sp.Kind][sp.layer] += self
		}
		switch sp.layer {
		case layerHTTP:
			s.ops[sp.Kind]++
			s.clientNs[sp.Kind] += sp.dur()
			var handler int64
			for _, k := range kids {
				handler += k.dur()
			}
			s.overheadMs = append(s.overheadMs, float64(sp.dur()-handler)/1e6)
			s.handlerMs[sp.Kind] = append(s.handlerMs[sp.Kind], float64(handler)/1e6)
		case layerServe:
			rounds := map[string]int64{}
			for _, k := range kids {
				if k.layer == layerCluster && k.dur() > rounds[k.Name] {
					rounds[k.Name] = k.dur()
				}
			}
			if len(rounds) > 0 && sp.dur() > 0 {
				var wait int64
				for _, d := range rounds {
					wait += d
				}
				s.slowestShare = append(s.slowestShare, float64(wait)/float64(sp.dur()))
			}
		case layerCluster:
			if sp.Kind != "" {
				s.hops++
				s.hopMs = append(s.hopMs, float64(sp.dur())/1e6)
			}
		case layerCore:
			s.coreMs = append(s.coreMs, float64(sp.dur())/1e6)
		case layerModule:
			s.moduleUs = append(s.moduleUs, float64(sp.dur())/1e3)
			s.moduleByKind[sp.Kind]++
		}
	}
	return s
}

// covered returns how much of sp's interval its children cover (their
// union, clipped to sp).
func covered(sp *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, sp.Start), min(k.End, sp.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}
