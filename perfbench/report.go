package main

import (
	"fmt"
	"runtime"
	"sort"
)

// endToEndMetrics are the result's metrics of an untraced run; every
// workload reports each of them (see BENCHMARK.json).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"p99_cpu_ms", "ms"},
	{"matches_p50_cpu_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// layerMetricNames are the result's metrics of a traced run. A layer a
// workload never exercises reads 0.
var layerMetricNames = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"http.overhead_ms", "ms"},
		{"http.conns", "count"},
	}
	for _, k := range opKinds {
		out = append(out, struct{ name, unit string }{"serve.handler_ms." + k, "ms"})
	}
	out = append(out, []struct{ name, unit string }{
		{"serve.matches_bytes", "bytes"},
		{"serve.matrix_rebuild_ratio", "ratio"},
		{"serve.substitutes_miss_ratio", "ratio"},
		{"serve.not_modified_ratio", "ratio"},
		{"core.generate_ms", "ms"},
		{"core.generate_calls_per_write", "count"},
		{"module.invoke_us", "us"},
		{"module.invocations_per_op.generate", "count"},
		{"module.invocations_per_op.substitutes", "count"},
		{"module.invocations_per_op.compose", "count"},
		{"store.get_us", "us"},
		{"store.put_ms", "ms"},
		{"store.fsyncs_per_write", "count"},
		{"store.commit_batch_size", "count"},
		{"store.bytes_written_per_user_byte", "ratio"},
		{"store.compactions", "count"},
		{"store.put_noop_ratio", "ratio"},
		{"match.find_substitutes_ms", "ms"},
		{"match.candidates_compared_per_search", "count"},
		{"match.prune_ratio", "ratio"},
		{"match.matrix_ms", "ms"},
		{"match.pairs_recomputed_per_rebuild", "count"},
		{"search.query_us.keyword", "us"},
		{"search.query_us.concept", "us"},
		{"search.query_us.behaves", "us"},
		{"search.update_us", "us"},
		{"compose.plan_ms", "ms"},
		{"compose.enactments_per_plan", "count"},
		{"cluster.hops_per_op", "count"},
		{"cluster.shard_handler_ms", "ms"},
		{"cluster.slowest_shard_share", "ratio"},
		{"cluster.redirects_per_op", "count"},
		{"cluster.wal_records_per_fetch", "count"},
		{"cluster.wal_bytes_per_record", "bytes"},
		{"go.alloc_bytes_per_op", "bytes"},
		{"go.gc_pause_share", "ratio"},
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}...)
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{"self_ms_per_op." + l, "ms"})
	}
	for _, k := range opKinds {
		for _, l := range layers {
			out = append(out, struct{ name, unit string }{"share." + k + "." + l, "ratio"})
		}
	}
	return out
}()

// snapshot is the state of the layers' counters at one instant: the
// telemetry registries of the serving nodes (summed), their stores'
// Stats, generation runs, and the Go runtime.
type snapshot struct {
	tel               map[string]float64
	puts, noops, runs uint64
	walBytes, walRecs int64
	alloc, pauseNs    uint64
}

func (w *world) snapshot() snapshot {
	s := snapshot{tel: map[string]float64{}}
	for _, n := range w.nodes {
		for _, f := range n.reg.Snapshot().Families {
			for _, se := range f.Series {
				if f.Type == "histogram" {
					s.tel[f.Name+"_count"] += float64(se.Count)
					s.tel[f.Name+"_sum"] += se.Sum
					continue
				}
				s.tel[f.Name] += se.Value
			}
		}
		st := n.st.Stats()
		s.puts += st.Puts
		s.noops += st.PutNoops
		s.walBytes += st.WALBytes
		s.walRecs += st.WALRecords
		s.runs += n.source.Runs()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.alloc, s.pauseNs = m.TotalAlloc, m.PauseTotalNs
	return s
}

func (s snapshot) delta(before snapshot, name string) float64 { return s.tel[name] - before.tel[name] }

// report gathers one run's measurements.
type report struct {
	metrics map[string]metric // everything printed, the result's and the rest

	samples       []sample
	run           runStats
	untraced      []sample
	before, after snapshot
	matches       []matchAnswer
	redirects     int
	lags          dist
	userBytes     int64
	nodes         int
	spans         []span
	dials         int64
	heap          dist // live heap during the run and at its end, MB
	setups        dist
	probed        map[string]float64
}

// window records the measured window's samples and counters.
func (r *report) window(w *world, wl workload, clients []*client, before, after snapshot, ran runStats) {
	r.samples = collect(clients)
	r.run, r.heap = ran, ran.heap
	r.before, r.after = before, after
	r.nodes = len(w.nodes)
	for _, c := range clients {
		r.matches = append(r.matches, c.matches...)
		r.redirects += c.redirects
	}
	sort.Slice(r.matches, func(i, j int) bool { return r.matches[i].at.Before(r.matches[j].at) })
	if an, ok := wl.(*annotate); ok {
		an.lag.mu.Lock()
		r.lags = append(dist(nil), an.lag.lags...)
		an.lag.mu.Unlock()
		an.mu.Lock()
		r.userBytes = an.userBytes
		an.mu.Unlock()
	}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// byKind splits the successful samples' wall latencies by operation
// kind; cpu selects their CPU times instead.
func byKind(samples []sample, cpu bool) (all dist, kinds map[string]dist) {
	kinds = map[string]dist{}
	for _, s := range samples {
		if s.ok {
			v := s.ms
			if cpu {
				v = s.cpuMs
			}
			all = append(all, v)
			kinds[s.kind] = append(kinds[s.kind], v)
		}
	}
	return all, kinds
}

// endToEnd fills the untraced run's metrics and returns the result's.
// The result's times are CPU times: setup_s is the median of the run's
// set-ups, the rest cover every operation of the run. Wall-clock
// figures are printed beside them.
func (r *report) endToEnd(attempted, failed int) map[string]metric {
	cpu, cpuKinds := byKind(r.samples, true)
	cpuP99, cpuPct := cpu.tail()
	r.set("setup_s", "s", r.setups.median())
	r.set("cpu_ms_per_op", "ms", ratio(ms(r.run.cpu), float64(len(r.samples))))
	r.set("p99_cpu_ms", "ms", cpuP99)
	r.set("matches_p50_cpu_ms", "ms", cpuKinds[kindMatches].median())
	r.set("live_heap_mb", "MB", r.heap.median())

	// Printed beside the result: tail percentiles and sample counts, the
	// error rate, wall-clock rate and latencies, and the figures of the
	// kinds this workload issues.
	wall, kinds := byKind(r.samples, false)
	p99, pct := wall.tail()
	r.set("p50_cpu_ms", "ms", cpu.median())
	r.set("p99_cpu_ms.percentile", "%", cpuPct)
	r.set("p99_cpu_ms.samples", "count", float64(len(cpu)))
	r.set("error_rate", "ratio", ratio(float64(failed), float64(attempted)))
	r.set("ops_per_s", "1/s", float64(len(r.samples))/r.run.elapsed.Seconds())
	r.set("p50_ms", "ms", wall.median())
	r.set("p99_ms", "ms", p99)
	r.set("p99_ms.percentile", "%", pct)
	for _, k := range opKinds {
		if len(kinds[k]) > 0 {
			r.set(k+"_p50_ms", "ms", kinds[k].median())
			if k != kindMatches {
				r.set(k+"_p50_cpu_ms", "ms", cpuKinds[k].median())
			}
		}
	}
	if g := kinds[kindGenerate]; len(g) > 0 {
		v, pct := g.tail()
		r.set("generate_p99_ms", "ms", v)
		r.set("generate_p99_ms.percentile", "%", pct)
		r.set("generate_p99_ms.samples", "count", float64(len(g)))
	}
	if len(r.lags) > 0 {
		r.set("replica_lag_p50_ms", "ms", r.lags.median())
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = r.metrics[m.name]
	}
	return out
}

// layerMetrics fills the traced run's metrics and returns the result's.
func (r *report) layerMetrics(w *world) map[string]metric {
	v := map[string]float64{}
	b, a := r.before, r.after
	ops := float64(len(r.samples))
	_, kinds := byKind(r.samples, false)
	tr := summarize(r.spans)

	v["http.overhead_ms"] = tr.overheadMs.median()
	v["http.conns"] = float64(r.dials)
	for _, k := range opKinds {
		v["serve.handler_ms."+k] = tr.handlerMs[k].median()
	}

	var bytes, rebuilds float64
	for i, m := range r.matches {
		bytes += float64(m.bytes)
		if i > 0 && m.state != r.matches[i-1].state {
			rebuilds++
		}
	}
	v["serve.matches_bytes"] = ratio(bytes, float64(len(r.matches)))
	v["serve.matrix_rebuild_ratio"] = ratio(rebuilds, float64(len(r.matches)-1))
	v["serve.substitutes_miss_ratio"] = ratio(a.delta(b, "dexa_match_searches_total"), float64(len(kinds[kindSubstitutes])*r.nodes))
	var lookups, notModified float64
	for _, s := range r.samples {
		if s.kind == kindLookup {
			lookups++
			if s.status == 304 {
				notModified++
			}
		}
	}
	v["serve.not_modified_ratio"] = ratio(notModified, lookups)

	writes := float64(len(kinds[kindGenerate]))
	v["core.generate_ms"] = tr.coreMs.median()
	v["core.generate_calls_per_write"] = ratio(float64(a.runs-b.runs), writes)
	v["module.invoke_us"] = tr.moduleUs.median()
	for _, k := range []string{kindGenerate, kindSubstitutes, kindCompose} {
		v["module.invocations_per_op."+k] = ratio(float64(tr.moduleByKind[k]), float64(tr.ops[k]))
	}

	puts := float64(a.puts - b.puts)
	appends := a.delta(b, "dexa_store_wal_appends_total")
	compactions := a.delta(b, "dexa_store_compactions_total")
	frame := ratio(float64(a.walBytes), float64(a.walRecs))
	written := appends*frame + compactions*a.tel["dexa_store_snapshot_bytes"]
	v["store.fsyncs_per_write"] = ratio(a.delta(b, "dexa_store_wal_syncs_total"), puts)
	v["store.commit_batch_size"] = ratio(a.delta(b, "dexa_store_commit_batch_size_sum"), a.delta(b, "dexa_store_commit_batch_size_count"))
	v["store.bytes_written_per_user_byte"] = ratio(written, float64(r.userBytes))
	v["store.compactions"] = compactions
	v["store.put_noop_ratio"] = ratio(float64(a.noops-b.noops), puts)
	v["match.pairs_recomputed_per_rebuild"] = ratio(a.delta(b, "dexa_match_matrix_cell_seconds_count"), rebuilds)

	v["cluster.hops_per_op"] = ratio(float64(tr.hops), ops)
	v["cluster.shard_handler_ms"] = tr.hopMs.median()
	v["cluster.slowest_shard_share"] = tr.slowestShare.median()
	v["cluster.redirects_per_op"] = ratio(float64(r.redirects), ops)
	v["cluster.wal_records_per_fetch"] = ratio(a.delta(b, "dexa_cluster_wal_batch_frames_sum"), a.delta(b, "dexa_cluster_wal_batch_frames_count"))
	wire := a.delta(b, "dexa_cluster_wal_compressed_bytes_total")
	if wire == 0 {
		wire = a.delta(b, "dexa_cluster_wal_uncompressed_bytes_total")
	}
	v["cluster.wal_bytes_per_record"] = ratio(wire, a.delta(b, "dexa_cluster_feed_records_total"))

	v["go.alloc_bytes_per_op"] = ratio(float64(a.alloc-b.alloc), ops)
	v["go.gc_pause_share"] = ratio(float64(a.pauseNs-b.pauseNs), float64(r.run.elapsed))

	untraced, _ := byKind(r.untraced, false)
	traced, _ := byKind(r.samples, false)
	v["trace.overhead_ms"] = traced.median() - untraced.median()
	v["trace.overhead_share"] = ratio(v["trace.overhead_ms"], untraced.median())

	var totalOps int
	for _, n := range tr.ops {
		totalOps += n
	}
	for _, l := range layers {
		var self int64
		for _, perLayer := range tr.selfNs {
			self += perLayer[l]
		}
		v["self_ms_per_op."+l] = ratio(float64(self)/1e6, float64(totalOps))
		for _, k := range opKinds {
			v["share."+k+"."+l] = ratio(float64(tr.selfNs[k][l]), float64(tr.clientNs[k]))
		}
	}
	for k, x := range r.probed {
		v[k] = x
	}

	out := map[string]metric{}
	for _, m := range layerMetricNames {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
		r.metrics[m.name] = out[m.name]
	}
	for k := range v {
		if _, ok := out[k]; !ok {
			panic(fmt.Sprintf("per-layer metric %s is not declared", k))
		}
	}
	return out
}
