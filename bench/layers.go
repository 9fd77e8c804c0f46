package main

// Per-layer metrics, derived from the spans of the traced pass. Each
// metric reads the spans of the workload that exercises its layer (the
// table in README.md); counters that describe the daemon come from the
// named workload when it is a serve workload, and from serve_cold's slice
// otherwise.

// spanRow is a span with what its op was.
type spanRow struct {
	span
	trace *trace
}

// spanTable indexes the spans of one or more windows by name.
type spanTable map[string][]spanRow

func tabulate(corpus []*trace, results ...*loopResult) spanTable {
	byName := map[string]*trace{}
	for _, t := range corpus {
		byName[t.Name] = t
	}
	tab := spanTable{}
	for _, res := range results {
		ops := map[int32]*trace{}
		for _, op := range res.Ops {
			ops[op.Op] = byName[op.Trace]
		}
		for _, s := range res.Spans {
			if t := ops[s.Op]; t != nil {
				tab[s.Name] = append(tab[s.Name], spanRow{s, t})
			}
		}
	}
	return tab
}

// rows returns the spans of a name, of one class ("large", "small") or of
// both ("").
func (tab spanTable) rows(name, class string) []spanRow {
	if class == "" {
		return tab[name]
	}
	var out []spanRow
	for _, r := range tab[name] {
		if r.trace.class() == class {
			out = append(out, r)
		}
	}
	return out
}

func column(rows []spanRow, f func(spanRow) float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = f(r)
	}
	return out
}

func total(rows []spanRow, f func(spanRow) float64) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += f(r)
	}
	return sum
}

func durMS(r spanRow) float64 { return float64(r.dur()) / 1e6 }
func durUS(r spanRow) float64 { return float64(r.dur()) / 1e3 }
func durNS(r spanRow) float64 { return float64(r.dur()) }
func allocMB(r spanRow) float64 {
	return float64(r.AllocBytes) / (1 << 20)
}
func allocs(r spanRow) float64 { return float64(r.Allocs) }

func (tab spanTable) p50ms(name, class string) float64 {
	return median(column(tab.rows(name, class), durMS))
}

// ratio is a/b, and 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes every per-layer metric of BENCHMARK.json.
func perLayer(named string, results map[string]*loopResult, plain *loopResult, corpus []*trace, buildS float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	run := tabulate(corpus, results["trace_run"])
	batch := tabulate(corpus, results["analyze_batch"])
	stream := tabulate(corpus, results["analyze_stream"])
	warm := tabulate(corpus, results["serve_warm"])
	cold := tabulate(corpus, results["serve_cold"])
	both := tabulate(corpus, results["serve_warm"], results["serve_cold"])
	serveRes := results["serve_cold"]
	if w, _ := workloadByName(named); w.serve {
		serveRes = results[named]
	}
	serve := tabulate(corpus, serveRes)

	// sim, cell: the simulator's own speed comes from the untraced twins;
	// the counts are sums over one traced run of each corpus member.
	var simCycles, eibBytes, records, flushes, dropped, traceBytes float64
	var traced, untraced [2]float64 // simulated cycles: [small, large]
	for _, t := range corpus {
		simCycles += float64(t.SimCycles)
		eibBytes += float64(t.EIBBytes)
		records += float64(t.Records)
		flushes += float64(t.Flushes)
		dropped += float64(t.Dropped)
		traceBytes += float64(t.Bytes)
		i := 0
		if t.Large {
			i = 1
		}
		traced[i] += float64(t.SimCycles)
		untraced[i] += float64(t.UntracedCycles)
	}
	bare := run.rows("cell.Run.untraced", "")
	set("sim.untraced_run_ms_p50.large", run.p50ms("cell.Run.untraced", "large"), "ms")
	set("sim.host_ns_per_simcycle", ratio(total(bare, durNS),
		total(bare, func(r spanRow) float64 { return float64(r.trace.UntracedCycles) })), "ns")
	set("cell.sim_cycles", simCycles, "count")
	set("cell.eib_bytes", eibBytes, "count")

	set("workloads.prepare_ms_p50", run.p50ms("workloads.Prepare", ""), "ms")
	set("workloads.verify_ms_p50", run.p50ms("workloads.Verify", ""), "ms")

	// core: exact counts, the simulated slowdown of tracing (the paper's
	// E3), and the host time tracing adds per record: traced minus
	// untraced machine run over the same ops.
	set("core.records", records, "count")
	set("core.flushes", flushes, "count")
	set("core.dropped", dropped, "count")
	set("core.trace_bytes", traceBytes, "count")
	set("core.overhead_pct.large", 100*ratio(traced[1]-untraced[1], untraced[1]), "%")
	set("core.overhead_pct.small", 100*ratio(traced[0]-untraced[0], untraced[0]), "%")
	withTracer := run.rows("cell.Run", "")
	set("core.host_ns_per_record", ratio(total(withTracer, durNS)-total(bare, durNS),
		total(withTracer, func(r spanRow) float64 { return float64(r.trace.Records) })), "ns")
	set("core.attach_ms_p50", run.p50ms("core.Attach", ""), "ms")

	writes := run.rows("core.WriteTrace", "")
	set("traceio.write_ms_p50.large", run.p50ms("core.WriteTrace", "large"), "ms")
	set("traceio.write_mb_per_s", ratio(
		total(writes, func(r spanRow) float64 { return float64(r.trace.Bytes) })/1e6,
		total(writes, durNS)/1e9), "MB/s")
	set("traceio.parse_ms_p50.large", batch.p50ms("traceio.Parse", "large"), "ms")

	loads := batch.rows("analyzer.Load", "")
	bigLoads := batch.rows("analyzer.Load", "large")
	set("analyzer.load_ms_p50.large", batch.p50ms("analyzer.Load", "large"), "ms")
	set("analyzer.load_ms_p50.small", batch.p50ms("analyzer.Load", "small"), "ms")
	set("analyzer.load_events_per_s", ratio(
		total(loads, func(r spanRow) float64 { return float64(r.trace.Records) }),
		total(loads, durNS)/1e9), "1/s")
	set("analyzer.load_alloc_mb_per_op.large", median(column(bigLoads, allocMB)), "MB")
	set("analyzer.load_allocs_per_op.large", median(column(bigLoads, allocs)), "count")
	set("analyzer.validate_ms_p50.large", batch.p50ms("analyzer.Validate", "large"), "ms")

	for _, k := range batchKinds {
		set("kernel."+k+".ms_p50.large", batch.p50ms("kernel."+k, "large"), "ms")
		set("kernel."+k+".allocs_per_op.large", median(column(batch.rows("kernel."+k, "large"), allocs)), "count")
		set("render."+k+".ms_p50.large", batch.p50ms("render."+k, "large"), "ms")
	}
	for _, t := range corpus {
		if t.Name == analysisLarge {
			set("render.critpath.bytes", float64(t.OutBytes["batch/critpath"]), "count")
		}
	}

	streamLoads := stream.rows("stream.Load", "large")
	streamWrites := column(stream.rows("stream.Write", ""), durUS)
	set("stream.load_ms_p50.large", stream.p50ms("stream.Load", "large"), "ms")
	set("stream.load_ms_p50.small", stream.p50ms("stream.Load", "small"), "ms")
	set("stream.write_us_p50", median(streamWrites), "us")
	set("stream.write_us_p99", percentile(streamWrites, 99), "us")
	set("stream.finish_ms_p50.large", stream.p50ms("stream.Finish", "large"), "ms")
	set("stream.alloc_mb_per_op.large", median(column(streamLoads, allocMB)), "MB")
	set("stream.allocs_per_op.large", median(column(streamLoads, allocs)), "count")
	set("stream.peak_heap_mb", results["analyze_stream"].Counters["stream.peak_heap_mb"], "MB")
	// The batch path's share of the same job: parse, load, validate.
	set("stream.vs_batch_ratio", ratio(stream.p50ms("stream.Load", "large"),
		batch.p50ms("traceio.Parse", "large")+batch.p50ms("analyzer.Load", "large")+
			batch.p50ms("analyzer.Validate", "large")), "ratio")

	hit := warm.p50ms("cache.Artifact.hit", "large")
	set("cache.keyof_ms_p50.large", both.p50ms("cache.KeyOf", "large"), "ms")
	set("cache.artifact_hit_ms_p50.large", hit, "ms")
	set("cache.artifact_hit_alloc_mb_per_op.large", median(column(warm.rows("cache.Artifact.hit", "large"), allocMB)), "MB")
	set("cache.artifact_miss_ms_p50.large", cold.p50ms("cache.Artifact.miss", "large"), "ms")
	for _, name := range []string{"cache.hit_share", "cache.evictions", "cache.dedups", "cache.entries", "cache.bytes_mb",
		"tad.healthz_us_p50", "tad.shed", "tad.errors_5xx", "tad.rss_idle_mb", "tad.start_ms"} {
		set(name, serveRes.Counters[name], counterUnits[name])
	}
	set("disk.put_ms_p50.large", cold.p50ms("disk.Put", "large"), "ms")
	set("disk.get_ms_p50.large", cold.p50ms("disk.Get", "large"), "ms")

	// What is left of a warm round trip once the cache work is taken out:
	// body read, hashing apart, admission, mux, response write, loopback.
	set("tad.http_share.large", 1-ratio(hit, warm.p50ms("http.request", "large")), "share")
	set("tad.request_ms_p99.large", percentile(column(serve.rows("http.request", "large"), durMS), 99), "ms")
	set("tad.request_ms_p99.small", percentile(column(serve.rows("http.request", "small"), durMS), 99), "ms")
	var bytesIn, bytesOut float64
	for _, s := range serveRes.Samples {
		t := corpus[s.Trace]
		bytesIn += float64(t.Bytes)
		bytesOut += float64(t.OutBytes["serve/"+servedKinds[s.Kind]])
	}
	set("tad.bytes_in_per_op", ratio(bytesIn, float64(len(serveRes.Samples))), "count")
	set("tad.bytes_out_per_op", ratio(bytesOut, float64(len(serveRes.Samples))), "count")

	tracedRes := results[named]
	set("bench.trace_overhead_pct", 100*(1-ratio(opsPerS(tracedRes), opsPerS(plain))), "%")
	set("bench.body_prep_ms_p50", cold.p50ms("bench.body_prep", ""), "ms")
	classes := map[string]float64{}
	for _, s := range tracedRes.Samples {
		classes[corpus[s.Trace].class()]++
	}
	set("bench.samples.large", classes["large"], "count")
	set("bench.samples.small", classes["small"], "count")
	set("bench.build_s", buildS, "s")
	// Demoted from the end-to-end list: its spread between identical runs
	// exceeded its bound (README, "Repeatability").
	_, p90 := classLatencies(tracedRes, corpus)
	set("demoted.small_p90_ms", p90["small"], "ms")
	return m
}

var counterUnits = map[string]string{
	"cache.hit_share": "share", "cache.evictions": "count", "cache.dedups": "count",
	"cache.entries": "count", "cache.bytes_mb": "MB",
	"tad.healthz_us_p50": "us", "tad.shed": "count", "tad.errors_5xx": "count",
	"tad.rss_idle_mb": "MB", "tad.start_ms": "ms",
}

// minPasses is how many full passes through the schedule a window needs
// for its throughput to be a median over passes.
const minPasses = 5

// opsPerS is a window's throughput: the median, over the full passes
// through the schedule the window holds, of correct ops per second of the
// pass. Every pass runs the same ops in the same order, so passes compare
// like with like, and the median leaves out the passes that a stall of the
// host fell into, which a plain count over the window does not (between
// identical runs the plain count spread twice as far as any latency). A
// window with fewer than minPasses full passes — a smoke run — reports the
// plain count.
func opsPerS(res *loopResult) float64 {
	if len(res.Passes) < minPasses {
		return ratio(float64(len(res.Samples)), float64(res.WindowNS)/1e9)
	}
	rates := make([]float64, len(res.Passes))
	for i, p := range res.Passes {
		rates[i] = ratio(float64(p.N), float64(p.NS)/1e9)
	}
	return median(rates)
}
