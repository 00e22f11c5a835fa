package main

// The traced run (--trace 1) builds the per-layer ledger:
//
//  1. The workload runs twice against its daemons, first untraced, then
//     with a span around every client call; the p50 difference is the
//     tracing overhead. Layer counts come from /metrics deltas around
//     the untraced phase.
//  2. The same request kinds replay in-process. Each request gets a
//     handler span (Handler().ServeHTTP of an in-process server) and a
//     replay span whose children time the public layer calls that
//     request makes (cluster tables and walks, pareto inserts, shard
//     permutations and merges, stream encoding, calib refits). A
//     layer's self time is its span minus its children; the residual is
//     the handler time the layer spans do not explain (replay.go).

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func (e *env) runTraced() (result, error) {
	ctx := context.Background()
	l, _, err := e.start(ctx)
	if err != nil {
		return result{}, err
	}
	defer l.stop()
	warmAtt, warmFail, werr := e.warm(ctx, l)
	if werr != nil {
		fmt.Printf("  first warm-up failure: %v\n", werr)
	}
	// One stream, continued: the traced phase must not re-send the
	// untraced phase's requests, or every frontier would be a cache hit.
	// The two phases split --seconds, so a traced run takes as long as an
	// untraced one.
	gen := e.def.gen(e.seed)
	m0, err := e.measure(ctx, l, gen, e.dur/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	m1, err := e.measure(ctx, l, gen, e.dur/2, tr)
	if err != nil {
		return result{}, err
	}
	l.stop()

	both := m0
	both.phase = mergePhases(m0.phase, m1.phase)
	both.d = m0.d.plus(m1.d)
	both.front = m0.front.plus(m1.front)
	res, err := e.outcome(both, warmAtt, warmFail)
	if err != nil {
		return res, err
	}

	rep := newReport()
	rp := &replay{suite: e.suite, tr: tr, rep: rep}
	if err := rp.all(); err != nil {
		return res, err
	}
	e.daemonLedger(rep, rp, m0, m1)
	if err := e.writeSpans(tr); err != nil {
		return res, err
	}
	for _, line := range rep.lines {
		fmt.Println(line)
	}
	res.Metrics = rep.metrics
	return res, nil
}

func mergePhases(a, b phase) phase {
	out := a
	out.lat = append(append([]time.Duration(nil), a.lat...), b.lat...)
	out.attempted += b.attempted
	out.failed += b.failed
	if out.firstErr == nil {
		out.firstErr = b.firstErr
	}
	out.elapsed += b.elapsed
	out.checks = append(append([]sampleCheck(nil), a.checks...), b.checks...)
	out.writes += b.writes
	return out
}

func (d delta) plus(o delta) delta {
	out := delta{series: make(map[string]float64, len(d.series))}
	for k, v := range d.series {
		out.series[k] = v
	}
	for k, v := range o.series {
		out.series[k] += v
	}
	out.totalAlloc = d.totalAlloc + o.totalAlloc
	out.mallocs = d.mallocs + o.mallocs
	out.cpu = d.cpu + o.cpu
	out.peakRSS = max(d.peakRSS, o.peakRSS)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// daemonLedger reports the layer counts of the workload's own daemons
// (untraced phase) and the client-side tracing overhead.
func (e *env) daemonLedger(rep *report, rp *replay, m0, m1 measured) {
	d, front := m0.d, m0.front
	n := float64(m0.completed)
	base := fmt.Sprintf("%s untraced phase, n=%d requests", e.def.name, m0.completed)

	daemonP50 := front.histP50(e.def.endpoints...) * 1e3
	clientP50 := ms(quantile(m0.lat, 0.5))
	rep.set("server.latency_p50_ms", "ms", daemonP50, base+", daemon histogram, interpolated inside its bucket")
	rep.set("server.failures", "count", front.failures(), base+": rejected+timeouts+degraded+panics+request errors")
	// The daemon's histogram buckets are 2-2.5x apart, so its p50 is
	// only good to within a bucket; the means are exact (the histogram's
	// sum over its count), so transport is the difference of means.
	var clientSum time.Duration
	for _, d := range m0.lat {
		clientSum += d
	}
	clientMean := ms(clientSum) / float64(m0.completed)
	daemonMean := front.histMean(e.def.endpoints...) * 1e3
	rep.set("server.latency_mean_ms", "ms", daemonMean, base+", daemon histogram sum/count")
	transport := (clientMean - daemonMean) * 1e3
	rep.set("transport.us_per_req", "us", transport, fmt.Sprintf("client mean %.1fus minus daemon mean %.1fus, %s", clientMean*1e3, daemonMean*1e3, base))

	hits, misses := d.counter("heteromixd_cache_hits_total"), d.counter("heteromixd_cache_misses_total")
	rep.set("servercache.lookups", "count", hits+misses, base)
	rep.set("servercache.hit_ratio", "1", ratio(hits, hits+misses), "base: servercache.lookups")
	rep.set("servercache.evictions_per_kreq", "1/kreq", 1000*ratio(d.counter("heteromixd_cache_evictions_total"), n), base)
	th, tm := d.counter("heteromixd_table_cache_hits_total"), d.counter("heteromixd_table_cache_misses_total")
	rep.set("tablecache.lookups", "count", th+tm, base)
	rep.set("tablecache.hit_ratio", "1", ratio(th, th+tm), "base: tablecache.lookups")
	rep.set("cluster.table_builds", "count", d.counter("heteromixd_kernel_table_builds_total"), base)
	rep.set("calib.fit_writes", "count", float64(m0.writes), base)
	rep.set("calib.refits", "count", d.counter("heteromixd_calib_refits_total"), "base: calib.fit_writes")

	genReqs := float64(len(m0.byKind[kindGeneric]) + len(m0.byKind[kindGenericNDJ]) + len(m0.byKind[kindFleet]))
	rep.set("cluster.generic_requests", "count", genReqs, base)
	rep.set("cluster.points_per_req", "count", ratio(d.counter("heteromixd_generic_points_evaluated_total"), genReqs), "base: cluster.generic_requests (fleet: summed over shards)")
	ndj := float64(len(m0.byKind[kindGenericNDJ]))
	rep.set("stream.requests", "count", ndj, base)
	rep.set("stream.rows_per_req", "count", ratio(d.counter("heteromixd_stream_rows_total"), ndj), "base: stream.requests")
	rep.set("stream.flushes_per_req", "count", ratio(d.counter("heteromixd_stream_flushes_total"), ndj), "base: stream.requests")

	fleetReqs := float64(len(m0.byKind[kindFleet]))
	hedges := front.counter("heteromixd_fleet_hedges_total")
	rep.set("fleet.requests", "count", fleetReqs, base)
	rep.set("fleet.hedges", "count", hedges, base)
	rep.set("fleet.hedges_per_req", "1", ratio(hedges, fleetReqs), "base: fleet.requests")
	rep.set("fleet.hedge_win_ratio", "1", ratio(front.counter("heteromixd_fleet_hedge_wins_total"), hedges), "base: fleet.hedges")
	rep.set("fleet.failovers_per_req", "1", ratio(front.counter("heteromixd_fleet_failovers_total"), fleetReqs), "base: fleet.requests")

	rep.set("client.throughput_rps", "req/s", n/m0.elapsed.Seconds(), fmt.Sprintf("%s over %.2fs", base, m0.elapsed.Seconds()))
	rep.set("client.p50_ms", "ms", clientP50, base)
	rep.set("client.p90_ms", "ms", ms(quantile(m0.lat, 0.9)), fmt.Sprintf("%s, %d beyond", base, m0.completed/10))
	rep.set("client.p99_ms", "ms", ms(quantile(m0.lat, 0.99)), fmt.Sprintf("%s, %d beyond", base, m0.completed/100))
	rep.set("daemon.cpu_ms_per_req", "ms", float64(d.cpu.Microseconds())/1e3/n, fmt.Sprintf("%s, utime+stime of every daemon", base))
	p0, p1 := ms(quantile(m0.lat, 0.5)), ms(quantile(m1.lat, 0.5))
	rep.set("trace.overhead_pct", "%", 100*ratio(p1-p0, p0), fmt.Sprintf("client p50 traced %.4fms (n=%d) vs untraced %.4fms (n=%d)", p1, m1.completed, p0, m0.completed))

	// Handler time plus transport against the client p50: the in-process
	// handler time of the workload's request mix.
	var handler float64
	switch e.def.name {
	case "predict_refit":
		hr := ratio(hits, hits+misses)
		handler = hr*rp.handlerP50[kindPredict+"_hit"] + (1-hr)*rp.handlerP50[kindPredict+"_miss"]
	case "frontier_cold":
		handler = (rp.handlerP50[kindGeneric] + rp.handlerP50[kindGenericNDJ] + rp.handlerP50[kindTwoType]) / 3
	case "fleet_frontier":
		handler = rp.handlerP50[kindFleet]
	}
	rep.set("trace.client_residual_us", "us", clientP50*1e3-(handler+transport),
		fmt.Sprintf("client p50 %.1fus - (in-process handler %.1fus + transport %.1fus)", clientP50*1e3, handler, transport))
}

// writeSpans writes every span of the run as JSON lines.
func (e *env) writeSpans(tr *tracer) error {
	dir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", e.def.name, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
