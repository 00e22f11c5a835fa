package main

// The in-process replay behind the per-layer ledger: every request kind
// runs through Handler().ServeHTTP of an in-process server (the handler
// span) and again through the public layer calls it makes (the replay
// span and its children), so each layer's self time and the residual the
// layers do not explain can be read off per request.
//
// The replay runs on one P (GOMAXPROCS 1, the reference box's single
// CPU), so the layer spans are sequential and add up; on the daemon,
// the frontier walk may use every CPU of the measuring host. The
// in-process fleet is the exception: its shards run concurrently, so it
// replays on every CPU too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"heteromix/internal/calib"
	"heteromix/internal/cluster"
	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/pareto"
	"heteromix/internal/server"
	"heteromix/internal/shard"
	"heteromix/internal/stream"
)

// Replay repetitions per request kind: enough requests for a stable
// median, few enough that the whole replay takes seconds.
const (
	replayPredict  = 2000
	replayFit      = 20
	replayFrontier = 12
	replayTables   = 5
	replayFleet    = 8
)

type replay struct {
	suite *experiments.Suite
	tr    *tracer
	rep   *report
	req   uint64
	// handlerP50 is the in-process handler median per request kind, µs.
	handlerP50 map[string]float64
	// self collects per-request self times: kind -> layer span -> µs.
	self map[string]map[string][]float64
	// residual collects per-request handler minus replay totals, µs.
	residual map[string][]float64
	// cur and curReq name the handler span open now, so in-process fleet
	// replicas can hang their shard spans under it.
	cur, curReq atomic.Uint64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// newReq opens a new request id for kind.
func (r *replay) newReq() uint64 {
	r.req++
	return r.req
}

// serve runs one request through h as the request's handler span.
func (r *replay) serve(req uint64, h http.Handler, path string, body []byte, ndjson bool) (*httptest.ResponseRecorder, time.Duration, uint64) {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if ndjson {
		hr.Header.Set("Accept", "application/x-ndjson")
	}
	var id uint64
	d := r.tr.run(req, 0, "server.handler", func(sid uint64) {
		id = sid
		r.curReq.Store(req)
		r.cur.Store(sid)
		h.ServeHTTP(rec, hr)
		r.cur.Store(0)
	})
	return rec, d, id
}

// slowestChild is the longest span recorded under parent.
func (r *replay) slowestChild(parent uint64) time.Duration {
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	var slowest time.Duration
	for _, s := range r.tr.spans {
		if s.Parent == parent {
			slowest = max(slowest, s.dur())
		}
	}
	return slowest
}

// layers runs the replay root of one request and records each child
// layer's self time and the request's residual against its handler
// time.
func (r *replay) layers(kind string, req uint64, handler time.Duration, f func(parent uint64)) {
	first := len(r.tr.spans)
	total := r.tr.run(req, 0, "replay."+kind, f)
	if r.self[kind] == nil {
		r.self[kind] = make(map[string][]float64)
	}
	spans := r.tr.spans[first:]
	for _, s := range spans {
		if s.Name == "replay."+kind {
			continue
		}
		r.self[kind][s.Name] = append(r.self[kind][s.Name], us(selfTime(s, spans)))
	}
	r.residual[kind] = append(r.residual[kind], us(handler-total))
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, all []span) time.Duration {
	var iv [][2]int64
	for _, c := range all {
		if c.Parent == s.ID {
			iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, s.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		covered += v[1] - max(v[0], end)
		end = v[1]
	}
	return s.dur() - time.Duration(covered)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return medianF(xs)
}

func (r *replay) all() error {
	r.handlerP50 = make(map[string]float64)
	r.self = make(map[string]map[string][]float64)
	r.residual = make(map[string][]float64)
	prev := runtime.GOMAXPROCS(1)
	for _, step := range []func() error{r.startup, r.predict, r.fit, r.tables, r.generic, r.twoType, r.shards} {
		if err := step(); err != nil {
			runtime.GOMAXPROCS(prev)
			return err
		}
	}
	// The fleet's shards run concurrently: on one P their spans would
	// interleave and the gather overhead would absorb the other shards'
	// work, so the fleet replays on every CPU the daemons get.
	runtime.GOMAXPROCS(prev)
	if err := r.fleet(); err != nil {
		return err
	}
	r.summarize()
	return nil
}

func (r *replay) newServer(opts server.Options) (*server.Server, error) {
	opts.Models = r.suite
	return server.New(opts)
}

// startup times the daemon's start-up layers: fitting every model and
// constructing the server.
func (r *replay) startup() error {
	var warm, news []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s := experiments.NewSuite(experiments.SuiteOptions{NoiseSigma: 0.03, Seed: 1})
		if err := s.WarmAllModels(); err != nil {
			return err
		}
		warm = append(warm, float64(time.Since(t0).Microseconds())/1e3)
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		s, err := r.newServer(server.Options{})
		if err != nil {
			return err
		}
		news = append(news, float64(time.Since(t0).Microseconds())/1e3)
		s.Close()
	}
	r.rep.set("experiments.warm_models_ms", "ms", medianF(warm), "NewSuite+WarmAllModels, median of n=3")
	r.rep.set("server.new_ms", "ms", medianF(news), "server.New, median of n=5")
	return nil
}

func (r *replay) predict() error {
	srv, err := r.newServer(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	keys := predictKeys()
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var miss []time.Duration
	for i := 0; i < replayPredict; i++ {
		k := keys[i]
		body := predictRequest(k, false).body
		req := r.newReq()
		rec, d, _ := r.serve(req, h, "/v1/predict", body, false)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			return fmt.Errorf("replay predict miss: status %d cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
		miss = append(miss, d)
		tbl, err := r.suite.Table(k.workload, false)
		if err != nil {
			return err
		}
		space := tbl.Space()
		r.layers(kindPredict+"_miss", req, d, func(p uint64) {
			var pr server.PredictRequest
			r.tr.run(req, p, "server.decode", func(uint64) { _ = json.Unmarshal(body, &pr) })
			cfg := cluster.Configuration{ARM: cluster.TypeConfig{Nodes: pr.ARM.Nodes, Config: maxConfig(space.ARM.Spec)}}
			if pr.AMD.Nodes > 0 {
				cfg.AMD = cluster.TypeConfig{Nodes: pr.AMD.Nodes, Config: maxConfig(space.AMD.Spec)}
			}
			var pt cluster.Point
			r.tr.run(req, p, "cluster.table_evaluate", func(uint64) { pt, _ = tbl.Evaluate(cfg, pr.Work) })
			r.tr.run(req, p, "server.encode", func(uint64) {
				_, _ = json.Marshal(server.PredictResponse{Workload: pr.Workload, Work: pr.Work, Point: pt.Summary(),
					AvgPowerWatts: float64(pt.Energy) / float64(pt.Time)})
			})
		})
	}
	// Warm hits on one key.
	body := predictRequest(keys[0], false).body
	var hit []time.Duration
	for i := 0; i < replayPredict; i++ {
		req := r.newReq()
		rec, d, _ := r.serve(req, h, "/v1/predict", body, false)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			return fmt.Errorf("replay predict hit: status %d cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
		hit = append(hit, d)
		r.layers(kindPredict+"_hit", req, d, func(p uint64) {
			var pr server.PredictRequest
			r.tr.run(req, p, "server.decode", func(uint64) { _ = json.Unmarshal(body, &pr) })
			r.tr.run(req, p, "server.canonical_key", func(uint64) { _, _ = json.Marshal(pr) })
		})
	}
	r.handlerP50[kindPredict+"_miss"] = medianDur(miss)
	r.handlerP50[kindPredict+"_hit"] = medianDur(hit)

	// Allocations per warm hit: the handler's allocations, net of
	// building the request and recorder the loop hands it.
	const n = 2000
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		_ = httptest.NewRecorder()
		_ = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	}
	runtime.ReadMemStats(&ms1)
	for i := 0; i < n; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	}
	runtime.ReadMemStats(&ms2)
	perHit := (float64(ms2.Mallocs-ms1.Mallocs) - float64(ms1.Mallocs-ms0.Mallocs)) / n
	r.rep.set("server.allocs_per_predict_hit", "1", perHit, fmt.Sprintf("in-process warm hits, n=%d", n))
	return nil
}

func (r *replay) fit() error {
	srv, err := r.newServer(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	base, err := r.suite.Model(refitWorkload, hwsim.ARMCortexA9())
	if err != nil {
		return err
	}
	var bodies [2][]byte
	for i, scale := range []float64{1.25, 0.8} {
		if bodies[i], err = fitBody(r.suite, scale); err != nil {
			return err
		}
	}
	var ds []time.Duration
	var fitSpans []float64
	refits := 0
	for i := 0; i < replayFit; i++ {
		body := bodies[i%2]
		req := r.newReq()
		rec, d, _ := r.serve(req, h, "/v1/fit", body, false)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay fit: status %d: %s", rec.Code, rec.Body)
		}
		var fr server.FitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
			return err
		}
		if fr.Refit {
			refits++
		}
		ds = append(ds, d)
		r.layers(kindFit, req, d, func(p uint64) {
			var fq server.FitRequest
			r.tr.run(req, p, "server.decode", func(uint64) { _ = json.Unmarshal(body, &fq) })
			samples := make([]calib.Sample, len(fq.Samples))
			for j, s := range fq.Samples {
				samples[j] = calib.Sample{Cores: s.Cores, GHz: s.GHz, Work: s.Work, TimeSeconds: s.TimeSeconds, EnergyJoules: s.EnergyJoules}
			}
			fitSpans = append(fitSpans, us(r.tr.run(req, p, "calib.refit", func(uint64) { _, _, _ = calib.Refit(base, samples) })))
		})
	}
	if refits != replayFit {
		return fmt.Errorf("replay fit: %d of %d writes refit", refits, replayFit)
	}
	r.handlerP50[kindFit] = medianDur(ds)
	r.rep.set("calib.fit_us", "us", medianF(fitSpans), fmt.Sprintf("calib.Refit on %d samples, n=%d", fitSamples, len(fitSpans)))
	return nil
}

// tables times table compilation: the pruning and the two generic
// tables one tri-cluster spec compiles to, and the two-type table.
func (r *replay) tables() error {
	types, err := triGroupTypes(r.suite, "ep")
	if err != nil {
		return err
	}
	space, err := r.suite.Space("ep")
	if err != nil {
		return err
	}
	var prune, gen, two []time.Duration
	var full, pruned *cluster.GenericTable
	for i := 0; i < replayTables; i++ {
		req := r.newReq()
		var pt []cluster.GroupType
		var perr error
		gen = append(gen, r.tr.run(req, 0, "cluster.table_build.generic", func(p uint64) {
			prune = append(prune, r.tr.run(req, p, "cluster.prune", func(uint64) { pt, perr = cluster.PruneGroupTypes(types) }))
			full, _ = cluster.NewGenericTable(types)
			pruned, _ = cluster.NewGenericTable(pt)
		}))
		if perr != nil || full == nil || pruned == nil {
			return fmt.Errorf("replay table build failed: %v", perr)
		}
		two = append(two, r.tr.run(req, 0, "cluster.table_build.two_type", func(uint64) { _, _ = space.NewTable() }))
	}
	r.rep.set("cluster.prune_us", "us", medianDur(prune), fmt.Sprintf("PruneGroupTypes, tri-cluster, n=%d", replayTables))
	r.rep.set("cluster.prune_keep_ratio", "1", float64(pruned.Size())/float64(full.Size()),
		fmt.Sprintf("%d kept of %d configurations", pruned.Size(), full.Size()))
	r.rep.set("cluster.table_build_ms.generic", "ms", medianDur(gen)/1e3, fmt.Sprintf("prune + full and pruned NewGenericTable, n=%d", replayTables))
	r.rep.set("cluster.table_build_ms.two_type", "ms", medianDur(two)/1e3, fmt.Sprintf("Space.NewTable, n=%d", replayTables))
	r.handlerP50["table_build_generic"] = medianDur(gen)
	return nil
}

// frontierWorks is the replay's seeded list of cold work sizes.
func frontierWorks(workload string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = analysisUnits(workload) * (0.5 + rng.Float64())
	}
	return out
}

// insertAll offers captured TEs to a fresh tracked frontier.
func insertAll(tes []pareto.TE) (added, length int) {
	var tr pareto.Tracked[int]
	for i, te := range tes {
		if ok, _ := tr.Insert(te, i); ok {
			added++
		}
	}
	return added, tr.Len()
}

func (r *replay) generic() error {
	srv, err := r.newServer(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	names := triNames()
	tbl, err := prunedTriTable(r.suite, "ep")
	if err != nil {
		return err
	}
	// Compile the server's tables before timing.
	if rec, _, _ := r.serve(r.newReq(), h, "/v1/enumerate-generic", genericRequest(kindGeneric, "ep", analysisUnits("ep"), 0, false).body, false); rec.Code != http.StatusOK {
		return fmt.Errorf("replay generic warm-up: status %d", rec.Code)
	}
	size := float64(tbl.Size())
	tes := make([]pareto.TE, 0, tbl.Size())
	var walk, ins, enc []float64
	var added, attempts, flen, rows, rowBytes float64
	for _, kind := range []string{kindGeneric, kindGenericNDJ} {
		var ds []time.Duration
		for _, w := range frontierWorks("ep", replayFrontier, 2) {
			body := genericRequest(kind, "ep", w, 0, false).body
			req := r.newReq()
			rec, d, _ := r.serve(req, h, "/v1/enumerate-generic", body, kind == kindGenericNDJ)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("replay %s: status %d", kind, rec.Code)
			}
			ds = append(ds, d)
			pts, _, err := tbl.Frontier(w)
			if err != nil {
				return err
			}
			r.layers(kind, req, d, func(p uint64) {
				var gr server.EnumerateGenericRequest
				r.tr.run(req, p, "server.decode", func(uint64) { _ = json.Unmarshal(body, &gr) })
				tes = tes[:0]
				walk = append(walk, us(r.tr.run(req, p, "cluster.walk", func(uint64) {
					_ = tbl.ForEach(gr.Work, func(pt cluster.GenericPoint) bool {
						tes = append(tes, pareto.TE{Time: float64(pt.Time), Energy: float64(pt.Energy)})
						return true
					})
				})))
				var a, n int
				ins = append(ins, us(r.tr.run(req, p, "pareto.insert", func(uint64) { a, n = insertAll(tes) })))
				added += float64(a)
				attempts += float64(len(tes))
				flen = float64(n)
				sums := make([]cluster.GenericPointSummary, len(pts))
				r.tr.run(req, p, "cluster.summary", func(uint64) {
					for i, pt := range pts {
						sums[i] = pt.Summary(names)
					}
				})
				if kind == kindGeneric {
					b := make([]byte, 0, 64<<10) // the server encodes into pooled buffers
					enc = append(enc, us(r.tr.run(req, p, "stream.encode", func(uint64) {
						for i := range sums {
							b = stream.AppendGenericPointSummary(b, &sums[i])
						}
					}))/float64(len(sums)))
					return
				}
				var buf bytes.Buffer
				r.tr.run(req, p, "stream.writer", func(uint64) {
					sw := stream.NewWriter(&buf, nil, stream.NDJSON, stream.Policy{})
					for i := range sums {
						_ = sw.Record(stream.EventPoint, func(b []byte) []byte { return stream.AppendGenericPointSummary(b, &sums[i]) })
					}
					_ = sw.Close()
					rows += float64(sw.Stats().Rows)
				})
				rowBytes += float64(buf.Len())
			})
		}
		r.handlerP50[kind] = medianDur(ds)
	}
	r.rep.set("cluster.walk_ns_per_point.generic", "ns", medianF(walk)*1e3/size, fmt.Sprintf("pruned tri-cluster walk, %d points, n=%d", tbl.Size(), len(walk)))
	r.rep.set("pareto.insert_attempts", "count", attempts, "points offered to pareto.Tracked.Insert in the replay")
	r.rep.set("pareto.insert_ns_per_point", "ns", medianF(ins)*1e3/size, "base: pareto.insert_attempts")
	r.rep.set("pareto.accept_ratio", "1", ratio(added, attempts), "insertions that joined the frontier; base: pareto.insert_attempts")
	r.rep.set("pareto.frontier_len", "count", flen, "tri-cluster frontier, last replayed request")
	r.rep.set("stream.encode_ns_per_row", "ns", medianF(enc)*1e3, "AppendGenericPointSummary per frontier row")
	r.rep.set("stream.bytes_per_row", "B", ratio(rowBytes, rows), fmt.Sprintf("NDJSON rows, n=%.0f", rows))
	return nil
}

func (r *replay) twoType() error {
	srv, err := r.newServer(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	tbl, err := r.suite.Table("ep", false)
	if err != nil {
		return err
	}
	if rec, _, _ := r.serve(r.newReq(), h, "/v1/enumerate", twoTypeRequest("ep", analysisUnits("ep"), false).body, false); rec.Code != http.StatusOK {
		return fmt.Errorf("replay 2-type warm-up: status %d", rec.Code)
	}
	size := float64(tbl.Size(10, 10))
	var ds []time.Duration
	var walk []float64
	tes := make([]pareto.TE, 0, int(size))
	for _, w := range frontierWorks("ep", replayFrontier, 3) {
		body := twoTypeRequest("ep", w, false).body
		req := r.newReq()
		rec, d, _ := r.serve(req, h, "/v1/enumerate", body, false)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replay 2-type: status %d", rec.Code)
		}
		ds = append(ds, d)
		pts, _, err := tbl.Frontier(10, 10, w)
		if err != nil {
			return err
		}
		r.layers(kindTwoType, req, d, func(p uint64) {
			var er server.EnumerateRequest
			r.tr.run(req, p, "server.decode", func(uint64) { _ = json.Unmarshal(body, &er) })
			tes = tes[:0]
			walk = append(walk, us(r.tr.run(req, p, "cluster.walk", func(uint64) {
				_ = tbl.ForEach(er.MaxARM, er.MaxAMD, er.Work, func(pt cluster.Point) bool {
					tes = append(tes, pareto.TE{Time: float64(pt.Time), Energy: float64(pt.Energy)})
					return true
				})
			})))
			r.tr.run(req, p, "pareto.insert", func(uint64) { insertAll(tes) })
			sums := make([]cluster.PointSummary, len(pts))
			r.tr.run(req, p, "cluster.summary", func(uint64) {
				for i, pt := range pts {
					sums[i] = pt.Summary()
				}
			})
			b := make([]byte, 0, 64<<10)
			r.tr.run(req, p, "stream.encode", func(uint64) {
				for i := range sums {
					b = stream.AppendPointSummary(b, &sums[i])
				}
			})
		})
	}
	r.handlerP50[kindTwoType] = medianDur(ds)
	r.rep.set("cluster.walk_ns_per_point.two_type", "ns", medianF(walk)*1e3/size, fmt.Sprintf("10x10 two-type walk, %.0f points, n=%d", size, len(walk)))
	return nil
}

// shards times the fleet's shard layers in-process: the Feistel
// permutation over one shard's slice, the shard walk, and the merge of
// four partial frontiers.
func (r *replay) shards() error {
	tbl, err := prunedTriTable(r.suite, "ep")
	if err != nil {
		return err
	}
	size := tbl.Size()
	var perm, walk, merge []float64
	var sink uint64
	for _, w := range frontierWorks("ep", replayFleet, 4) {
		req := r.newReq()
		parts := make([]cluster.ShardFrontier[cluster.GenericPoint], 4)
		for i := range parts {
			sh := shard.Shard{Index: i, Count: 4}
			slice := float64(sh.SliceSize(size))
			perm = append(perm, us(r.tr.run(req, 0, "shard.permute", func(uint64) {
				pm := shard.NewPermutation(size, shard.DefaultSeed)
				for j := uint64(i); j < size; j += 4 {
					sink += pm.Apply(j)
				}
			}))*1e3/slice)
			walk = append(walk, us(r.tr.run(req, 0, "cluster.for_each_shard", func(uint64) {
				_ = tbl.ForEachShard(w, sh, func(cluster.GenericPoint, uint64) bool { return true })
			}))*1e3/slice)
			if parts[i], err = tbl.FrontierShard(w, sh); err != nil {
				return err
			}
		}
		merge = append(merge, us(r.tr.run(req, 0, "cluster.merge_shard_frontiers", func(uint64) {
			_, _ = cluster.MergeShardFrontiers(parts)
		})))
	}
	_ = sink
	r.rep.set("shard.permute_ns_per_index", "ns", medianF(perm), fmt.Sprintf("NewPermutation+Apply over one 1/4 slice of %d, n=%d", size, len(perm)))
	r.rep.set("cluster.shard_walk_ns_per_point", "ns", medianF(walk), fmt.Sprintf("ForEachShard over one 1/4 slice, n=%d", len(walk)))
	r.rep.set("cluster.shard_merge_us", "us", medianF(merge), fmt.Sprintf("MergeShardFrontiers of 4 partials, n=%d", len(merge)))
	return nil
}

// fleet runs an in-process fleet — four replica servers behind
// loopback listeners and a coordinator — with a span middleware on each
// replica, so shard spans nest under the coordinator's handler span.
func (r *replay) fleet() error {
	var urls []string
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	// The replicas listen on the fleet daemons' ports (stopped by now),
	// so the in-process coordinator places shards exactly as the
	// fleet_frontier coordinator does.
	for i, u := range replicaURLs() {
		rs, err := r.newServer(server.Options{})
		if err != nil {
			return err
		}
		inner := rs.Handler()
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, hr *http.Request) {
			start := r.tr.now()
			inner.ServeHTTP(w, hr)
			r.tr.add(r.curReq.Load(), r.cur.Load(), "fleet.shard", start, r.tr.now())
		}))
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", fleetBasePort+1+i))
		if err != nil {
			rs.Close()
			return fmt.Errorf("in-process replica: %w", err)
		}
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		closers = append(closers, rs.Close, ts.Close)
		urls = append(urls, u)
	}
	coord, err := r.newServer(server.Options{Replicas: urls})
	if err != nil {
		return err
	}
	closers = append(closers, coord.Close)
	local, err := r.newServer(server.Options{})
	if err != nil {
		return err
	}
	closers = append(closers, local.Close)
	ch, lh := coord.Handler(), local.Handler()
	u := analysisUnits("ep")
	for _, shards := range []int{4, 1} {
		if rec, _, _ := r.serve(r.newReq(), ch, "/v1/enumerate-generic", genericRequest(kindFleet, "ep", u, shards, false).body, false); rec.Code != http.StatusOK {
			return fmt.Errorf("replay fleet warm-up: status %d: %s", rec.Code, rec.Body)
		}
	}
	if rec, _, _ := r.serve(r.newReq(), lh, "/v1/enumerate-generic", genericRequest(kindGeneric, "ep", u, 0, false).body, false); rec.Code != http.StatusOK {
		return fmt.Errorf("replay local warm-up: status %d", rec.Code)
	}
	var fleet4, fleet1, localD []time.Duration
	var gather []float64
	for _, w := range frontierWorks("ep", replayFleet, 5) {
		rec, d, id := r.serve(r.newReq(), ch, "/v1/enumerate-generic", genericRequest(kindFleet, "ep", w, 4, false).body, false)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Degraded") != "" {
			return fmt.Errorf("replay fleet: status %d", rec.Code)
		}
		fleet4 = append(fleet4, d)
		gather = append(gather, ms(d-r.slowestChild(id)))

		w1 := w * 1.0001 // a distinct cold key for the 1-shard pair
		rec1, d1, _ := r.serve(r.newReq(), ch, "/v1/enumerate-generic", genericRequest(kindFleet, "ep", w1, 1, false).body, false)
		recL, dL, _ := r.serve(r.newReq(), lh, "/v1/enumerate-generic", genericRequest(kindGeneric, "ep", w1, 0, false).body, false)
		if rec1.Code != http.StatusOK || recL.Code != http.StatusOK || !bytes.Equal(rec1.Body.Bytes(), recL.Body.Bytes()) {
			return fmt.Errorf("replay fleet: 1-shard answer (%d) differs from local (%d)", rec1.Code, recL.Code)
		}
		fleet1 = append(fleet1, d1)
		localD = append(localD, dL)
	}
	r.handlerP50[kindFleet] = medianDur(fleet4)
	place := placement()
	used := map[int]int{}
	for _, p := range place {
		used[p]++
	}
	most := 0
	for _, n := range used {
		most = max(most, n)
	}
	r.rep.set("fleet.replicas_used", "count", float64(len(used)), fmt.Sprintf("distinct first-choice replicas of the 4 shards, placement %v", place))
	r.rep.set("fleet.max_shards_per_replica", "count", float64(most), "shards whose first choice is the busiest replica")
	r.rep.set("fleet.gather_overhead_ms", "ms", medianF(gather), fmt.Sprintf("in-process coordinator handler minus its slowest shard span, n=%d", len(gather)))
	r.rep.set("gap.fleet1_over_local", "1", ratio(medianDur(fleet1), medianDur(localD)),
		fmt.Sprintf("1-shard coordinator %.0fus / local buffered %.0fus, same cold frontiers, n=%d", medianDur(fleet1), medianDur(localD), len(fleet1)))
	return nil
}

// summarize reports handler medians, self times and residuals per kind.
func (r *replay) summarize() {
	kinds := []string{kindPredict + "_hit", kindPredict + "_miss", kindFit, kindGeneric, kindGenericNDJ, kindTwoType}
	for _, k := range kinds {
		r.rep.set("server.handler_p50_us."+k, "us", r.handlerP50[k], "in-process Handler().ServeHTTP")
		var names []string
		for name := range r.self[k] {
			names = append(names, name)
		}
		sort.Strings(names)
		sum := 0.0
		for _, name := range names {
			v := medianF(r.self[k][name])
			sum += v
			r.rep.lines = append(r.rep.lines, fmt.Sprintf("    %-42s %14.6g us     self time, n=%d", k+"/"+name, v, len(r.self[k][name])))
		}
		r.rep.set("trace.residual_us."+k, "us", medianF(r.residual[k]),
			fmt.Sprintf("handler minus replayed layer spans (layer self times sum to %.1fus)", sum))
	}
	r.rep.set("server.handler_p50_us."+kindFleet, "us", r.handlerP50[kindFleet], "in-process coordinator, 4 in-process replicas")
	// The server's own share of a buffered generic frontier: handler time
	// minus its cluster, pareto and stream layers.
	layers := 0.0
	for name, v := range r.self[kindGeneric] {
		if name != "server.decode" {
			layers += medianF(v)
		}
	}
	r.rep.set("server.self_us.frontier_generic", "us", r.handlerP50[kindGeneric]-layers, "handler minus cluster/pareto/stream spans")
	r.rep.set("gap.ndjson_over_buffered", "1", ratio(r.handlerP50[kindGenericNDJ], r.handlerP50[kindGeneric]),
		fmt.Sprintf("streamed %.0fus / buffered %.0fus handler, same frontiers", r.handlerP50[kindGenericNDJ], r.handlerP50[kindGeneric]))
	walk := medianF(r.self[kindGeneric]["cluster.walk"]) + medianF(r.self[kindGeneric]["pareto.insert"])
	tb := r.handlerP50["table_build_generic"]
	r.rep.set("gap.table_share", "1", ratio(tb, tb+walk), fmt.Sprintf("table build %.0fus / (build + cold walk+insert %.0fus)", tb, walk))
}
