// Command heteromixd serves the heterogeneous-cluster energy model over
// HTTP as a long-lived daemon: predictions, configuration-space
// enumeration and Pareto frontiers, power-budget substitution series and
// dispatcher-queueing analysis, with result caching, Prometheus/expvar
// metrics and graceful shutdown. See the README "Serving" section for
// the endpoint catalog and example calls.
//
// Usage:
//
//	heteromixd [-addr :8080] [-cache n] [-table-cache n]
//	           [-max-concurrent n] [-timeout d] [-max-nodes n]
//	           [-max-generic-space n] [-max-batch-items n]
//	           [-noise s] [-seed n] [-drain-delay d]
//	           [-chaos spec] [-pprof]
//	           [-shard i/n] [-replicas url,url,...] [-route-key key]
//	           [-probe-interval d] [-suspect-after n] [-dead-after n]
//	           [-hedge-quantile q]
//	           [-refit-threshold e] [-max-fit-samples n]
//	           [-profile-snapshot file]
//	           [-preheat file] [-snapshot-interval d] [-peer-warm]
//	           [-cache-bytes n] [-table-cache-bytes n]
//	           [-stream-flush-bytes n] [-stream-flush-interval d]
//
// -shard makes this instance serve slice i/n of frontier-only generic
// enumerations, -replicas makes it a coordinator that fans sharded
// requests out across the listed base URLs, and -route-key ("workload"
// or "cluster") routes predict/batch traffic to each workload's
// consistent-hash owner. A coordinator probes its replicas' /readyz
// every -probe-interval, marks one suspect after -suspect-after
// consecutive failures and dead after -dead-after, fails shards over
// along the hash ring, and hedges slow shard requests at the
// -hedge-quantile of observed shard latency (0 disables hedging). See
// the README "Fleet mode" and "Fleet self-healing" sections.
//
// -preheat loads a binary cache snapshot (compiled kernel tables plus
// the hottest result-cache entries) before the listener opens, so the
// first requests after a restart serve warm; with -snapshot-interval
// the daemon also writes the snapshot back periodically and on
// shutdown. -peer-warm instead pulls the snapshot from a healthy
// -replicas sibling over GET /v1/snapshot. See the README "Cold start
// & preheat" section.
//
// The enumeration endpoints also serve streamed responses (NDJSON via
// Accept: application/x-ndjson or ?stream=1, SSE via
// GET /v1/enumerate-generic/stream) with incremental frontier deltas;
// -stream-flush-bytes and -stream-flush-interval set the chunk
// boundary policy. See the README "Streaming" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"heteromix/internal/buildinfo"
	"heteromix/internal/cliutil"
	"heteromix/internal/experiments"
	"heteromix/internal/resilience"
	"heteromix/internal/server"
	"heteromix/internal/shard"
)

// daemonConfig is everything the flags select; split from main so tests
// can build a serving instance without a flag set.
type daemonConfig struct {
	noise            float64
	seed             int64
	cache            int
	tableCache       int
	maxConcurrent    int
	maxNodes         int
	maxGenericSpace  uint64
	maxBatchItems    int
	timeout          time.Duration
	drainDelay       time.Duration
	chaosSpec        string
	pprof            bool
	shardSpec        string
	replicas         string
	routeKey         string
	probeInterval    time.Duration
	suspectAfter     int
	deadAfter        int
	hedgeQuantile    float64
	refitThreshold   float64
	maxFitSamples    int
	profileSnapshot  string
	preheat          string
	snapshotInterval time.Duration
	peerWarm         bool
	cacheBytes       int64
	tableCacheBytes  int64
	streamFlushBytes int
	streamFlushEvery time.Duration
}

func main() {
	var cfg daemonConfig
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&cfg.cache, "cache", 4096, "result cache capacity in entries (predict, budget and batch bodies; enumerations are computed every time)")
	flag.IntVar(&cfg.tableCache, "table-cache", 0, "compiled kernel-table cache capacity in entries (0 = default)")
	flag.IntVar(&cfg.maxBatchItems, "max-batch-items", 256, "largest item count one /v1/batch request may carry")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "max concurrent model requests (0 = 4x GOMAXPROCS)")
	flag.DurationVar(&cfg.timeout, "timeout", 15*time.Second, "per-request computation timeout")
	flag.IntVar(&cfg.maxNodes, "max-nodes", 128, "largest per-side node count a request may ask for")
	flag.Uint64Var(&cfg.maxGenericSpace, "max-generic-space", 2_000_000, "largest N-type configuration space /v1/enumerate-generic may walk after pruning")
	flag.Float64Var(&cfg.noise, "noise", 0.03, "measurement noise sigma for the model-fitting runs")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for the model-fitting pipeline")
	flag.DurationVar(&cfg.drainDelay, "drain-delay", 0, "how long /readyz answers 503 before the listener closes on shutdown")
	flag.StringVar(&cfg.chaosSpec, "chaos", "", `fault injection spec, e.g. "latency=0.2:5ms,error=0.05,panic=0.01,timeout=0.01,seed=1" (default: none)`)
	flag.StringVar(&cfg.shardSpec, "shard", "", `serve slice "i/n" of frontier-only generic enumerations (fleet replica mode)`)
	flag.StringVar(&cfg.replicas, "replicas", "", "comma-separated replica base URLs; enables coordinator fan-out for sharded requests")
	flag.StringVar(&cfg.routeKey, "route-key", "", `consistent-hash routing of predict/batch across -replicas: "workload" or "cluster" (default: none)`)
	flag.DurationVar(&cfg.probeInterval, "probe-interval", 2*time.Second, "how often a coordinator probes each replica's /readyz")
	flag.IntVar(&cfg.suspectAfter, "suspect-after", 1, "consecutive probe failures before a replica is suspect")
	flag.IntVar(&cfg.deadAfter, "dead-after", 3, "consecutive probe failures before a replica is dead (unroutable until it recovers)")
	flag.Float64Var(&cfg.hedgeQuantile, "hedge-quantile", 0.9, "shard-latency quantile that sets the hedged-request delay (0 disables hedging)")
	flag.Float64Var(&cfg.refitThreshold, "refit-threshold", 0.10, "rolling mean relative prediction error above which /v1/fit samples trigger an automatic profile refit")
	flag.IntVar(&cfg.maxFitSamples, "max-fit-samples", 256, "calibration samples kept per (workload, node) pair")
	flag.StringVar(&cfg.profileSnapshot, "profile-snapshot", "", "file refit profiles persist to on every version bump and load from at startup")
	flag.StringVar(&cfg.preheat, "preheat", "", "cache snapshot file to load compiled tables and hot results from before the listener opens (also where -snapshot-interval writes)")
	flag.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 0, "how often to persist the cache snapshot to the -preheat path, plus a final write on shutdown (0 = load-only)")
	flag.BoolVar(&cfg.peerWarm, "peer-warm", false, "pull a cache snapshot from a healthy -replicas sibling at startup and after recovering from dead")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "result cache byte budget (0 = entries-only limit)")
	flag.Int64Var(&cfg.tableCacheBytes, "table-cache-bytes", 0, "compiled kernel-table cache byte budget (0 = entries-only limit)")
	flag.IntVar(&cfg.streamFlushBytes, "stream-flush-bytes", 8192, "streamed-response chunk boundary: flush to the client once this many encoded bytes accumulate")
	flag.DurationVar(&cfg.streamFlushEvery, "stream-flush-interval", 100*time.Millisecond, "longest a streamed row may wait unflushed regardless of chunk fill")
	cliutil.Parse(0)

	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heteromixd: %v\n", err)
		os.Exit(1)
	}
	if cfg.chaosSpec != "" {
		log.Printf("heteromixd: CHAOS INJECTION ENABLED: %s", cfg.chaosSpec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("heteromixd %s listening on %s", buildinfo.Get(), *addr)
	if err := srv.Run(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "heteromixd: %v\n", err)
		os.Exit(1)
	}
	log.Printf("heteromixd: drained and stopped")
}

// newServer wires the experiment suite (the fitted models) into a
// serving instance.
func newServer(cfg daemonConfig) (*server.Server, error) {
	chaos, err := resilience.ParseChaosSpec(cfg.chaosSpec)
	if err != nil {
		return nil, err
	}
	var defaultShard shard.Shard
	if cfg.shardSpec != "" {
		defaultShard, err = shard.Parse(cfg.shardSpec)
		if err != nil {
			return nil, err
		}
	}
	var replicas []string
	if cfg.replicas != "" {
		for _, u := range strings.Split(cfg.replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicas = append(replicas, u)
			}
		}
	}
	suite := experiments.NewSuite(experiments.SuiteOptions{NoiseSigma: cfg.noise, Seed: cfg.seed})
	// Model seeds depend on build order, so warm the whole registry in
	// canonical order before serving: a restarted fleet replica must
	// rejoin computing the exact numbers its peers serve, not whatever
	// its first few requests would have lazily fit.
	if err := suite.WarmAllModels(); err != nil {
		return nil, err
	}
	return server.New(server.Options{
		Models:              suite,
		CacheEntries:        cfg.cache,
		TableCacheEntries:   cfg.tableCache,
		MaxConcurrent:       cfg.maxConcurrent,
		MaxNodes:            cfg.maxNodes,
		MaxGenericSpace:     cfg.maxGenericSpace,
		MaxBatchItems:       cfg.maxBatchItems,
		RequestTimeout:      cfg.timeout,
		DrainDelay:          cfg.drainDelay,
		Chaos:               chaos,
		EnablePprof:         cfg.pprof,
		DefaultShard:        defaultShard,
		Replicas:            replicas,
		RouteKey:            cfg.routeKey,
		ProbeInterval:       cfg.probeInterval,
		SuspectAfter:        cfg.suspectAfter,
		DeadAfter:           cfg.deadAfter,
		HedgeQuantile:       cfg.hedgeQuantile,
		DisableHedge:        cfg.hedgeQuantile == 0,
		RefitThreshold:      cfg.refitThreshold,
		MaxFitSamples:       cfg.maxFitSamples,
		ProfileSnapshot:     cfg.profileSnapshot,
		SnapshotPath:        cfg.preheat,
		SnapshotInterval:    cfg.snapshotInterval,
		PeerWarm:            cfg.peerWarm,
		CacheMaxBytes:       cfg.cacheBytes,
		TableCacheMaxBytes:  cfg.tableCacheBytes,
		StreamFlushBytes:    cfg.streamFlushBytes,
		StreamFlushInterval: cfg.streamFlushEvery,
	})
}
