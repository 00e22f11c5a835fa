// Package server is heteromixd's HTTP JSON API: the analytical model as
// a long-lived service instead of a one-shot CLI run. It exposes
//
//	POST /v1/predict                    one cluster configuration → time/energy
//	POST /v1/enumerate                  a two-type space → points or Pareto frontier
//	POST /v1/enumerate-generic          an N-type space → points, frontier, shard slice or fleet merge
//	GET  /v1/enumerate-generic/stream   the same as Server-Sent Events
//	POST /v1/budget                     power-budget substitution series
//	POST /v1/queueing                   M/D/1–M/G/1 wait/energy under job arrivals
//	POST /v1/batch                      heterogeneous predict/queueing/budget batch
//	POST /v1/fit                        calibration samples; drift triggers a refit
//	GET  /v1/profiles                   active profile versions
//	GET  /v1/snapshot                   the binary cache snapshot (peer warming)
//	GET  /healthz                       build identity, uptime, cache effectiveness
//	GET  /readyz                        readiness; 503 while draining
//	GET  /metrics                       Prometheus text exposition
//	GET  /debug/vars                    expvar
//	GET  /debug/pprof/                  runtime profiles (opt-in)
//
// The three enumeration routes share one pipeline (query.go, sink.go):
// each parses its request into a canonical query — profile version,
// work, limit, flags, head fields and a walker over the two-type or
// generic table — the planner picks one plan (limited walk, frontier,
// shard slice or fleet fan-out), one executor runs it under the enumerate
// breaker (the fan-out under per-replica breakers) and emits head →
// rows → trailer into a sink: a buffered JSON body, an NDJSON/SSE
// stream, or a delta stream over a stored predecessor frontier.
// Two-type, generic, streamed and fleet answers differ only in their
// parse, plan and sink.
//
// Underneath, two instances of one LRU (internal/lru) memoize work. The
// result cache, 16 shards of marshaled response bodies keyed on
// canonicalized requests, collapses a thundering herd of identical
// requests onto one computation; it holds predict, budget and batch
// bodies and the delta predecessors, and never an enumeration answer:
// every limited walk and frontier is computed from its compiled table.
// The table cache, one exact LRU of compiled kernel tables keyed by the
// cluster spec alone, lets every work size and deadline against one
// cluster share a single compiled artifact and the frontier candidate
// sets it builds (concurrent first enumerations collapse onto one table
// build, and frontiers onto one set build); keeping it apart means
// result churn never evicts a table. Every request runs under a
// per-request timeout and a configurable concurrency limiter (excess
// load is shed with 503 rather than queued without bound), and Run
// drains in-flight requests on shutdown.
package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"heteromix/internal/buildinfo"
	"heteromix/internal/calib"
	"heteromix/internal/cluster"
	"heteromix/internal/fleethealth"
	"heteromix/internal/lru"
	"heteromix/internal/metrics"
	"heteromix/internal/resilience"
	"heteromix/internal/shard"
)

// ModelSource provides fitted two-type spaces per workload.
// *experiments.Suite implements it.
type ModelSource interface {
	Space(workload string) (cluster.Space, error)
}

// Options configures a Server. The zero value of every field except
// Models selects a sensible default.
type Options struct {
	// Models supplies the fitted models. Required.
	Models ModelSource
	// CacheEntries bounds the result cache (default 4096 entries):
	// predict, budget and batch bodies and the delta predecessors.
	// Enumerations are computed every time and never stored.
	CacheEntries int
	// TableCacheEntries bounds the compiled kernel-table cache (default
	// lru.DefaultCapacity). Unlike the result cache, its keys
	// canonicalize only the cluster spec — never work size, deadline or
	// prune flag — so every request shape against the same cluster shares
	// one compiled artifact.
	TableCacheEntries int
	// MaxConcurrent bounds simultaneously executing /v1/* requests;
	// excess requests receive 503 (default 4×GOMAXPROCS).
	MaxConcurrent int
	// RequestTimeout bounds one request's computation (default 15s).
	RequestTimeout time.Duration
	// ShutdownGrace bounds the drain of in-flight requests when Run's
	// context is cancelled (default 10s).
	ShutdownGrace time.Duration
	// MaxNodes caps per-side node counts in predict/enumerate/budget
	// requests (default 128, the paper's largest scaling mix).
	MaxNodes int
	// MaxPoints caps the number of materialized points one enumerate
	// response may carry (default 20000).
	MaxPoints int
	// MaxGenericSpace caps how many points one /v1/enumerate-generic
	// request may walk after pruning; larger spaces get a 400 before any
	// enumeration runs (default 2,000,000).
	MaxGenericSpace uint64
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxBatchItems caps how many items one /v1/batch request may carry;
	// larger batches get a 400 before any item runs (default 256).
	MaxBatchItems int
	// BatchWorkers bounds the worker pool one /v1/batch request fans its
	// items across (default GOMAXPROCS).
	BatchWorkers int
	// Registry receives the server's metrics (default: a fresh one).
	Registry *metrics.Registry
	// BreakerThreshold and BreakerCooldown tune the circuit breaker on
	// the enumerate compute path (defaults 5 failures, 5s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainDelay is how long Run keeps serving after flipping /readyz to
	// 503 before closing the listener, giving load balancers time to
	// stop routing here (default 0: shut down immediately).
	DrainDelay time.Duration
	// Chaos injects faults into the /v1 endpoints (latency, errors,
	// panics, timeouts). Zero value: no injection. Gated behind the
	// daemon's -chaos flag; never on by default.
	Chaos resilience.ChaosOptions
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profile endpoints expose internals and can run for
	// tens of seconds, so they are opt-in via the daemon's -pprof flag.
	EnablePprof bool
	// Replicas lists fleet replica base URLs ("http://host:port"). With
	// replicas configured, the server coordinates sharded
	// /v1/enumerate-generic fan-out (requests with shards > 0) and, with
	// RouteKey set, routes predict/batch traffic by consistent hash so
	// each replica's compiled-table cache stays hot for the workloads it
	// owns.
	Replicas []string
	// RouteKey selects what predict/batch routing hashes on: "workload",
	// "cluster" (workload + switch accounting), or ""/"none" for no
	// routing. Only meaningful with Replicas.
	RouteKey string
	// DefaultShard, when Count > 0, restricts every frontier-only
	// /v1/enumerate-generic request that does not ask for sharding
	// itself to this replica's slice — how a fleet member started with
	// -shard serves coordination-free.
	DefaultShard shard.Shard
	// ProbeInterval is the fleet health prober's base period (default
	// 2s). Only meaningful with Replicas.
	ProbeInterval time.Duration
	// SuspectAfter and DeadAfter are the consecutive probe-failure
	// counts that demote a replica to suspect (still routable) and
	// declare it dead (shards fail over away), defaults 1 and 3.
	SuspectAfter int
	DeadAfter    int
	// HedgeQuantile selects the shard-latency quantile the coordinator
	// derives its hedge delay from: a shard request still unanswered at
	// that latency gets a second copy sent to the next healthy replica,
	// first success wins (default 0.9; must be in (0, 1)).
	HedgeQuantile float64
	// DisableHedge turns hedged shard fan-out off. Failover on error and
	// health-based shard reassignment still apply.
	DisableHedge bool
	// RefitThreshold is the rolling mean relative prediction error above
	// which /v1/fit ingests trigger an automatic profile refit (default
	// 0.10, i.e. 10%).
	RefitThreshold float64
	// MaxFitSamples bounds each (workload, node) pair's calibration
	// sample store (default 256).
	MaxFitSamples int
	// MaxFitBatch caps how many samples one /v1/fit request may carry
	// (default 256).
	MaxFitBatch int
	// ProfileSnapshot, when set, names the file profiles persist to on
	// every version bump and load from at startup. A missing file is a
	// normal first start; a corrupt or hash-mismatched one fails New.
	ProfileSnapshot string
	// SnapshotPath, when set, names the binary cache snapshot file
	// (internal/snapshot): compiled kernel tables and hot result bodies
	// are preheated from it before the listener opens, so the first
	// request after a restart is a cache hit instead of a table build. A
	// missing file is a normal first start and a snapshot written under
	// other profiles, models or build is skipped (the server starts
	// cold); a corrupt file fails New, like ProfileSnapshot.
	SnapshotPath string
	// SnapshotInterval is the background snapshot writer's period; with
	// SnapshotPath set and a positive interval, the hottest cache entries
	// persist atomically every interval and once more on Close. 0
	// disables the writer (an existing file still preheats).
	SnapshotInterval time.Duration
	// MaxSnapshotBytes caps accepted and served snapshots — the preheat
	// file, GET /v1/snapshot responses and peer-warm pulls (default
	// 64 MiB).
	MaxSnapshotBytes int64
	// PeerWarm pulls a healthy ring sibling's snapshot over
	// GET /v1/snapshot the first time the fleet prober sees one healthy,
	// warming this replica's caches after a cold start or recovery.
	// Requires Replicas.
	PeerWarm bool
	// StreamFlushBytes is the streamed-response chunk boundary: encoded
	// rows accumulate in a pooled buffer and flush to the client when it
	// crosses this many bytes (default 8 KiB).
	StreamFlushBytes int
	// StreamFlushInterval bounds how long a streamed row may sit
	// unflushed regardless of chunk fill, so a slow walk still feeds a
	// live consumer (default 100ms).
	StreamFlushInterval time.Duration
	// CacheMaxBytes bounds the result cache's resident response-body
	// bytes (0 = unlimited; entries still bound it).
	CacheMaxBytes int64
	// TableCacheMaxBytes bounds the compiled kernel-table cache's
	// resident bytes (0 = unlimited; entries still bound it).
	TableCacheMaxBytes int64
}

// endpoints instrumented with per-endpoint counters and latencies.
var endpointNames = []string{"predict", "enumerate", "enumerate-generic", "enumerate-generic-stream", "budget", "queueing", "batch", "fit", "profiles", "snapshot", "healthz", "readyz"}

// chaosKinds labels the chaos-injection counters.
var chaosKinds = []string{"latency", "error", "panic", "timeout"}

// endpointMetrics is one endpoint's instrument set.
type endpointMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	latency  *metrics.Histogram
}

// Server implements the API. Construct with New; safe for concurrent
// use.
type Server struct {
	opts   Options
	models ModelSource
	cache  *lru.Cache[[]byte]
	tables *lru.Cache[tableArtifact]
	reg    *metrics.Registry
	mux    *http.ServeMux
	sem    chan struct{}
	start  time.Time

	// calib versions every profile; all model and cache-key resolution
	// runs through it. genericOK records whether the BASE model source
	// supports per-spec models — the registry always implements
	// NodeModelSource itself, so the capability must be captured before
	// wrapping.
	calib     *calib.Registry
	genericOK bool

	chaos    *resilience.Chaos
	breaker  *resilience.Breaker
	draining atomic.Bool
	fleet    *fleetClient
	ring     *shard.Ring

	// health probes the configured replicas and publishes lock-free
	// ReplicaSet snapshots; shardRing is the consistent-hash ring the
	// fan-out walks for deterministic shard failover, and shardWalks
	// holds its successor walk for each of the first maxFleetShards
	// shard keys. All are nil without Replicas.
	health     *fleethealth.Prober
	shardRing  *shard.Ring
	shardWalks [][]string

	inflight          *metrics.Gauge
	rejected          *metrics.Counter
	timeouts          *metrics.Counter
	tableBuilds       *metrics.Counter
	batchItems        *metrics.Counter
	batchErrors       *metrics.Counter
	panics            *metrics.Counter
	degraded          *metrics.Counter
	genericPoints     *metrics.Counter
	genericPruned     *metrics.Counter
	breakerState      *metrics.Gauge
	breakerOpens      *metrics.Counter
	fleetFanouts      *metrics.Counter
	fleetShardErrors  *metrics.Counter
	fleetBreakerOpens *metrics.Counter
	fleetHedges       *metrics.Counter
	fleetHedgeWins    *metrics.Counter
	fleetFailovers    *metrics.Counter
	fleetShardLatency *metrics.Histogram
	deadlineCapped    *metrics.Counter
	streamRows        *metrics.Counter
	streamFlushes     *metrics.Counter
	streamDisconnects *metrics.Counter
	deltaHits         *metrics.Counter
	deltaMisses       *metrics.Counter
	deltaAdds         *metrics.Counter
	deltaDels         *metrics.Counter
	replicaState      map[string]*metrics.Gauge
	targetBreaker     map[string]*metrics.Gauge
	routedReqs        *metrics.Counter
	routeFallbacks    *metrics.Counter
	calibSamples      *metrics.Counter
	calibRefits       *metrics.Counter
	calibInvalid      *metrics.Counter
	calibSnapErrors   *metrics.Counter
	calibDrift        *metrics.Gauge
	snapshotLoads     *metrics.Counter
	snapshotSaves     *metrics.Counter
	snapshotRejects   *metrics.Counter
	snapshotSaveErrs  *metrics.Counter
	snapshotBytes     *metrics.Gauge
	chaosInject       map[string]*metrics.Counter
	byEndpoint        map[string]*endpointMetrics

	// snapMu guards snapInfo, the last loaded-or-written snapshot's
	// identity reported by /healthz. The writer goroutine (snapStop /
	// snapDone / snapOnce) runs only with SnapshotPath and a positive
	// SnapshotInterval; peerWarmed latches the one-shot peer-warm pull.
	snapMu     sync.Mutex
	snapInfo   snapshotInfo
	snapStop   chan struct{}
	snapDone   chan struct{}
	snapOnce   sync.Once
	peerWarmed atomic.Bool
	warmStop   chan struct{}
	warmDone   chan struct{}
	warmOnce   sync.Once

	mu      sync.Mutex
	httpSrv *http.Server

	// testHookStart, when set (tests only), runs at the start of every
	// instrumented request, after the concurrency slot is acquired.
	testHookStart func(endpoint string)
}

// New builds a Server and registers its routes and metrics.
func New(opts Options) (*Server, error) {
	if opts.Models == nil {
		return nil, fmt.Errorf("server: Options.Models is required")
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 4096
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 15 * time.Second
	}
	if opts.ShutdownGrace <= 0 {
		opts.ShutdownGrace = 10 * time.Second
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 128
	}
	if opts.MaxPoints <= 0 {
		opts.MaxPoints = 20000
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.MaxGenericSpace == 0 {
		opts.MaxGenericSpace = 2_000_000
	}
	if opts.MaxBatchItems <= 0 {
		opts.MaxBatchItems = 256
	}
	if opts.BatchWorkers <= 0 {
		opts.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 5
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = 5 * time.Second
	}
	if opts.RefitThreshold <= 0 {
		opts.RefitThreshold = 0.10
	}
	if opts.MaxFitSamples <= 0 {
		opts.MaxFitSamples = 256
	}
	if opts.MaxFitBatch <= 0 {
		opts.MaxFitBatch = 256
	}
	chaos, err := resilience.NewChaos(opts.Chaos)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if len(opts.Replicas) > maxFleetReplicas {
		return nil, fmt.Errorf("server: at most %d replicas, got %d", maxFleetReplicas, len(opts.Replicas))
	}
	for i, u := range opts.Replicas {
		if err := validReplicaURL(u); err != nil {
			return nil, fmt.Errorf("server: replicas[%d]: %v", i, err)
		}
	}
	switch opts.RouteKey {
	case "", "none", "workload", "cluster":
	default:
		return nil, fmt.Errorf("server: route key must be one of workload, cluster, none; got %q", opts.RouteKey)
	}
	if opts.RouteKey != "" && opts.RouteKey != "none" && len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("server: route key %q requires replicas", opts.RouteKey)
	}
	if opts.DefaultShard.Count != 0 {
		if err := opts.DefaultShard.Validate(); err != nil {
			return nil, fmt.Errorf("server: %v", err)
		}
	}
	if opts.ProbeInterval < 0 {
		return nil, fmt.Errorf("server: negative probe interval %v", opts.ProbeInterval)
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.HedgeQuantile == 0 {
		opts.HedgeQuantile = 0.9
	}
	if opts.HedgeQuantile <= 0 || opts.HedgeQuantile >= 1 {
		return nil, fmt.Errorf("server: hedge quantile must be in (0, 1), got %v", opts.HedgeQuantile)
	}
	if opts.SnapshotInterval < 0 {
		return nil, fmt.Errorf("server: negative snapshot interval %v", opts.SnapshotInterval)
	}
	if opts.MaxSnapshotBytes < 0 {
		return nil, fmt.Errorf("server: negative snapshot byte cap %d", opts.MaxSnapshotBytes)
	}
	if opts.MaxSnapshotBytes == 0 {
		opts.MaxSnapshotBytes = defaultMaxSnapshotBytes
	}
	if opts.CacheMaxBytes < 0 || opts.TableCacheMaxBytes < 0 {
		return nil, fmt.Errorf("server: cache byte limits must be non-negative")
	}
	if opts.PeerWarm && len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("server: peer warming requires replicas")
	}

	s := &Server{
		opts:   opts,
		cache:  lru.New(opts.CacheEntries, 16, func(b []byte) int64 { return int64(len(b)) }),
		tables: lru.New(opts.TableCacheEntries, 1, func(a tableArtifact) int64 { return int64(a.SizeBytes()) }),
		reg:    opts.Registry,
		mux:    http.NewServeMux(),
		sem:    make(chan struct{}, opts.MaxConcurrent),
		start:  time.Now(),
		chaos:  chaos,
	}
	s.cache.SetMaxBytes(opts.CacheMaxBytes)
	s.tables.SetMaxBytes(opts.TableCacheMaxBytes)
	// All model resolution runs through the calibration registry: the
	// base source with versioned refit overrides overlaid. The generic
	// endpoint's capability gate keys on the base source, not the
	// registry (which always implements NodeModelSource).
	_, s.genericOK = opts.Models.(NodeModelSource)
	s.calib = calib.NewRegistry(opts.Models, calib.Options{
		RefitThreshold: opts.RefitThreshold,
		MaxSamples:     opts.MaxFitSamples,
		OnBump:         func(ev calib.BumpEvent) { s.onProfileBump(ev) },
	})
	s.models = s.calib
	if opts.ProfileSnapshot != "" {
		if err := s.calib.LoadSnapshotFile(opts.ProfileSnapshot); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("server: loading profile snapshot %s: %w", opts.ProfileSnapshot, err)
		}
	}
	s.registerMetrics()
	s.chaos.OnInject = func(kind string) { s.chaosInject[kind].Inc() }
	s.breaker = resilience.NewBreaker(resilience.BreakerOptions{
		FailureThreshold: opts.BreakerThreshold,
		Cooldown:         opts.BreakerCooldown,
		IsFailure:        func(err error) bool { return !errors.As(err, new(callerDeadline)) },
		OnStateChange: func(_, to resilience.BreakerState) {
			s.breakerState.Set(int64(to))
			if to == resilience.Open {
				s.breakerOpens.Inc()
			}
		},
	})
	if len(opts.Replicas) > 0 {
		// One breaker per replica URL: a dead replica fails its shards
		// fast; every open transition is counted fleet-wide and mirrored
		// into that target's labeled breaker_state gauge. Context
		// cancellations are neutral — a hedge loser was abandoned, not
		// refused, so it must not trip a healthy replica's breaker.
		s.fleet = newFleetClient(func(target string) *resilience.Breaker {
			gauge := s.targetBreaker[target]
			return resilience.NewBreaker(resilience.BreakerOptions{
				FailureThreshold: opts.BreakerThreshold,
				Cooldown:         opts.BreakerCooldown,
				IsFailure:        func(err error) bool { return !errors.Is(err, context.Canceled) },
				OnStateChange: func(_, to resilience.BreakerState) {
					if gauge != nil {
						gauge.Set(int64(to))
					}
					if to == resilience.Open {
						s.fleetBreakerOpens.Inc()
					}
				},
			})
		})
		s.shardRing = shard.NewRing(opts.Replicas, 0)
		s.shardWalks = shardWalks(s.shardRing, maxFleetShards)
		if opts.RouteKey == "workload" || opts.RouteKey == "cluster" {
			s.ring = s.shardRing
		}
		s.health, err = fleethealth.New(fleethealth.Options{
			Targets:      opts.Replicas,
			Interval:     opts.ProbeInterval,
			SuspectAfter: opts.SuspectAfter,
			DeadAfter:    opts.DeadAfter,
			OnTransition: func(target string, _, to fleethealth.State) {
				if g := s.replicaState[target]; g != nil {
					g.Set(int64(to))
				}
				// Peer warming: the first sibling probed healthy donates its
				// hottest cache entries to this freshly started replica.
				s.maybePeerWarm(target, to)
			},
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.health.Start()
	}
	// Preheat before the listener can open: the first request served
	// after New returns already sees warm caches. A corrupt snapshot
	// fails New (like ProfileSnapshot); an incompatible one is counted
	// and skipped — the server starts cold rather than refusing to start
	// after a legitimate profile or build change.
	if opts.SnapshotPath != "" {
		if err := s.preheat(opts.SnapshotPath); err != nil {
			s.Close()
			return nil, fmt.Errorf("server: preheating from %s: %w", opts.SnapshotPath, err)
		}
		if opts.SnapshotInterval > 0 {
			s.snapStop = make(chan struct{})
			s.snapDone = make(chan struct{})
			go s.snapshotWriter()
		}
	}
	// The OnTransition hook only fires on state changes; a freshly
	// started replica whose siblings are already healthy sees none, so a
	// startup watcher makes the initial pull.
	if opts.PeerWarm {
		s.warmStop = make(chan struct{})
		s.warmDone = make(chan struct{})
		go s.peerWarmAtStartup()
	}
	s.registerRoutes()
	return s, nil
}

func (s *Server) registerMetrics() {
	r := s.reg
	s.inflight = r.NewGauge("heteromixd_inflight_requests",
		"requests currently executing")
	s.rejected = r.NewCounter("heteromixd_rejected_total",
		"requests shed by the concurrency limiter")
	s.timeouts = r.NewCounter("heteromixd_timeouts_total",
		"requests aborted by the per-request timeout")
	s.tableBuilds = r.NewCounter("heteromixd_kernel_table_builds_total",
		"kernel tables built (cache misses on the table layer)")
	// The caches keep their own statistics; these series read them at
	// export time, so /metrics and /debug/vars are always current.
	r.NewCounterFunc("heteromixd_cache_hits_total",
		"result cache hits", func() uint64 { return s.cache.Stats().Hits })
	r.NewCounterFunc("heteromixd_cache_misses_total",
		"result cache misses", func() uint64 { return s.cache.Stats().Misses })
	r.NewCounterFunc("heteromixd_cache_collapsed_total",
		"requests that shared another request's computation (singleflight)",
		func() uint64 { return s.cache.Stats().Collapsed })
	r.NewCounterFunc("heteromixd_cache_evictions_total",
		"result cache LRU evictions", func() uint64 { return s.cache.Stats().Evictions })
	r.NewCounterFunc("heteromixd_table_cache_hits_total",
		"compiled kernel-table cache hits", func() uint64 { return s.tables.Stats().Hits })
	r.NewCounterFunc("heteromixd_table_cache_misses_total",
		"compiled kernel-table cache misses", func() uint64 { return s.tables.Stats().Misses })
	r.NewCounterFunc("heteromixd_table_cache_evictions_total",
		"compiled kernel-table cache LRU evictions", func() uint64 { return s.tables.Stats().Evictions })
	r.NewGaugeFunc("heteromixd_table_cache_bytes",
		"resident size of cached compiled kernel tables", func() int64 { return s.tables.Stats().Bytes })
	s.batchItems = r.NewCounter("heteromixd_batch_items_total",
		"items received inside /v1/batch requests")
	s.batchErrors = r.NewCounter("heteromixd_batch_item_errors_total",
		"batch items that answered a per-item error object")
	s.panics = r.NewCounter("heteromixd_panics_recovered_total",
		"handler panics contained by the recovery middleware")
	s.degraded = r.NewCounter("heteromixd_degraded_responses_total",
		"fleet merges served as degraded partials, missing failed shards")
	s.genericPoints = r.NewCounter("heteromixd_generic_points_evaluated_total",
		"N-type configurations evaluated by /v1/enumerate-generic")
	s.genericPruned = r.NewCounter("heteromixd_generic_points_pruned_total",
		"N-type configurations skipped by domination pruning")
	s.breakerState = r.NewGauge("heteromixd_breaker_state",
		"enumerate circuit breaker state (0 closed, 1 open, 2 half-open)")
	s.breakerOpens = r.NewCounter("heteromixd_breaker_opens_total",
		"times the enumerate circuit breaker tripped open")
	s.fleetFanouts = r.NewCounter("heteromixd_fleet_fanouts_total",
		"coordinator scatter-gather fan-outs issued")
	s.fleetShardErrors = r.NewCounter("heteromixd_fleet_shard_errors_total",
		"shard requests that failed within a fan-out")
	s.fleetBreakerOpens = r.NewCounter("heteromixd_fleet_breaker_opens_total",
		"times a per-replica circuit breaker tripped open")
	s.fleetHedges = r.NewCounter("heteromixd_fleet_hedges_total",
		"hedged shard requests launched after the hedge delay")
	s.fleetHedgeWins = r.NewCounter("heteromixd_fleet_hedge_wins_total",
		"hedged shard requests that answered before the primary")
	s.fleetFailovers = r.NewCounter("heteromixd_fleet_failovers_total",
		"shard requests re-sent to the next replica after the primary failed")
	s.fleetShardLatency = r.NewHistogram("heteromixd_fleet_shard_latency_seconds",
		"successful shard request latency as seen by the coordinator",
		metrics.DefLatencyBuckets())
	s.deadlineCapped = r.NewCounter("heteromixd_deadline_capped_total",
		"requests whose timeout was tightened by a propagated X-Deadline-Ms")
	s.streamRows = r.NewCounter("heteromixd_stream_rows_total",
		"point/add/del records shipped on streamed enumeration responses")
	s.streamFlushes = r.NewCounter("heteromixd_stream_flushes_total",
		"chunk boundary flushes pushed to streaming clients")
	s.streamDisconnects = r.NewCounter("heteromixd_stream_disconnects_total",
		"streams abandoned by the client mid-response (the walk was shed)")
	s.deltaHits = r.NewCounter("heteromixd_delta_hits_total",
		"delta-requested streams that found a predecessor frontier and shipped ops")
	s.deltaMisses = r.NewCounter("heteromixd_delta_misses_total",
		"delta-requested streams that fell back to a full stream")
	s.deltaAdds = r.NewCounter("heteromixd_delta_adds_total",
		"add ops shipped on delta streams")
	s.deltaDels = r.NewCounter("heteromixd_delta_dels_total",
		"del ops shipped on delta streams")
	s.replicaState = make(map[string]*metrics.Gauge, len(s.opts.Replicas))
	s.targetBreaker = make(map[string]*metrics.Gauge, len(s.opts.Replicas))
	for _, target := range s.opts.Replicas {
		s.replicaState[target] = r.NewGauge("heteromixd_fleet_replica_state",
			"probed replica health (0 healthy, 1 suspect, 2 dead, 3 recovering)",
			metrics.Label{Key: "target", Value: target})
		s.targetBreaker[target] = r.NewGauge("heteromixd_breaker_state",
			"per-replica circuit breaker state (0 closed, 1 open, 2 half-open)",
			metrics.Label{Key: "target", Value: target})
	}
	s.routedReqs = r.NewCounter("heteromixd_routed_requests_total",
		"requests forwarded to their consistent-hash owner")
	s.routeFallbacks = r.NewCounter("heteromixd_route_fallbacks_total",
		"forwards that failed and fell back to local compute")
	s.calibSamples = r.NewCounter("heteromixd_calib_samples_total",
		"calibration samples accepted by /v1/fit")
	s.calibRefits = r.NewCounter("heteromixd_calib_refits_total",
		"automatic profile refits installed")
	s.calibInvalid = r.NewCounter("heteromixd_calib_invalidations_total",
		"cache entries invalidated by profile version bumps")
	s.calibSnapErrors = r.NewCounter("heteromixd_calib_snapshot_errors_total",
		"profile snapshot writes that failed")
	s.calibDrift = r.NewGauge("heteromixd_calib_drift_ppm",
		"worst rolling mean relative prediction error across calibrated pairs, parts per million")
	s.snapshotLoads = r.NewCounter("heteromixd_snapshot_load_total",
		"cache snapshots loaded (preheat and peer warming)")
	s.snapshotSaves = r.NewCounter("heteromixd_snapshot_save_total",
		"cache snapshots written by the background writer")
	s.snapshotRejects = r.NewCounter("heteromixd_snapshot_reject_total",
		"cache snapshots rejected (incompatible, corrupt, oversized or profile-mismatched)")
	s.snapshotSaveErrs = r.NewCounter("heteromixd_snapshot_save_errors_total",
		"cache snapshot writes that failed")
	s.snapshotBytes = r.NewGauge("heteromixd_snapshot_bytes",
		"size of the last cache snapshot loaded or written")
	s.chaosInject = make(map[string]*metrics.Counter, len(chaosKinds))
	for _, kind := range chaosKinds {
		s.chaosInject[kind] = r.NewCounter("heteromixd_chaos_injections_total",
			"chaos faults injected", metrics.Label{Key: "kind", Value: kind})
	}
	s.byEndpoint = make(map[string]*endpointMetrics, len(endpointNames))
	for _, ep := range endpointNames {
		s.byEndpoint[ep] = &endpointMetrics{
			requests: r.NewCounter("heteromixd_requests_total",
				"requests received", metrics.Label{Key: "endpoint", Value: ep}),
			errors: r.NewCounter("heteromixd_request_errors_total",
				"requests answered with a 4xx/5xx status",
				metrics.Label{Key: "endpoint", Value: ep}),
			latency: r.NewHistogram("heteromixd_request_latency_seconds",
				"request latency", metrics.DefLatencyBuckets(),
				metrics.Label{Key: "endpoint", Value: ep}),
		}
	}
	info := buildinfo.Get()
	r.NewGauge("heteromixd_build_info", "build identity (value is always 1)",
		metrics.Label{Key: "version", Value: info.Version},
		metrics.Label{Key: "commit", Value: info.Commit}).Set(1)
	s.reg.Expvar("heteromixd")
}

func (s *Server) registerRoutes() {
	s.mux.Handle("POST /v1/predict", s.instrument("predict", true, s.handlePredict))
	s.mux.Handle("POST /v1/enumerate", s.instrument("enumerate", true, s.handleEnumerate))
	s.mux.Handle("POST /v1/enumerate-generic", s.instrument("enumerate-generic", true, s.handleEnumerateGeneric))
	s.mux.Handle("GET /v1/enumerate-generic/stream", s.instrument("enumerate-generic-stream", true, s.handleEnumerateGenericSSE))
	s.mux.Handle("POST /v1/budget", s.instrument("budget", true, s.handleBudget))
	s.mux.Handle("POST /v1/queueing", s.instrument("queueing", true, s.handleQueueing))
	s.mux.Handle("POST /v1/batch", s.instrument("batch", true, s.handleBatch))
	s.mux.Handle("POST /v1/fit", s.instrument("fit", true, s.handleFit))
	s.mux.Handle("GET /v1/profiles", s.instrument("profiles", false, s.handleProfiles))
	s.mux.Handle("GET /v1/snapshot", s.instrument("snapshot", false, s.handleSnapshotGet))
	s.mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.Handle("GET /readyz", s.instrument("readyz", false, s.handleReadyz))
	s.mux.Handle("GET /metrics", s.reg.Handler())
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	if s.opts.EnablePprof {
		// Deliberately outside instrument(): profiling must stay reachable
		// when the limiter is shedding, and a 30s CPU profile must not
		// trip the request timeout.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Handler returns the fully routed handler.
func (s *Server) Handler() http.Handler { return s.mux }

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush lets streamed responses push chunk boundaries through the
// instrumentation wrapper to the real connection.
func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// shedRetryAfter returns a jittered Retry-After value in [1, 3] seconds
// so a shed herd does not retry in lockstep and re-shed itself.
func shedRetryAfter() string {
	return strconv.Itoa(1 + rand.Intn(3))
}

// instrument wraps a handler with the serving policy: in-flight
// accounting, the concurrency limiter (limited endpoints only), the
// per-request timeout, chaos injection (limited endpoints, when
// enabled), panic containment via resilience.Recover and per-endpoint
// metrics.
func (s *Server) instrument(endpoint string, limited bool, h http.HandlerFunc) http.Handler {
	em := s.byEndpoint[endpoint]
	// Chaos sits inside Recover so injected panics exercise the same
	// containment a real handler bug would. The test hook runs innermost,
	// inside both, so hook-injected panics and stalls are also contained.
	var inner http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.testHookStart != nil {
			s.testHookStart(endpoint)
		}
		h(w, r)
	})
	if limited {
		inner = s.chaos.Middleware(inner)
	}
	inner = resilience.Recover(func(any) { s.panics.Inc() }, inner)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		s.inflight.Inc()
		defer s.inflight.Dec()

		if limited {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.rejected.Inc()
				em.errors.Inc()
				w.Header().Set("Retry-After", shedRetryAfter())
				writeError(w, http.StatusServiceUnavailable,
					"over capacity (%d concurrent requests)", s.opts.MaxConcurrent)
				return
			}
		}
		// Deadline propagation: a coordinator stamps its remaining budget
		// on sub-requests as X-Deadline-Ms; a tighter propagated deadline
		// caps this handler's timeout so the replica sheds work whose
		// answer the coordinator could no longer use. Malformed values are
		// a client error (400, never 500).
		timeout := s.opts.RequestTimeout
		var cause error
		if h := r.Header.Get(deadlineHeader); h != "" && limited {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 || ms > maxDeadlineMs {
				em.errors.Inc()
				writeError(w, http.StatusBadRequest,
					"%s must be an integer in [1, %d], got %q", deadlineHeader, maxDeadlineMs, h)
				return
			}
			if d := time.Duration(ms) * time.Millisecond; d < timeout {
				timeout, cause = d, errClientDeadline
				s.deadlineCapped.Inc()
			}
		}
		ctx, cancel := context.WithTimeoutCause(r.Context(), timeout, cause)
		defer cancel()
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		startAt := time.Now()
		inner.ServeHTTP(sw, r)
		em.latency.Observe(time.Since(startAt).Seconds())
		if sw.code >= 400 {
			em.errors.Inc()
		}
		if ctx.Err() != nil {
			s.timeouts.Inc()
		}
	})
}

// Serve accepts connections on l until Shutdown. A nil error means the
// listener was closed by Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{
			Handler:           s.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
	}
	srv := s.httpSrv
	s.mu.Unlock()
	if err := srv.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Run listens on addr and serves until ctx is cancelled (the daemon
// wires SIGTERM/SIGINT into ctx), then drains in-flight requests for up
// to Options.ShutdownGrace before returning.
func (s *Server) Run(ctx context.Context, addr string) error {
	defer s.Close()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.httpSrv == nil {
		s.httpSrv = &http.Server{
			Handler:           s.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
	}
	// Record the bound address (addr may have asked for port 0).
	s.httpSrv.Addr = l.Addr().String()
	s.mu.Unlock()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// Flip readiness first so load balancers stop routing here, keep
		// serving for DrainDelay, then close the listener and drain
		// in-flight requests.
		s.draining.Store(true)
		if s.opts.DrainDelay > 0 {
			time.Sleep(s.opts.DrainDelay)
		}
		drain, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownGrace)
		defer cancel()
		if err := s.Shutdown(drain); err != nil {
			return err
		}
		return <-errCh
	}
}

// Close releases the server's background resources — the fleet health
// prober's goroutines, the snapshot writer (which persists one final
// snapshot so a clean shutdown keeps its warmth) and the idle replica
// connections of the fleet transport. Idempotent and safe
// on a server without replicas; callers that construct with New and
// never Run should defer it (Run closes on exit itself).
func (s *Server) Close() {
	if s.warmStop != nil {
		s.warmOnce.Do(func() {
			close(s.warmStop)
			<-s.warmDone
		})
	}
	if s.snapStop != nil {
		s.snapOnce.Do(func() {
			close(s.snapStop)
			<-s.snapDone
		})
	}
	if s.health != nil {
		s.health.Stop()
	}
	if s.fleet != nil {
		s.fleet.tr.CloseIdleConnections()
	}
}

// FleetHealth returns the current replica-set snapshot, nil without
// replicas. Lock-free; intended for tests, logs and operator tooling.
func (s *Server) FleetHealth() *fleethealth.ReplicaSet {
	if s.health == nil {
		return nil
	}
	return s.health.Snapshot()
}

// ProbeFleet forces one synchronous probe round across all replicas —
// how tests observe kill/revive transitions without waiting out the
// probe interval. No-op without replicas.
func (s *Server) ProbeFleet(ctx context.Context) {
	if s.health != nil {
		s.health.ProbeNow(ctx)
	}
}

// Draining reports whether graceful shutdown has begun (readyz is 503).
func (s *Server) Draining() bool { return s.draining.Load() }

// BreakerState exposes the enumerate breaker's state (for tests/logs).
func (s *Server) BreakerState() resilience.BreakerState { return s.breaker.State() }

// Addr returns the bound address once Serve has been called via Run;
// empty otherwise. Intended for logs.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpSrv == nil {
		return ""
	}
	return s.httpSrv.Addr
}

// CacheStats exposes the result cache's counters (for tests and logs).
func (s *Server) CacheStats() lru.Stats { return s.cache.Stats() }

// TableCacheStats exposes the compiled kernel-table cache's counters.
func (s *Server) TableCacheStats() lru.Stats { return s.tables.Stats() }

// TableBuilds reports how many kernel tables have been built — the
// number a singleflight-collapsed herd keeps at one per distinct space.
func (s *Server) TableBuilds() uint64 { return s.tableBuilds.Value() }
