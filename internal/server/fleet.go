package server

// Fleet mode: scatter-gather enumeration and consistent-hash routing
// across a replica set.
//
// A coordinator receives /v1/enumerate-generic with shards: n, rewrites
// it into n shard requests ("shard": "i/n") pinned to the profile
// version its own table was compiled under, fans them out across its
// replica URLs, one attempt per replica under per-replica circuit
// breakers, and takes only the survivors' serial indices from each
// answer: checked against its own space, they are re-evaluated on its
// own table by the merge the local chunked walk uses
// (cluster.GenericTable.FrontierOfIndices). The merged body is thus
// byte-identical to an unsharded walk of the same space. Neither the
// merge nor a slice is cached, like every frontier-only answer: a
// replica answers each slice from that slice's work-invariant candidate
// set, which its compiled table keeps for every work size.
//
// Self-healing: each shard is assigned along the consistent-hash ring's
// successor walk (shard.Ring.Successors), filtered by the health
// prober's snapshot, so a shard owned by a dead replica is reassigned
// to the next healthy one before a byte is sent. Each candidate is asked
// at most once per fan-out: there is no retry against the same replica,
// so failover and the hedge are the only recovery. A shard request that
// fails outright fails over to its next candidate immediately; one that
// is merely slow gets a hedge — a duplicate sent to the next candidate
// after the observed latency quantile elapses — and the first success
// wins while the loser is cancelled. Sub-requests carry the
// coordinator's remaining budget as X-Deadline-Ms so replicas shed work
// whose answer would arrive too late. Only when a shard exhausts its
// candidates does it count as failed: the merge of the surviving slices
// is served marked degraded with the failed shard indices listed; when
// every shard fails the request answers 503, never 500.
//
// Transport: the coordinator owns its replica transport rather than
// riding http.DefaultClient. Shard answers are a few KB of JSON on a
// loopback or LAN hop, so the transport asks for no gzip (inflating
// each one cost a fresh ~32 KB flate window, more than the answer), and
// its idle pool keeps maxFleetShards*maxShardAttempts connections per
// replica, so a fan-out that lands every shard on one replica reuses
// its connections instead of dialling. Every replica call — shard
// request, routed forward, peer-warm snapshot pull — goes through
// fleetClient.call: one attempt under the target's breaker, its answer
// read into a pooled buffer that lives only while it is decoded.
//
// Routing: with a RouteKey configured, predict and single-workload
// batch requests are forwarded to the consistent-hash owner of their
// workload, so each replica's compiled-table cache stays hot for the
// clusters it owns. Forwarded requests carry X-Heteromix-Routed; a
// request already carrying it is always served locally, which bounds
// every request to at most one hop. A forward is one attempt; if it
// fails (network, 5xx, open breaker) the request is computed locally.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"heteromix/internal/fleethealth"
	"heteromix/internal/resilience"
	"heteromix/internal/shard"
)

const (
	// maxFleetShards bounds a coordinator fan-out; more shards than this
	// is a client error, not a bigger fleet.
	maxFleetShards = 64
	// maxFleetReplicas bounds the configured replica set.
	maxFleetReplicas = 16
	// maxFleetBody bounds one replica response read.
	maxFleetBody = 64 << 20
	// routedHeader marks a request as already routed/fanned-out once;
	// servers never forward a request that carries it.
	routedHeader = "X-Heteromix-Routed"
	// deadlineHeader propagates a coordinator's remaining time budget to
	// replicas, in integer milliseconds. Replicas cap their per-request
	// timeout at it so they stop computing answers the coordinator has
	// already given up on.
	deadlineHeader = "X-Deadline-Ms"
	// maxDeadlineMs bounds an accepted propagated deadline (one hour);
	// larger values are a client error.
	maxDeadlineMs = 3_600_000
	// maxShardAttempts bounds how many replicas one shard may be tried
	// on in a single fan-out: the ring owner plus one failover/hedge.
	maxShardAttempts = 2
)

// errClientDeadline is the cancellation cause of a request context whose
// timeout a propagated X-Deadline-Ms tightened: expiry then reflects the
// caller's budget, not this server's health.
var errClientDeadline = errors.New("propagated deadline expired")

// callerDeadline marks a local plan's error that the caller's own
// propagated deadline caused. The enumerate breaker classifies it as
// neutral (BreakerOptions.IsFailure), so no client can open the breaker
// for everyone by sending tight deadlines; the server's own
// RequestTimeout expiring still counts. The wrapped error keeps its
// message and its errors.Is identity.
type callerDeadline struct{ error }

func (e callerDeadline) Unwrap() error { return e.error }

// errFleetUnavailable marks a fan-out in which every shard failed; it
// maps to 503 like an open breaker, never 500.
var errFleetUnavailable = errors.New("fleet unavailable")

// validReplicaURL admits http(s) base URLs with a host and no path, the
// only shapes the fan-out and router will join endpoints onto.
func validReplicaURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("invalid URL %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("replica URL must be http(s)://host[:port], got %q", raw)
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return fmt.Errorf("replica URL must be a bare base URL, got %q", raw)
	}
	return nil
}

// fleetClient is the coordinator's transport: a plain HTTP client over
// its own keep-alive pool, shared across replicas, plus one circuit
// breaker per replica URL, so a dead replica fails its shards fast.
// Every replica call is one attempt (call): recovery is the caller's
// failover and hedging, never a retry against the same replica.
type fleetClient struct {
	tr         *http.Transport
	c          *http.Client
	newBreaker func(target string) *resilience.Breaker

	mu       sync.Mutex
	breakers map[string]*resilience.Breaker
}

// fleetIdlePerHost is the most connections one fan-out can hold open to
// a single replica: every shard's primary plus its hedge or failover.
const fleetIdlePerHost = maxFleetShards * maxShardAttempts

func newFleetClient(newBreaker func(target string) *resilience.Breaker) *fleetClient {
	// Cloned so the default proxy, dial and TLS settings are kept. No
	// gzip: shard answers are small and the hop is cheap, so inflating
	// them costs more than the bytes it saves. The idle pool is sized to
	// the fan-out, with no global cap below one replica's share.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DisableCompression = true
	tr.MaxIdleConnsPerHost = fleetIdlePerHost
	tr.MaxIdleConns = maxFleetReplicas * fleetIdlePerHost
	return &fleetClient{
		tr:         tr,
		c:          &http.Client{Transport: tr},
		newBreaker: newBreaker,
		breakers:   map[string]*resilience.Breaker{},
	}
}

// breakerFor returns the breaker guarding one replica URL, creating it
// on first sight.
func (f *fleetClient) breakerFor(target string) *resilience.Breaker {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.breakers[target]
	if !ok {
		b = f.newBreaker(target)
		f.breakers[target] = b
	}
	return b
}

// maxPooledAnswer bounds the capacity of an answer buffer returned to
// answerPool, so one outsized answer does not pin its memory for good.
const maxPooledAnswer = 1 << 20

// answerPool recycles the buffers replica answers are read into.
var answerPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// call makes one request to target's endpoint under that replica's
// breaker, with the routed marker set; body, when non-nil, is sent as
// JSON. When ctx carries a deadline, the remaining budget minus a 10%
// gather margin is stamped on the request as X-Deadline-Ms, so the
// replica sheds work the coordinator could no longer use; an
// already-exhausted budget fails fast without a wire round trip. At
// most limit bytes of the answer are read into a pooled buffer, and
// read gets the status, the answer's headers and those bytes, valid only
// until read returns: read must not keep any slice of them. A transport
// error or read's error counts against the breaker.
func (f *fleetClient) call(ctx context.Context, target, method, endpoint string, body []byte, limit int64, read func(status int, h http.Header, b []byte) error) error {
	return f.breakerFor(target).Do(func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		hreq, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(target, "/")+endpoint, rd)
		if err != nil {
			return err
		}
		if body != nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
		hreq.Header.Set(routedHeader, "1")
		if dl, ok := ctx.Deadline(); ok {
			budget := time.Until(dl)
			budget -= budget / 10
			if budget < time.Millisecond {
				return fmt.Errorf("deadline exhausted: %w", context.DeadlineExceeded)
			}
			hreq.Header.Set(deadlineHeader, strconv.FormatInt(budget.Milliseconds(), 10))
		}
		resp, err := f.c.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		buf := answerPool.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxPooledAnswer {
				buf.Reset()
				answerPool.Put(buf)
			}
		}()
		if _, err := buf.ReadFrom(io.LimitReader(resp.Body, limit)); err != nil {
			return err
		}
		return read(resp.StatusCode, resp.Header, buf.Bytes())
	})
}

// shardCandidates builds each shard's ordered replica walk: the
// consistent-hash owner first, then the next distinct ring members —
// filtered by the health snapshot so dead replicas are skipped before a
// byte is sent — capped at maxShardAttempts. A shard whose every
// candidate is unroutable gets an empty walk and fails without a wire
// attempt, which is exactly the failed_shards partial path.
func (s *Server) shardCandidates(n int) [][]string {
	var snap *fleethealth.ReplicaSet
	if s.health != nil {
		snap = s.health.Snapshot()
	}
	cands := make([][]string, n)
	flat := make([]string, 0, n*maxShardAttempts)
	for i := range cands {
		start := len(flat)
		for _, t := range s.shardWalks[i] {
			if snap != nil && !snap.Routable(t) {
				continue
			}
			flat = append(flat, t)
			if len(flat)-start == maxShardAttempts {
				break
			}
		}
		cands[i] = flat[start:len(flat):len(flat)]
	}
	return cands
}

// shardWalks returns the ring's successor walk of each of the first n
// shard keys. The configured ring never changes, so a server computes
// its walks once, for every shard count a fan-out may ask for.
func shardWalks(ring *shard.Ring, n int) [][]string {
	walks := make([][]string, n)
	for i := range walks {
		walks[i] = ring.Successors("shard:" + strconv.Itoa(i))
	}
	return walks
}

// fanOutGeneric scatters q's shard requests across the replica set —
// each shard walking its candidate replicas with failover and hedging.
// It returns the serial indices the answered slices kept, the indices
// of shards that failed, and whether any surviving slice was itself
// served degraded. onShard is invoked from each shard's goroutine as its
// outcome settles (streamed coordinators emit progress records from it
// — the callback must serialize itself); every callback has returned
// before fanOutGeneric does.
func (s *Server) fanOutGeneric(ctx context.Context, q *query, onShard func(shardProgress)) (survivors []uint64, failed []int, degraded bool, err error) {
	n := q.gen.Shards
	cands := s.shardCandidates(n)
	s.fleetFanouts.Inc()
	type result struct {
		idx []uint64
		deg bool
		err error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, deg, err := s.shardRequestHedged(ctx, cands[i], q, i, n)
			results[i] = result{idx: idx, deg: deg, err: err}
			onShard(shardProgress{Shard: i, Points: len(idx), Failed: err != nil})
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.err != nil {
			s.fleetShardErrors.Inc()
			failed = append(failed, i)
			continue
		}
		degraded = degraded || res.deg
		survivors = append(survivors, res.idx...)
	}
	if len(failed) == n {
		return nil, failed, false, fmt.Errorf("%w: all %d shards failed", errFleetUnavailable, n)
	}
	return survivors, failed, degraded, nil
}

// hedgeDelay is how long the coordinator waits on a shard's primary
// before sending a hedge to the next candidate: the configured quantile
// of observed successful shard latencies, clamped to [2ms,
// RequestTimeout/4]. Before any latency has been observed it falls back
// to a flat 50ms — conservative enough that a warm fleet rarely hedges
// by accident, fast enough that a stuck replica costs one beat, not the
// whole request timeout.
func (s *Server) hedgeDelay() time.Duration {
	const coldStart = 50 * time.Millisecond
	if s.fleetShardLatency.Count() == 0 {
		return coldStart
	}
	d := time.Duration(s.fleetShardLatency.Quantile(s.opts.HedgeQuantile) * float64(time.Second))
	if d < 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	if lim := s.opts.RequestTimeout / 4; d > lim {
		d = lim
	}
	return d
}

// shardRequestHedged resolves one shard against its candidate walk.
// The primary (the shard's ring owner) is asked first; a failure before
// any other outcome triggers immediate failover to the next candidate,
// and a primary still unanswered after hedgeDelay gets a hedge sent to
// that same next candidate — whichever copy succeeds first wins and the
// loser's context is cancelled (a neutral outcome for its breaker).
// The results channel is buffered to the attempt count so an abandoned
// loser never blocks on send and no goroutine outlives its HTTP call.
func (s *Server) shardRequestHedged(ctx context.Context, cands []string, q *query, i, n int) ([]uint64, bool, error) {
	if len(cands) == 0 {
		return nil, false, fmt.Errorf("shard %d/%d: no routable replica", i, n)
	}
	type outcome struct {
		idx    []uint64
		deg    bool
		err    error
		hedged bool
	}
	results := make(chan outcome, len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(target string, hedged bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			start := time.Now()
			idx, deg, err := s.shardRequest(actx, target, q, i, n)
			if err == nil {
				s.fleetShardLatency.Observe(time.Since(start).Seconds())
			}
			results <- outcome{idx: idx, deg: deg, err: err, hedged: hedged}
		}()
	}
	launch(cands[0], false)
	launched := 1
	var hedgeC <-chan time.Time
	if len(cands) > 1 && !s.opts.DisableHedge {
		t := time.NewTimer(s.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for got := 0; got < launched; {
		select {
		case <-hedgeC:
			hedgeC = nil
			s.fleetHedges.Inc()
			launch(cands[launched], true)
			launched++
		case o := <-results:
			got++
			if o.err == nil {
				if o.hedged {
					s.fleetHedgeWins.Inc()
				}
				return o.idx, o.deg, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if launched < len(cands) {
				// The attempt failed outright before the hedge fired: fail
				// over to the next candidate immediately instead of waiting
				// out the hedge delay.
				hedgeC = nil
				s.fleetFailovers.Inc()
				launch(cands[launched], false)
				launched++
			}
		}
	}
	return nil, false, firstErr
}

// shardAnswer is what the coordinator reads of a shard answer; the
// points are left undecoded, as the merge evaluates the indices itself.
type shardAnswer struct {
	Shard      string   `json:"shard"`
	Returned   int      `json:"returned"`
	PrunedSize uint64   `json:"pruned_size"`
	Indices    []uint64 `json:"indices"`
	Degraded   bool     `json:"degraded"`
}

// shardRequest asks one replica for slice i/n of q's space, through
// that replica's breaker, and returns the serial indices the slice's
// frontier kept.
func (s *Server) shardRequest(ctx context.Context, target string, q *query, i, n int) (indices []uint64, degraded bool, err error) {
	sub := *q.gen
	sub.Shards = 0
	// Shard sub-requests are buffered exchanges regardless of how the
	// coordinator's own response is framed.
	sub.Delta = false
	sh := shard.Shard{Index: i, Count: n}
	sub.Shard = sh.String()
	// Pin the profile version q's table was compiled under: a replica on
	// another answers 409 and its slice fails, so every survivor was
	// chosen under the models the merge evaluates it with.
	sub.ProfileVersion = q.version
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, false, err
	}
	size := q.walker.gen.Size()
	err = s.fleet.call(ctx, target, http.MethodPost, "/v1/enumerate-generic", body, maxFleetBody, func(status int, _ http.Header, b []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("shard %s: %s answered %d", sub.Shard, target, status)
		}
		var a shardAnswer
		if err := json.Unmarshal(b, &a); err != nil {
			return fmt.Errorf("shard %s: %s: %v", sub.Shard, target, err)
		}
		// A replica that disagrees on the slice, answers a ragged count,
		// pruned (fleet queries are frontier-only) to another size or
		// returns an index outside the slice's range of this server's
		// space (one that partitions or prunes differently, such as an
		// older version) would corrupt the merge: fail the shard.
		if a.Shard != sub.Shard || a.Returned != len(a.Indices) || a.PrunedSize != size {
			return fmt.Errorf("shard %s: %s answered shard %q of %d points with %d points, %d indices; want %d points",
				sub.Shard, target, a.Shard, a.PrunedSize, a.Returned, len(a.Indices), size)
		}
		lo, hi := sh.Range(size)
		for _, idx := range a.Indices {
			if idx < lo || idx >= hi {
				return fmt.Errorf("shard %s: %s answered index %d outside the slice's range [%d, %d) of %d points",
					sub.Shard, target, idx, lo, hi, size)
			}
		}
		indices, degraded = a.Indices, a.Degraded
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return indices, degraded, nil
}

// --- consistent-hash routing -----------------------------------------

// routeKeyPredict derives the routing key for a canonicalized predict
// request under the configured RouteKey mode.
func (s *Server) routeKeyPredict(req PredictRequest) string {
	if s.opts.RouteKey == "cluster" {
		return req.Workload + "|" + strconv.FormatBool(req.NoSwitchEnergy)
	}
	return req.Workload
}

// batchWorkload peeks the single workload a batch addresses, when there
// is one: every item must name the same non-empty workload for the
// batch to be routable as a unit.
func batchWorkload(items []BatchItem) (string, bool) {
	wl := ""
	for _, it := range items {
		var peek struct {
			Workload string `json:"workload"`
		}
		if json.Unmarshal(it.Request, &peek) != nil || peek.Workload == "" {
			return "", false
		}
		if wl == "" {
			wl = peek.Workload
		} else if peek.Workload != wl {
			return "", false
		}
	}
	return wl, wl != ""
}

// routeForward forwards a request to the consistent-hash owner of key
// and relays the answer with the owner's X-Cache. A dead owner is
// skipped before a byte is sent: the walk continues along the ring to
// the first routable successor, the same deterministic order shard
// failover uses. It returns false — caller computes locally — when
// routing is off, the request was already routed once, no replica is
// routable, or the forward fails (counted as a fallback; the owner's
// breaker absorbs repeated failures).
func (s *Server) routeForward(w http.ResponseWriter, r *http.Request, endpoint, key string, req any) bool {
	if s.ring == nil || r.Header.Get(routedHeader) != "" {
		return false
	}
	var snap *fleethealth.ReplicaSet
	if s.health != nil {
		snap = s.health.Snapshot()
	}
	target := ""
	for _, t := range s.ring.Successors(key) {
		if snap == nil || snap.Routable(t) {
			target = t
			break
		}
	}
	if target == "" {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	err = s.fleet.call(r.Context(), target, http.MethodPost, endpoint, body, maxFleetBody, func(status int, owner http.Header, b []byte) error {
		if status >= 500 {
			return fmt.Errorf("%s answered %d", target, status)
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Routed-To", target)
		if c := owner.Get("X-Cache"); c != "" {
			h.Set("X-Cache", c)
		}
		w.WriteHeader(status)
		w.Write(b)
		return nil
	})
	if err != nil {
		s.routeFallbacks.Inc()
		return false
	}
	s.routedReqs.Inc()
	return true
}
