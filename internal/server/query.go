package server

// The enumeration pipeline behind /v1/enumerate, /v1/enumerate-generic
// and its SSE variant: parse → canonical query → plan → executor →
// sink. Each endpoint only parses; everything after the query is shared,
// so a plan's walk, the breaker and the delta store each live at one
// call site. Every answer is computed from its table; none enters the
// result cache.

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"heteromix/internal/cluster"
	"heteromix/internal/shard"
	"heteromix/internal/stream"
)

// planKind is the one way a query is answered.
type planKind int

const (
	// planLimited walks the space in serial order up to the query's limit.
	planLimited planKind = iota
	// planFrontier answers the whole space's online frontier from its
	// table's candidate set.
	planFrontier
	// planShard answers one contiguous slice of serial indices (Shard or
	// DefaultShard) — from the slice's candidate set, or a walk of the
	// slice — as the partial frontier, with indices, that a coordinator
	// merges.
	planShard
	// planFleet fans shard requests out and merges their survivors here.
	planFleet
)

// choosePlan is the planner: fan-out beats a slice beats a frontier,
// and anything else is a limited walk.
func choosePlan(shards int, sh shard.Shard, frontierOnly bool) planKind {
	switch {
	case shards > 0:
		return planFleet
	case sh.Count > 0:
		return planShard
	case frontierOnly:
		return planFrontier
	}
	return planLimited
}

// query is one canonicalized enumeration request, whichever endpoint
// and framing it arrived through.
type query struct {
	// version is the profile version a generic query was compiled
	// under: the delta key's tag and the version fleet sub-requests pin.
	version uint64
	work    float64
	limit   int
	delta   bool
	plan    planKind
	shard   shard.Shard
	// head carries the response's head fields; a two-type query learns
	// its SpaceSize when the executor resolves the table.
	head streamHead
	// pruned is how many points domination pruning removed from the
	// walked space (0 when unpruned).
	pruned uint64
	walker walker
	// gen is the canonical generic request: the fan-out's sub-request
	// template and the delta key's source. nil for /v1/enumerate.
	gen *EnumerateGenericRequest
}

// enumerateQuery parses a /v1/enumerate request.
func (s *Server) enumerateQuery(req EnumerateRequest) (*query, error) {
	req, err := s.normalizeEnumerate(req)
	if err != nil {
		return nil, err
	}
	return &query{
		work:  req.Work,
		limit: req.Limit,
		plan:  choosePlan(0, shard.Shard{}, req.FrontierOnly),
		head:  streamHead{Workload: req.Workload, Work: req.Work, FrontierOnly: req.FrontierOnly},
		walker: walker{
			workload: req.Workload, noSwitch: req.NoSwitchEnergy,
			maxARM: req.MaxARM, maxAMD: req.MaxAMD,
		},
	}, nil
}

// wantsStream reports whether the client negotiated a streamed
// response: ?stream=1 or an Accept header naming NDJSON.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(strings.ToLower(r.Header.Get("Accept")), "application/x-ndjson")
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[EnumerateRequest](s, w, r)
	if !ok {
		return
	}
	q, err := s.enumerateQuery(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	s.serve(w, r, q, wantsStream(r), stream.NDJSON)
}

func (s *Server) handleEnumerateGeneric(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[EnumerateGenericRequest](s, w, r)
	if !ok {
		return
	}
	q, err := s.genericQuery(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	s.serve(w, r, q, wantsStream(r), stream.NDJSON)
}

// handleEnumerateGenericSSE is GET /v1/enumerate-generic/stream: the
// same space, negotiated by query parameters instead of a JSON body,
// framed as Server-Sent Events for EventSource consumers.
func (s *Server) handleEnumerateGenericSSE(w http.ResponseWriter, r *http.Request) {
	req, err := parseStreamQuery(r.URL.Query())
	if err != nil {
		replyError(w, r, err)
		return
	}
	q, err := s.genericQuery(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	s.serve(w, r, q, true, stream.SSE)
}

// serve answers q through the sink its framing selects: a streamed
// response (wrapped for deltas when asked) or one JSON body.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, q *query, streamed bool, format stream.Format) {
	if streamed {
		ss := &streamSink{s: s, w: w, r: r, format: format}
		var sk sink = ss
		if q.delta {
			sk = &deltaSink{streamSink: ss, key: deltaKey(q)}
		}
		s.finishStream(w, r, ss, s.execute(r.Context(), q, sk))
		return
	}
	if q.delta {
		replyError(w, r, badRequestf(
			"delta requires a streamed response (Accept: application/x-ndjson or ?stream=1)"))
		return
	}
	s.serveBuffered(w, r, q)
}

// execute is the executor: it runs q's plan into sk, the fleet fan-out
// directly (each replica has its own breaker) and every local plan
// under the enumerate breaker. An error after a streamed client has
// gone is dropped — abandonment is not a server failure and must not
// feed the breaker — and one the caller's propagated deadline caused is
// marked neutral for it.
func (s *Server) execute(ctx context.Context, q *query, sk sink) error {
	run := func() error {
		err := s.runPlan(ctx, q, sk)
		switch {
		case err == nil || sk.shed():
			return nil
		case ctx.Err() != nil && errors.Is(context.Cause(ctx), errClientDeadline):
			return callerDeadline{err}
		}
		return err
	}
	if q.plan == planFleet {
		return run()
	}
	return s.breaker.Do(run)
}

// runPlan emits head → rows → trailer for q's plan.
func (s *Server) runPlan(ctx context.Context, q *query, sk sink) error {
	var tr streamTrailer
	var walked uint64
	var err error
	wk := &q.walker
	if q.plan == planFleet {
		if err := sk.begin(&q.head); err != nil {
			return err
		}
		survivors, failed, partial, err := s.fanOutGeneric(ctx, q, sk.progress)
		if err != nil {
			return err
		}
		tr.FailedShards = failed
		tr.Degraded = len(failed) > 0 || partial
		// Replicas are trusted only for which points survived.
		pts, _, err := wk.gen.FrontierOfIndices(q.work, survivors)
		if err != nil {
			return err
		}
		tr.Returned = len(pts)
		if err := wk.emitGeneric(pts, sk.row); err != nil {
			return err
		}
	} else {
		if wk.gen == nil {
			// The two-type table resolves here, under the breaker, so a
			// table failure still answers a clean status.
			if wk.two, err = s.tableFor(wk.workload, wk.noSwitch); err != nil {
				return err
			}
			q.head.SpaceSize = uint64(wk.two.Size(wk.maxARM, wk.maxAMD))
		}
		if err := sk.begin(&q.head); err != nil {
			return err
		}
		emit := func(row []byte) error {
			tr.Returned++
			return sk.row(row)
		}
		switch q.plan {
		case planShard:
			walked, tr.Indices, err = wk.shardFrontier(ctx, q.work, q.shard, emit)
		case planFrontier:
			walked, err = wk.frontier(ctx, q.work, emit)
		default:
			walked, tr.Truncated, err = wk.limited(ctx, q.work, q.limit, emit)
		}
		if err != nil {
			return err
		}
		if wk.gen != nil {
			s.genericPoints.Add(walked)
		}
	}
	if q.pruned > 0 {
		s.genericPruned.Add(q.pruned)
	}
	return sk.end(&tr)
}

// rowCap sizes the scratch buffer rows are encoded into: room for a
// three-type row, so encoding never regrows it.
const rowCap = 512

// pollMask sets how often walks poll the request context: every 256
// points, rare enough to be free and frequent enough that an expired
// deadline stops the walk within a fraction of a millisecond.
const pollMask = 0xff

// walker is a query's space — the two-type Table view bounded by
// maxARM/maxAMD, or a GenericTable — and with it the row encoder its
// points need. Every walk polls ctx and yields encoded rows into a
// scratch buffer valid only during the call.
type walker struct {
	// Two-type spaces: the table is looked up by (workload, noSwitch)
	// when the plan runs.
	workload       string
	noSwitch       bool
	maxARM, maxAMD int
	two            *cluster.Table
	// Generic spaces: the table to walk (the pruned one under prune) and
	// the type names its rows carry.
	gen   *cluster.GenericTable
	names []string
}

// limited emits the first limit points in serial order. walked counts
// the points visited, truncated marks a limit cut.
func (wk *walker) limited(ctx context.Context, work float64, limit int, emit func([]byte) error) (walked uint64, truncated bool, err error) {
	returned := 0
	var emitErr error
	yield := func(row []byte) bool {
		walked++
		if walked&pollMask == 0 && ctx.Err() != nil {
			return false
		}
		if returned >= limit {
			truncated = true
			return false
		}
		if emitErr = emit(row); emitErr != nil {
			return false
		}
		returned++
		return true
	}
	row := make([]byte, 0, rowCap)
	if wk.gen != nil {
		err = wk.gen.ForEach(work, func(p cluster.GenericPoint) bool {
			row = stream.AppendGenericPoint(row[:0], &p, wk.names)
			return yield(row)
		})
	} else {
		err = wk.two.ForEach(wk.maxARM, wk.maxAMD, work, func(p cluster.Point) bool {
			row = stream.AppendPoint(row[:0], &p)
			return yield(row)
		})
	}
	if err == nil {
		err = emitErr
	}
	if err == nil {
		err = ctx.Err()
	}
	return walked, truncated, err
}

// frontier emits the space's frontier; walked counts the points
// evaluated. Both kinds answer from the table's candidate set — the
// generic table's one set, or the two-type table's set for these
// bounds — with a full walk only to build it, and are bit for bit the
// serial walk's (GenericTable.Frontier, Table.Frontier).
func (wk *walker) frontier(ctx context.Context, work float64, emit func([]byte) error) (walked uint64, err error) {
	if wk.gen != nil {
		pts, _, walked, err := wk.gen.FrontierCounted(ctx, work, 0)
		if err != nil {
			return 0, err
		}
		return walked, wk.emitGeneric(pts, emit)
	}
	pts, _, walked, err := wk.two.FrontierCounted(ctx, wk.maxARM, wk.maxAMD, work)
	if err != nil {
		return 0, err
	}
	row := make([]byte, 0, rowCap)
	for i := range pts {
		row = stream.AppendPoint(row[:0], &pts[i])
		if err := emit(row); err != nil {
			return 0, err
		}
	}
	return walked, nil
}

// shardFrontier emits the frontier of this server's slice of the
// generic space; indices carries each point's serial index, the
// coordinator's merge key.
func (wk *walker) shardFrontier(ctx context.Context, work float64, sh shard.Shard, emit func([]byte) error) (walked uint64, indices []uint64, err error) {
	part, walked, err := wk.gen.FrontierShardCounted(ctx, work, sh)
	if err != nil {
		return 0, nil, err
	}
	return walked, part.Indices, wk.emitGeneric(part.Points, emit)
}

// emitGeneric encodes and emits generic frontier points.
func (wk *walker) emitGeneric(pts []cluster.GenericPoint, emit func([]byte) error) error {
	row := make([]byte, 0, rowCap)
	for i := range pts {
		row = stream.AppendGenericPoint(row[:0], &pts[i], wk.names)
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// parseStreamQuery maps the SSE endpoint's query parameters onto an
// EnumerateGenericRequest. types is a comma-separated list of
// "node:max_nodes" or "node:max_nodes:switch" entries; booleans accept
// strconv.ParseBool forms. Every failure is a 400.
func parseStreamQuery(q url.Values) (EnumerateGenericRequest, error) {
	var req EnumerateGenericRequest
	req.Workload = q.Get("workload")
	if t := q.Get("types"); t != "" {
		for i, entry := range strings.Split(t, ",") {
			parts := strings.Split(entry, ":")
			if len(parts) < 2 || len(parts) > 3 {
				return req, badRequestf("types[%d]: want node:max_nodes[:switch], got %q", i, entry)
			}
			var tr GenericTypeRequest
			tr.Node = parts[0]
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return req, badRequestf("types[%d]: bad max_nodes %q", i, parts[1])
			}
			tr.MaxNodes = n
			if len(parts) == 3 {
				if parts[2] != "switch" {
					return req, badRequestf("types[%d]: trailing field must be \"switch\", got %q", i, parts[2])
				}
				tr.NeedsSwitch = true
			}
			req.Types = append(req.Types, tr)
		}
	}
	var err error
	if v := q.Get("work"); v != "" {
		if req.Work, err = strconv.ParseFloat(v, 64); err != nil {
			return req, badRequestf("bad work %q", v)
		}
	}
	boolParam := func(name string, into *bool) error {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return badRequestf("bad %s %q", name, v)
			}
			*into = b
		}
		return nil
	}
	if err := boolParam("frontier_only", &req.FrontierOnly); err != nil {
		return req, err
	}
	if err := boolParam("prune", &req.Prune); err != nil {
		return req, err
	}
	if err := boolParam("delta", &req.Delta); err != nil {
		return req, err
	}
	if v := q.Get("limit"); v != "" {
		if req.Limit, err = strconv.Atoi(v); err != nil {
			return req, badRequestf("bad limit %q", v)
		}
	}
	if v := q.Get("shards"); v != "" {
		if req.Shards, err = strconv.Atoi(v); err != nil {
			return req, badRequestf("bad shards %q", v)
		}
	}
	req.Shard = q.Get("shard")
	if v := q.Get("profile_version"); v != "" {
		if req.ProfileVersion, err = strconv.ParseUint(v, 10, 64); err != nil {
			return req, badRequestf("bad profile_version %q", v)
		}
	}
	return req, nil
}
