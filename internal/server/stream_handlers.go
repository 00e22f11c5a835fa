package server

// The streaming wire layer: NDJSON negotiation on the enumeration
// POSTs, the SSE GET variant, and incremental frontier deltas.
//
// A streamed enumeration never materializes its response: rows are
// encoded straight into internal/stream's pooled chunk buffer as the
// walk proves them, so peak memory is O(frontier) — the walk state plus
// one flush boundary — instead of O(space), and the first point reaches
// the client while the walk is still running. The serving contracts
// survive the framing change: errors before the first byte use the
// normal status mapping (400-never-500, breaker 503s), errors after it
// become a terminal {"error": ...} record, degraded fleet partials mark
// the trailer, and a client that disconnects cancels the walk instead
// of burning the rest of the enumeration.
//
// Deltas: a frontier-only stream with "delta": true is diffed against
// the result-cache-held predecessor for the same spec-minus-bounds key
// (node types and switch flags, profile-versioned — but not max_nodes,
// work or limit), so a re-query that only moved its bounds ships
// {"op":"add"|"del"} records instead of the whole frontier. A miss or a
// profile bump falls back to a full stream, announced by the head
// record's "mode".

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"heteromix/internal/cluster"
	"heteromix/internal/stream"
	"heteromix/internal/stream/delta"
)

// wantsStream reports whether the client negotiated a streamed
// response: ?stream=1 or an Accept header naming NDJSON.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(strings.ToLower(r.Header.Get("Accept")), "application/x-ndjson")
}

// streamHead opens every stream: the response envelope minus the rows.
type streamHead struct {
	Workload     string   `json:"workload"`
	Work         float64  `json:"work"`
	TypeNames    []string `json:"type_names,omitempty"`
	SpaceSize    uint64   `json:"space_size"`
	PrunedSize   uint64   `json:"pruned_size,omitempty"`
	FrontierOnly bool     `json:"frontier_only,omitempty"`
	Shard        string   `json:"shard,omitempty"`
	Shards       int      `json:"shards,omitempty"`
	// Mode is set on delta-requested streams: "delta" when a predecessor
	// frontier was found and ops follow, "full" when the stream fell back
	// to whole rows (first query, or a profile bump retired the
	// predecessor).
	Mode string `json:"mode,omitempty"`
}

// streamTrailer closes every completed stream with the counts the
// buffered envelope would have carried.
type streamTrailer struct {
	Returned     int      `json:"returned"`
	Truncated    bool     `json:"truncated,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`
	FailedShards []int    `json:"failed_shards,omitempty"`
	Indices      []uint64 `json:"indices,omitempty"`
	Adds         int      `json:"adds,omitempty"`
	Dels         int      `json:"dels,omitempty"`
}

// shardProgress is the fleet coordinator's per-shard completion record,
// emitted as each sub-frontier lands so a live consumer can watch the
// gather advance.
type shardProgress struct {
	Shard  int  `json:"shard"`
	Points int  `json:"points"`
	Failed bool `json:"failed,omitempty"`
}

// liveStream is one in-flight streamed response: the record writer,
// the optional pooled gzip stage between it and the connection (whose
// frame the push drains at every chunk boundary, so compression never
// re-buffers the stream), and the flush chain that drives chunks all
// the way to the client.
type liveStream struct {
	req *http.Request
	gz  *gzip.Writer
	sw  *stream.Writer
}

// startStream commits the response to streaming: headers, status, the
// gzip stage when negotiated, and the record writer with the server's
// flush policy. After this point errors can only be reported in-band.
func (s *Server) startStream(w http.ResponseWriter, r *http.Request, format stream.Format) *liveStream {
	h := w.Header()
	if format == stream.SSE {
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Add("Vary", "Accept-Encoding")
	ls := &liveStream{req: r}
	var dst io.Writer = w
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		ls.gz = gzipGet(w)
		dst = ls.gz
	}
	fl, _ := w.(http.Flusher)
	push := func() error {
		if ls.gz != nil {
			if err := ls.gz.Flush(); err != nil {
				return err
			}
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
	ls.sw = stream.NewWriter(dst, push, format, stream.Policy{
		FlushBytes:    s.opts.StreamFlushBytes,
		FlushInterval: s.opts.StreamFlushInterval,
	})
	w.WriteHeader(http.StatusOK)
	return ls
}

// head emits the opening record and flushes it immediately — the head
// is the stream's time-to-first-byte, never held for a full chunk.
func (ls *liveStream) head(h streamHead) error {
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := ls.sw.Record(stream.EventHead, func(buf []byte) []byte { return append(buf, b...) }); err != nil {
		return err
	}
	return ls.sw.Flush()
}

// trailer emits the closing record.
func (ls *liveStream) trailer(tr streamTrailer) error {
	b, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return ls.sw.Record(stream.EventTrailer, func(buf []byte) []byte { return append(buf, b...) })
}

// shed reports whether the client has gone away: the connection write
// failed, or the request context was cancelled (as opposed to timing
// out). A shed stream ends silently — abandonment is not a server
// failure and must not feed the breaker.
func (ls *liveStream) shed() bool {
	return ls.sw.Err() != nil || errors.Is(ls.req.Context().Err(), context.Canceled)
}

// close flushes the remainder, tears down the gzip stage and settles
// the stream metrics.
func (ls *liveStream) close(s *Server) {
	ls.sw.Close()
	if ls.gz != nil {
		// Close writes the gzip footer; a dead connection just errors into
		// the void. The writer always goes back to the pool.
		ls.gz.Close()
		gzipPut(ls.gz)
	}
	st := ls.sw.Stats()
	s.streamRows.Add(st.Rows)
	s.streamFlushes.Add(st.Flushes)
	if ls.shed() {
		s.streamDisconnects.Inc()
	}
}

// finishStream settles a streamed handler: an error before the stream
// started takes the normal status mapping; after it, a terminal
// {"error": ...} record — unless the client is simply gone.
func (s *Server) finishStream(w http.ResponseWriter, r *http.Request, ls *liveStream, err error) {
	if ls == nil {
		if err != nil {
			replyError(w, r, err)
		}
		return
	}
	if err != nil && ls.sw.Err() == nil {
		msg := err.Error()
		var br badRequest
		if errors.As(err, &br) {
			msg = br.msg
		}
		ls.sw.Record(stream.EventError, func(b []byte) []byte { return stream.AppendString(b, msg) })
	}
	ls.close(s)
}

// streamEnumerate serves a negotiated NDJSON /v1/enumerate. The stream
// starts lazily inside the breaker: an open breaker or a table failure
// still answers a clean status, having written nothing.
func (s *Server) streamEnumerate(w http.ResponseWriter, r *http.Request, req EnumerateRequest) {
	ctx := r.Context()
	var ls *liveStream
	berr := s.breaker.Do(func() error {
		tbl, err := s.tableFor(req.Workload, req.NoSwitchEnergy)
		if err != nil {
			return err
		}
		ls = s.startStream(w, r, stream.NDJSON)
		if err := ls.head(streamHead{
			Workload:     req.Workload,
			Work:         req.Work,
			SpaceSize:    uint64(tbl.Size(req.MaxARM, req.MaxAMD)),
			FrontierOnly: req.FrontierOnly,
		}); err != nil {
			return nil
		}
		var tr streamTrailer
		if req.FrontierOnly {
			pts, _, err := tbl.Frontier(req.MaxARM, req.MaxAMD, req.Work)
			if err != nil {
				return err
			}
			for i := range pts {
				sum := pts[i].Summary()
				if ls.sw.Record(stream.EventPoint, func(b []byte) []byte {
					return stream.AppendPointSummary(b, &sum)
				}) != nil {
					return nil
				}
			}
			tr.Returned = len(pts)
		} else {
			walkErr := tbl.ForEach(req.MaxARM, req.MaxAMD, req.Work, func(p cluster.Point) bool {
				if tr.Returned >= req.Limit {
					tr.Truncated = true
					return false
				}
				sum := p.Summary()
				if ls.sw.Record(stream.EventPoint, func(b []byte) []byte {
					return stream.AppendPointSummary(b, &sum)
				}) != nil {
					// A failed write is a gone client: shed the rest of the walk.
					return false
				}
				tr.Returned++
				return tr.Returned&0xff != 0 || ctx.Err() == nil
			})
			if walkErr != nil {
				return walkErr
			}
			if ls.shed() {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		if ls.shed() {
			return nil
		}
		return ls.trailer(tr)
	})
	s.finishStream(w, r, ls, berr)
}

// deltaKey is the predecessor-frontier cache key: the profile-tagged
// workload plus the type list WITHOUT its bounds — node names and
// switch flags only, never max_nodes, work or limit — so a re-query
// that only moved its bounds lands on its predecessor. The
// "|workload@vN|" infix is the shape every versioned key carries, so
// the profile-bump sweep retires delta predecessors with everything
// else.
func (s *Server) deltaKey(req EnumerateGenericRequest) string {
	var b strings.Builder
	b.WriteString("deltaprev|")
	b.WriteString(s.profileTag(req.Workload))
	b.WriteString("|")
	for _, tr := range req.Types {
		b.WriteString("|")
		b.WriteString(tr.Node)
		if tr.NeedsSwitch {
			b.WriteString(":switch")
		}
	}
	return b.String()
}

// lookupDelta resolves a delta-requested stream's mode before the first
// byte: the predecessor rows on a hit, nil (full mode) on a miss.
func (s *Server) lookupDelta(req EnumerateGenericRequest) (key string, prev [][]byte, mode string) {
	key = s.deltaKey(req)
	if v, ok := s.cache.Get(key); ok {
		s.deltaHits.Inc()
		return key, delta.Split(v), "delta"
	}
	s.deltaMisses.Inc()
	return key, nil, "full"
}

// emitRows streams pre-encoded rows as point records.
func (ls *liveStream) emitRows(rows [][]byte) error {
	for _, row := range rows {
		row := row
		if err := ls.sw.Record(stream.EventPoint, func(b []byte) []byte { return append(b, row...) }); err != nil {
			return err
		}
	}
	return nil
}

// emitDelta streams the diff between the predecessor and the new
// frontier as add/del records, settling the trailer's op counts.
func (s *Server) emitDelta(ls *liveStream, prev, next [][]byte, tr *streamTrailer) error {
	ops := delta.Diff(prev, next)
	for _, op := range ops {
		ev := stream.EventDel
		if op.Add {
			tr.Adds++
		} else {
			tr.Dels++
		}
		if op.Add {
			ev = stream.EventAdd
		}
		row := op.Row
		if err := ls.sw.Record(ev, func(b []byte) []byte { return append(b, row...) }); err != nil {
			return err
		}
	}
	s.deltaAdds.Add(uint64(tr.Adds))
	s.deltaDels.Add(uint64(tr.Dels))
	return nil
}

// encodeGenericRows materializes each point's encoded row — only for
// the delta paths, which need the row set as data to diff and store;
// plain streams encode straight into the chunk buffer instead.
func encodeGenericRows(pts []cluster.GenericPoint, names []string) [][]byte {
	rows := make([][]byte, len(pts))
	for i := range pts {
		sum := pts[i].Summary(names)
		rows[i] = stream.AppendGenericPointSummary(nil, &sum)
	}
	return rows
}

// streamGeneric serves a negotiated streamed /v1/enumerate-generic
// (NDJSON on the POST, SSE on the GET variant): shard slices,
// frontier-only (where deltas apply), and the limited full walk.
func (s *Server) streamGeneric(w http.ResponseWriter, r *http.Request, req EnumerateGenericRequest, plan genericPlan, format stream.Format) {
	ctx := r.Context()
	var ls *liveStream
	berr := s.breaker.Do(func() error {
		head := streamHead{
			Workload:     req.Workload,
			Work:         req.Work,
			TypeNames:    plan.names,
			SpaceSize:    plan.spaceSize,
			PrunedSize:   plan.prunedSize,
			FrontierOnly: req.FrontierOnly,
			Shard:        req.Shard,
		}
		var prev [][]byte
		deltaKey := ""
		if req.Delta {
			deltaKey, prev, head.Mode = s.lookupDelta(req)
		}
		ls = s.startStream(w, r, format)
		if err := ls.head(head); err != nil {
			return nil
		}
		var tr streamTrailer
		switch {
		case plan.shard.Count > 0:
			sf, walked, err := s.shardFrontier(ctx, plan, req)
			if err != nil {
				if ls.shed() {
					return nil
				}
				return err
			}
			s.genericPoints.Add(walked)
			for i := range sf.Points {
				sum := sf.Points[i].Summary(plan.names)
				if ls.sw.Record(stream.EventPoint, func(b []byte) []byte {
					return stream.AppendGenericPointSummary(b, &sum)
				}) != nil {
					return nil
				}
			}
			tr.Returned = len(sf.Points)
			tr.Indices = sf.Indices
		case req.FrontierOnly:
			pts, _, err := plan.walk.FrontierParallel(req.Work, 0)
			if err != nil {
				return err
			}
			s.genericPoints.Add(plan.enumeratedSize())
			if req.Delta {
				rows := encodeGenericRows(pts, plan.names)
				tr.Returned = len(rows)
				var emitErr error
				if prev != nil {
					emitErr = s.emitDelta(ls, prev, rows, &tr)
				} else {
					emitErr = ls.emitRows(rows)
				}
				// The new frontier becomes the predecessor even if the client
				// vanished mid-emit: it reflects a completed walk.
				s.cache.Add(deltaKey, delta.Join(rows))
				if emitErr != nil {
					return nil
				}
			} else {
				for i := range pts {
					sum := pts[i].Summary(plan.names)
					if ls.sw.Record(stream.EventPoint, func(b []byte) []byte {
						return stream.AppendGenericPointSummary(b, &sum)
					}) != nil {
						return nil
					}
				}
				tr.Returned = len(pts)
			}
		default:
			n := 0
			walkErr := plan.walk.ForEach(req.Work, func(p cluster.GenericPoint) bool {
				n++
				if tr.Returned >= req.Limit {
					tr.Truncated = true
					return false
				}
				sum := p.Summary(plan.names)
				if ls.sw.Record(stream.EventPoint, func(b []byte) []byte {
					return stream.AppendGenericPointSummary(b, &sum)
				}) != nil {
					return false
				}
				tr.Returned++
				return n&0xff != 0 || ctx.Err() == nil
			})
			if walkErr != nil {
				return walkErr
			}
			if ls.shed() {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			s.genericPoints.Add(uint64(n))
		}
		if plan.prunedSize > 0 {
			s.genericPruned.Add(plan.spaceSize - plan.prunedSize)
		}
		if ls.shed() {
			return nil
		}
		return ls.trailer(tr)
	})
	s.finishStream(w, r, ls, berr)
}

// streamFleetGeneric is the coordinator's streamed scatter-gather: the
// head ships before the fan-out, per-shard progress records land as
// each sub-frontier completes, and the merged rows follow the gather.
// (Rows cannot ship before the last shard answers — any shard may
// dominate any point — so the early bytes are the head and progress
// records, which is what keeps a dashboard live through a multi-second
// fan-out.) Degraded partial merges mark the trailer, are diffed but
// never stored as delta predecessors, and — like the buffered path —
// are never cached.
func (s *Server) streamFleetGeneric(w http.ResponseWriter, r *http.Request, req EnumerateGenericRequest, plan genericPlan, format stream.Format) {
	head := streamHead{
		Workload:     req.Workload,
		Work:         req.Work,
		TypeNames:    plan.names,
		SpaceSize:    plan.spaceSize,
		PrunedSize:   plan.prunedSize,
		FrontierOnly: req.FrontierOnly,
		Shards:       req.Shards,
	}
	var prev [][]byte
	deltaKey := ""
	if req.Delta {
		deltaKey, prev, head.Mode = s.lookupDelta(req)
	}
	ls := s.startStream(w, r, format)
	if err := ls.head(head); err != nil {
		ls.close(s)
		return
	}
	// Progress records come from shard goroutines; the mutex serializes
	// them against each other (the gather below only resumes after every
	// callback has returned).
	var mu sync.Mutex
	onShard := func(i, points int, shardErr error) {
		mu.Lock()
		defer mu.Unlock()
		if ls.sw.Err() != nil {
			return
		}
		b, err := json.Marshal(shardProgress{Shard: i, Points: points, Failed: shardErr != nil})
		if err != nil {
			return
		}
		ls.sw.Record(stream.EventProgress, func(buf []byte) []byte { return append(buf, b...) })
		ls.sw.Flush()
	}
	merged, failedShards, partDeg, err := s.fanOutGeneric(r, req, onShard)
	if err != nil {
		s.finishStream(w, r, ls, err)
		return
	}
	tr := streamTrailer{
		Returned:     len(merged.Points),
		FailedShards: failedShards,
		Degraded:     len(failedShards) > 0 || partDeg,
	}
	if tr.Degraded {
		s.degraded.Inc()
	}
	if plan.prunedSize > 0 {
		s.genericPruned.Add(plan.spaceSize - plan.prunedSize)
	}
	rows := make([][]byte, len(merged.Points))
	for i := range merged.Points {
		rows[i] = stream.AppendGenericPointSummary(nil, &merged.Points[i])
	}
	var emitErr error
	if req.Delta && prev != nil {
		emitErr = s.emitDelta(ls, prev, rows, &tr)
	} else {
		emitErr = ls.emitRows(rows)
	}
	if req.Delta && !tr.Degraded {
		// Only a complete merge may become the predecessor; a partial one
		// would turn its missing slices into phantom deletions next time.
		s.cache.Add(deltaKey, delta.Join(rows))
	}
	if emitErr != nil || ls.shed() {
		ls.close(s)
		return
	}
	ls.trailer(tr)
	ls.close(s)
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
	norm, plan, err := s.normalizeEnumerateGeneric(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	if norm.Shards > 0 {
		s.streamFleetGeneric(w, r, norm, plan, stream.SSE)
		return
	}
	s.streamGeneric(w, r, norm, plan, stream.SSE)
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
