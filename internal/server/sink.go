package server

// The pipeline's sinks: where an executed plan's head → rows → trailer
// go. A buffered sink assembles one JSON body; a stream sink writes
// NDJSON or SSE records as the walk proves them; a delta sink wraps a
// stream sink to ship only what changed.
//
// A streamed enumeration never materializes its response: rows go
// straight into internal/stream's pooled chunk buffer, so peak memory is
// O(frontier) — the walk state plus one flush boundary — instead of
// O(space), and the first point reaches the client while the walk is
// still running. The serving contracts survive the framing change:
// errors before the first byte use the normal status mapping
// (400-never-500, breaker 503s), errors after it become a terminal
// {"error": ...} record, degraded fleet partials mark the trailer, and a
// client that disconnects cancels the walk instead of burning the rest
// of the enumeration.
//
// Buffered bodies are byte-identical to encoding/json on the public
// response types (pinned by property tests against json.Marshal), and
// their rows come from the same single-pass encoder the streams ship,
// which is what makes streamed and buffered output byte-comparable row
// for row.

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"heteromix/internal/stream"
	"heteromix/internal/stream/delta"
)

// sink receives one executed plan: begin once with the complete head,
// row per encoded point (the bytes are only valid during the call), end
// once with the trailer. progress carries a fleet fan-out's per-shard
// completions and may be called from several goroutines; a coordinator
// that answers from its own candidate set fans out nothing, so that
// stream carries no progress records at all. shed reports a streamed
// client that has gone away.
type sink interface {
	begin(h *streamHead) error
	row(r []byte) error
	progress(p shardProgress)
	end(tr *streamTrailer) error
	shed() bool
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
	// Mode is set on delta-requested streams: "delta" when ops against
	// the since base follow, "full" when whole rows do (no since, or a
	// base of another workload, type list, profile version or model
	// digest, or a fleet base fanned out only in part; a base the
	// coordinator has folded is answered locally and is never partial).
	Mode string `json:"mode,omitempty"`
}

// streamTrailer closes every completed stream with the counts the
// buffered envelope would have carried.
type streamTrailer struct {
	Returned     int      `json:"returned"`
	Truncated    bool     `json:"truncated,omitempty"`
	Degraded     bool     `json:"degraded,omitempty"`
	Candidates   bool     `json:"candidates,omitempty"`
	FailedShards []int    `json:"failed_shards,omitempty"`
	Indices      []uint64 `json:"indices,omitempty"`
	Adds         int      `json:"adds,omitempty"`
	Dels         int      `json:"dels,omitempty"`
	// Base is a complete delta stream's since token for its frontier.
	Base string `json:"base,omitempty"`
}

// shardProgress is the fleet coordinator's per-shard completion record,
// emitted as each sub-frontier lands so a live consumer can watch the
// gather advance. Only a fan-out emits them: a warm coordinator's answer
// (runPlan) has none.
type shardProgress struct {
	Shard  int  `json:"shard"`
	Points int  `json:"points"`
	Failed bool `json:"failed,omitempty"`
}

// --- buffered ----------------------------------------------------------

// serveBuffered answers q as one JSON body, computed from its table
// every time: no enumeration answer enters the result cache. A degraded
// fleet partial is served as it is, its envelope already marked.
func (s *Server) serveBuffered(w http.ResponseWriter, r *http.Request, q *query) {
	bs := &bufferedSink{ctx: r.Context(), generic: q.gen != nil, nullEmpty: q.plan == planFleet}
	defer bs.release()
	err := s.execute(r.Context(), q, bs)
	if q.plan == planFleet {
		w.Header().Set("X-Fleet-Shards", strconv.Itoa(q.head.Shards))
	}
	if err != nil {
		replyError(w, r, err)
		return
	}
	if bs.degraded {
		s.degraded.Inc()
		w.Header().Set("X-Degraded", "true")
	}
	s.writeBody(w, r, bs.body)
}

// wireBufPool recycles the buffered sink's row buffers; enumeration
// bodies routinely reach tens of KB, so the buffers grow once and are
// reused.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// encodeCheckEvery is how many rows the buffered sink takes between
// context polls: a deadline that expires while a large body assembles
// aborts the encode, not just the walk.
const encodeCheckEvery = 0x1ff

// bufferedSink assembles the buffered envelope: the bytes json.Marshal
// gives EnumerateResponse or (generic) EnumerateGenericResponse.
type bufferedSink struct {
	ctx     context.Context
	generic bool
	// nullEmpty encodes a rowless body as "points":null, the nil slice an
	// empty fleet merge carries; local walks always encode [].
	nullEmpty bool
	head      streamHead
	rows      *[]byte // comma-joined encoded rows, pooled
	n         int
	body      []byte
	degraded  bool
}

func (b *bufferedSink) begin(h *streamHead) error {
	b.head = *h
	return nil
}

func (b *bufferedSink) row(r []byte) error {
	if b.n&encodeCheckEvery == encodeCheckEvery && b.ctx.Err() != nil {
		return b.ctx.Err()
	}
	if b.rows == nil {
		b.rows = wireBufPool.Get().(*[]byte)
		*b.rows = (*b.rows)[:0]
	} else {
		*b.rows = append(*b.rows, ',')
	}
	*b.rows = append(*b.rows, r...)
	b.n++
	return nil
}

func (b *bufferedSink) progress(shardProgress) {}

func (b *bufferedSink) shed() bool { return false }

func (b *bufferedSink) end(tr *streamTrailer) error {
	// e holds the envelope minus the rows, which splice in at mid.
	var buf [512]byte
	e := buf[:0]
	h := &b.head
	e = append(e, `{"workload":`...)
	e = stream.AppendString(e, h.Workload)
	e = append(e, `,"work":`...)
	e = stream.AppendFloat(e, h.Work)
	if b.generic {
		e = append(e, `,"type_names":`...)
		if h.TypeNames == nil {
			e = append(e, "null"...)
		} else {
			e = append(e, '[')
			for i, n := range h.TypeNames {
				if i > 0 {
					e = append(e, ',')
				}
				e = stream.AppendString(e, n)
			}
			e = append(e, ']')
		}
	}
	e = append(e, `,"space_size":`...)
	e = strconv.AppendUint(e, h.SpaceSize, 10)
	if h.PrunedSize != 0 {
		e = append(e, `,"pruned_size":`...)
		e = strconv.AppendUint(e, h.PrunedSize, 10)
	}
	e = append(e, `,"returned":`...)
	e = strconv.AppendInt(e, int64(tr.Returned), 10)
	if tr.Truncated {
		e = append(e, `,"truncated":true`...)
	}
	if h.FrontierOnly {
		e = append(e, `,"frontier_only":true`...)
	}
	e = append(e, `,"points":`...)
	mid := len(e)
	if h.Shard != "" {
		e = append(e, `,"shard":`...)
		e = stream.AppendString(e, h.Shard)
	}
	if len(tr.Indices) != 0 {
		e = append(e, `,"indices":[`...)
		for i, idx := range tr.Indices {
			if i > 0 {
				e = append(e, ',')
			}
			e = strconv.AppendUint(e, idx, 10)
		}
		e = append(e, ']')
	}
	if tr.Candidates {
		e = append(e, `,"candidates":true`...)
	}
	if len(tr.FailedShards) != 0 {
		e = append(e, `,"failed_shards":[`...)
		for i, fs := range tr.FailedShards {
			if i > 0 {
				e = append(e, ',')
			}
			e = strconv.AppendInt(e, int64(fs), 10)
		}
		e = append(e, ']')
	}
	if tr.Degraded {
		e = append(e, `,"degraded":true`...)
	}
	e = append(e, '}')
	n := len(e) + len("null")
	if b.rows != nil {
		n += len(*b.rows)
	}
	body := append(make([]byte, 0, n), e[:mid]...)
	switch {
	case b.rows != nil:
		body = append(append(append(body, '['), *b.rows...), ']')
	case b.nullEmpty:
		body = append(body, "null"...)
	default:
		body = append(body, "[]"...)
	}
	b.body = append(body, e[mid:]...)
	b.degraded = tr.Degraded
	return nil
}

// release returns the row buffer to the pool.
func (b *bufferedSink) release() {
	if b.rows != nil {
		wireBufPool.Put(b.rows)
		b.rows = nil
	}
}

// --- streamed ------------------------------------------------------------

// streamSink is one streamed response: the record writer, the optional
// pooled gzip stage between it and the connection (whose frame the push
// drains at every chunk boundary, so compression never re-buffers the
// stream), and the flush chain that drives chunks all the way to the
// client. Nothing is written until begin, so a failure before the head
// still answers a clean status.
type streamSink struct {
	s      *Server
	w      http.ResponseWriter
	r      *http.Request
	format stream.Format
	gz     *gzip.Writer
	sw     *stream.Writer
	// mu serializes progress records from the fan-out's shard goroutines.
	mu sync.Mutex
}

// begin commits the response to streaming — headers, status, the gzip
// stage when negotiated, the record writer with the server's flush
// policy — and emits the head record, flushed immediately: the head is
// the stream's time-to-first-byte, never held for a full chunk. After
// this, errors can only be reported in-band.
func (ss *streamSink) begin(head *streamHead) error {
	h := ss.w.Header()
	if ss.format == stream.SSE {
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
	} else {
		h.Set("Content-Type", "application/x-ndjson")
	}
	h.Add("Vary", "Accept-Encoding")
	var dst io.Writer = ss.w
	if acceptsGzip(ss.r) {
		h.Set("Content-Encoding", "gzip")
		ss.gz = gzipGet(ss.w)
		dst = ss.gz
	}
	fl, _ := ss.w.(http.Flusher)
	push := func() error {
		if ss.gz != nil {
			if err := ss.gz.Flush(); err != nil {
				return err
			}
		}
		if fl != nil {
			fl.Flush()
		}
		return nil
	}
	ss.sw = stream.NewWriter(dst, push, ss.format, stream.Policy{
		FlushBytes:    ss.s.opts.StreamFlushBytes,
		FlushInterval: ss.s.opts.StreamFlushInterval,
	})
	ss.w.WriteHeader(http.StatusOK)
	if err := ss.record(stream.EventHead, head); err != nil {
		return err
	}
	return ss.sw.Flush()
}

// record emits v as one JSON record of the given event.
func (ss *streamSink) record(event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return ss.sw.Record(event, func(buf []byte) []byte { return append(buf, b...) })
}

func (ss *streamSink) row(r []byte) error {
	return ss.sw.Record(stream.EventPoint, func(b []byte) []byte { return append(b, r...) })
}

func (ss *streamSink) progress(p shardProgress) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.sw.Err() != nil {
		return
	}
	ss.record(stream.EventProgress, p)
	ss.sw.Flush()
}

func (ss *streamSink) end(tr *streamTrailer) error {
	if tr.Degraded {
		ss.s.degraded.Inc()
	}
	if ss.shed() {
		return nil
	}
	return ss.record(stream.EventTrailer, tr)
}

// shed reports whether a started stream's client has gone away: the
// connection write failed, or the request context was cancelled (as
// opposed to timing out). A shed stream ends silently.
func (ss *streamSink) shed() bool {
	return ss.sw != nil && (ss.sw.Err() != nil || errors.Is(ss.r.Context().Err(), context.Canceled))
}

// finishStream settles a streamed response: an error before the stream
// started takes the normal status mapping; after it, a terminal
// {"error": ...} record — unless the client is simply gone. Then the
// remainder flushes, the gzip stage goes back to its pool and the
// stream metrics settle.
func (s *Server) finishStream(w http.ResponseWriter, r *http.Request, ss *streamSink, err error) {
	if ss.sw == nil {
		if err != nil {
			replyError(w, r, err)
		}
		return
	}
	if err != nil && ss.sw.Err() == nil {
		msg := err.Error()
		var br badRequest
		if errors.As(err, &br) {
			msg = br.msg
		}
		ss.sw.Record(stream.EventError, func(b []byte) []byte { return stream.AppendString(b, msg) })
	}
	ss.sw.Close()
	if ss.gz != nil {
		// Close writes the gzip footer; a dead connection just errors into
		// the void. The writer always goes back to the pool.
		ss.gz.Close()
		gzipPut(ss.gz)
	}
	st := ss.sw.Stats()
	s.streamRows.Add(st.Rows)
	s.streamFlushes.Add(st.Flushes)
	if ss.shed() {
		s.streamDisconnects.Inc()
	}
}

// --- deltas ----------------------------------------------------------

// deltaSink serves a frontier stream with "delta": true. With a valid
// since base it diffs the new frontier against that base's, recomputed
// through the base's own plan, so a re-query that only moved its bounds
// ships {"op":"add"|"del"} records instead of the whole frontier;
// without one the stream is full. The head's "mode" says which. The
// server holds no delta state: a complete stream's trailer hands the
// client the base token of the frontier it now holds. A degraded fleet
// partial carries none, since its missing slices would read as
// deletions next time.
type deltaSink struct {
	*streamSink
	q *query
	// diff is set when ops against the base ship instead of whole rows.
	diff       bool
	prev, rows rowsSink
}

// begin resolves the stream's mode before the first byte. A base naming
// q's own spec is the frontier q computes, so there is nothing to walk
// or diff. Any other base runs through its plan, a fleet base through
// the fan-out like q; one the fleet gives only in part leaves the
// stream full.
func (d *deltaSink) begin(h *streamHead) error {
	switch base := d.q.base; {
	case base == d.q:
		d.diff = true
	case base != nil:
		if err := d.s.runPlan(d.r.Context(), base, &d.prev); err != nil {
			return err
		}
		d.diff = !d.prev.degraded
	}
	h.Mode = "full"
	if d.diff {
		d.s.deltaHits.Inc()
		h.Mode = "delta"
	} else {
		d.s.deltaMisses.Inc()
	}
	return d.streamSink.begin(h)
}

// row passes a full stream's rows through and keeps a diffed one's as
// data for the end, unless the base is q's own spec: then they are the
// rows the client holds.
func (d *deltaSink) row(r []byte) error {
	switch {
	case !d.diff:
		return d.streamSink.row(r)
	case d.q.base != d.q:
		return d.rows.row(r)
	}
	return nil
}

// end ships a diffed stream's ops, settling the trailer's op counts,
// and a complete stream's base token.
func (d *deltaSink) end(tr *streamTrailer) error {
	for _, op := range delta.Diff(d.prev.rows, d.rows.rows) {
		ev := stream.EventDel
		if op.Add {
			ev = stream.EventAdd
			tr.Adds++
		} else {
			tr.Dels++
		}
		row := op.Row
		if err := d.sw.Record(ev, func(b []byte) []byte { return append(b, row...) }); err != nil {
			return err
		}
	}
	d.s.deltaAdds.Add(uint64(tr.Adds))
	d.s.deltaDels.Add(uint64(tr.Dels))
	if !tr.Degraded {
		tr.Base = baseToken(d.q)
	}
	return d.streamSink.end(tr)
}

// rowsSink keeps a plan's rows as data, and whether the plan degraded.
type rowsSink struct {
	rows     [][]byte
	degraded bool
}

func (rs *rowsSink) begin(*streamHead) error { return nil }

func (rs *rowsSink) row(r []byte) error {
	rs.rows = append(rs.rows, append([]byte(nil), r...))
	return nil
}

func (rs *rowsSink) progress(shardProgress) {}

func (rs *rowsSink) end(tr *streamTrailer) error {
	rs.degraded = tr.Degraded
	return nil
}

func (rs *rowsSink) shed() bool { return false }
