package server

// The /v1/batch endpoint: a heterogeneous batch of predict, queueing
// and budget items executed on a bounded worker pool, answering one
// HTTP round trip with per-item results in request order. The item
// bodies are byte-identical to what the corresponding single endpoint
// would write (pinned by TestBatchBitIdenticalToSingles): items share
// the same normalize/compute helpers, the same result cache and — the
// amortization lever — the same compiled kernel-table cache, so a batch
// over one cluster builds its table at most once regardless of item
// count.
//
// Error contract: envelope-level problems (undecodable body, no items,
// more than MaxBatchItems) are a 400 for the whole batch, like every
// other endpoint; one bad item never fails the batch — it yields a 200
// whose item carries the error object and the status the single
// endpoint would have answered.
//
// The response is assembled in a single pass over a pooled buffer: the
// pre-marshaled item bodies are spliced into the envelope and written
// once, with no envelope-level re-marshal and no marshal-then-copy
// double write.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"heteromix/internal/resilience"
)

// BatchItem is one request of a batch.
type BatchItem struct {
	// Kind selects the endpoint semantics: "predict", "queueing" or
	// "budget".
	Kind string `json:"kind"`
	// Request is the item's request body, exactly as the single endpoint
	// would receive it.
	Request json.RawMessage `json:"request"`
}

// BatchRequest is a heterogeneous batch of items.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// batchResult is one computed item before splicing: the status and body
// the single endpoint would have answered, plus the cache disposition.
type batchResult struct {
	status int
	cached bool
	body   []byte
}

// respBufPool recycles response-assembly buffers across requests.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeItem mirrors decode's strictness for a batch item's embedded
// request: unknown fields and trailing garbage are client errors. The
// error text matches the single endpoint's 400 body for the same input.
func decodeItem[T any](raw json.RawMessage) (T, error) {
	var req T
	if len(raw) == 0 {
		return req, badRequestf("invalid request body: request is required")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, badRequestf("invalid request body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, badRequestf("invalid request body: trailing data")
	}
	return req, nil
}

// errorStatus maps an item error to the status the single endpoint
// would answer, mirroring replyError without a ResponseWriter.
func errorStatus(err error) int {
	var br badRequest
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.As(err, new(errProfileConflict)):
		return http.StatusConflict
	case errors.Is(err, resilience.ErrOpen), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorResult renders err as the item's result, with the same JSON
// error body writeError produces.
func errorResult(err error) batchResult {
	b, mErr := json.Marshal(errorResponse{Error: err.Error()})
	if mErr != nil {
		b = []byte(`{"error":"encoding failure"}`)
	}
	return batchResult{status: errorStatus(err), body: b}
}

// runItem answers one item, memoizing successful bodies on the item's
// raw bytes. The raw layer is what makes a warm batch cheap: a repeated
// item skips JSON decode, validation and canonicalization entirely and
// serves the memoized body in one cache probe. Correctness is
// inherited, not re-proven — a raw miss computes through the exact
// single-endpoint path (which canonicalizes and consults the canonical
// result cache), so every raw entry's body is the canonical answer for
// those bytes; distinct spellings of equivalent requests cost extra
// entries in the bounded LRU, never extra compute beyond the first
// sighting. Errors are never cached: a failed item recomputes on every
// sighting, like everywhere else in the server.
//
// Raw bytes never reveal their workload without a decode, so raw keys
// cannot carry a per-workload profile tag; they carry the global
// profile generation instead — any bump anywhere retires every raw
// entry, the coarse but always-correct tier of invalidation.
func (s *Server) runItem(it BatchItem) batchResult {
	var innerCached bool
	key := "batchraw|g" + strconv.FormatUint(s.calib.Generation(), 10) + "|" + it.Kind + "|" + string(it.Request)
	v, cached, err := s.cache.Do(key, func() ([]byte, error) {
		body, c, err := s.computeItem(it)
		innerCached = c
		return body, err
	})
	if err != nil {
		return errorResult(err)
	}
	return batchResult{status: http.StatusOK, cached: cached || innerCached, body: v}
}

// computeItem computes one item exactly as its single endpoint would.
func (s *Server) computeItem(it BatchItem) ([]byte, bool, error) {
	switch it.Kind {
	case "predict":
		req, err := decodeItem[PredictRequest](it.Request)
		if err != nil {
			return nil, false, err
		}
		norm, cfg, err := s.normalizePredict(req)
		if err != nil {
			return nil, false, err
		}
		return s.predictBytes(norm, cfg)
	case "queueing":
		req, err := decodeItem[QueueingRequest](it.Request)
		if err != nil {
			return nil, false, err
		}
		resp, err := queueingResult(req)
		if err != nil {
			return nil, false, err
		}
		// Queueing is pure arithmetic on the request alone, so memoizing
		// its body in the raw layer cannot serve anything a fresh compute
		// would not produce.
		body, err := json.Marshal(resp)
		return body, false, err
	case "budget":
		req, err := decodeItem[BudgetRequest](it.Request)
		if err != nil {
			return nil, false, err
		}
		norm, err := s.normalizeBudget(req)
		if err != nil {
			return nil, false, err
		}
		return s.budgetBytes(norm)
	default:
		return nil, false, badRequestf("unknown kind %q (one of predict, queueing, budget)", it.Kind)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[BatchRequest](s, w, r)
	if !ok {
		return
	}
	if len(req.Items) == 0 {
		replyError(w, r, badRequestf("items is required (1 to %d entries)", s.opts.MaxBatchItems))
		return
	}
	if len(req.Items) > s.opts.MaxBatchItems {
		replyError(w, r, badRequestf("at most %d items per batch, got %d", s.opts.MaxBatchItems, len(req.Items)))
		return
	}
	// A batch whose items all address one workload routes to that
	// workload's consistent-hash owner as a unit (mixed-workload batches
	// compute locally — splitting them would break the one-round-trip
	// contract).
	if s.ring != nil {
		if wl, ok := batchWorkload(req.Items); ok && s.routeForward(w, r, "/v1/batch", wl, req) {
			return
		}
	}

	// Bounded worker pool over an atomic cursor; results land by index,
	// so the response order is the request order no matter which worker
	// finishes first.
	results := make([]batchResult, len(req.Items))
	workers := s.opts.BatchWorkers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	ctx := r.Context()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(req.Items) {
					return
				}
				if err := ctx.Err(); err != nil {
					// The request deadline covers the whole batch; items the
					// pool never reaches answer 503 rather than burn CPU.
					results[i] = errorResult(err)
					continue
				}
				results[i] = s.runItem(req.Items[i])
			}
		}()
	}
	wg.Wait()

	s.batchItems.Add(uint64(len(req.Items)))
	itemErrors := 0
	for _, res := range results {
		if res.status >= 400 {
			itemErrors++
		}
	}
	s.batchErrors.Add(uint64(itemErrors))

	buf := respBufPool.Get().(*bytes.Buffer)
	defer func() { buf.Reset(); respBufPool.Put(buf) }()
	buf.WriteString(`{"items":[`)
	for i, res := range results {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"kind":`)
		switch k := req.Items[i].Kind; k {
		case "predict", "queueing", "budget":
			buf.WriteByte('"')
			buf.WriteString(k)
			buf.WriteByte('"')
		default:
			// An unknown kind is client-supplied free text; marshal it
			// rather than splicing it into the envelope.
			kindJSON, err := json.Marshal(k)
			if err != nil {
				kindJSON = []byte(`""`)
			}
			buf.Write(kindJSON)
		}
		buf.WriteString(`,"status":`)
		buf.WriteString(strconv.Itoa(res.status))
		if res.cached {
			buf.WriteString(`,"cached":true`)
		}
		buf.WriteString(`,"body":`)
		buf.Write(res.body)
		buf.WriteByte('}')
	}
	buf.WriteString(`],"errors":`)
	buf.WriteString(strconv.Itoa(itemErrors))
	buf.WriteByte('}')

	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
