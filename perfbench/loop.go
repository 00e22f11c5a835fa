package main

// The closed-loop client: one connection, the next request sent only
// after the previous answer is read in full — the way a scheduler or a
// dashboard waiting on a frontier or a prediction calls the daemon.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// newLoadClient is the single keep-alive connection requests go over.
func newLoadClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// newScrapeClient reads /metrics, /debug/vars and /readyz over
// short-lived connections, so with the load connection at most two are
// open at once.
func newScrapeClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// errDegraded marks a 200 that carries a degraded or in-band error
// answer; the benchmark counts it as a failed operation.
var errDegraded = errors.New("degraded answer")

// send posts r and reads the answer in full; a non-200, a degraded
// answer or a stream without a clean trailer is an error.
func send(ctx context.Context, hc *http.Client, base string, r request) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.kind == kindGenericNDJ {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", r.kind, r.path, resp.StatusCode, body)
	}
	if resp.Header.Get("X-Degraded") != "" {
		return nil, errDegraded
	}
	if r.kind == kindGenericNDJ {
		if err := ndjsonTrailerOK(body); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// ndjsonTrailerOK checks that a streamed body ends in a clean trailer
// (an {"error":...} record or a degraded trailer is a failure after the
// 200 was already sent).
func ndjsonTrailerOK(body []byte) error {
	b := bytes.TrimRight(body, "\n")
	last := b[bytes.LastIndexByte(b, '\n')+1:]
	if !bytes.HasPrefix(last, []byte(`{"trailer":`)) {
		return fmt.Errorf("stream did not end in a trailer: %.200s", last)
	}
	if bytes.Contains(last, []byte(`"degraded":true`)) {
		return errDegraded
	}
	return nil
}

// span is one timed interval. Spans of one request share req; parent
// is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// In-process fleet replicas record from their own goroutines, hence mu.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(req, parent uint64, name string, start, end int64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return t.next
}

// reserve allocates a span id before the span's children run.
func (t *tracer) reserve() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// run times f as span name under parent and returns its duration; f
// receives the span's id so it can open children.
func (t *tracer) run(req, parent uint64, name string, f func(id uint64)) time.Duration {
	id := t.reserve()
	start := t.now()
	f(id)
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return time.Duration(end - start)
}

// sampleCheck is a response kept for the correctness oracle.
type sampleCheck struct {
	req  request
	body []byte
}

// phase is one closed-loop measurement.
type phase struct {
	lat       []time.Duration
	ends      []time.Duration // completion times since the phase began
	byKind    map[string][]time.Duration
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	checks    []sampleCheck
	writes    int // /v1/fit requests sent
}

// runPhase sends gen's requests in a closed loop for dur. With tr set,
// every client call gets a span (one request per span tree).
func runPhase(ctx context.Context, hc *http.Client, base string, gen generator, dur time.Duration, tr *tracer) phase {
	p := phase{byKind: make(map[string][]time.Duration)}
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		r := gen.next()
		p.attempted++
		if r.kind == kindFit {
			p.writes++
		}
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		reqStart := time.Now()
		body, err := send(ctx, hc, base, r)
		lat := time.Since(reqStart)
		if tr != nil {
			tr.add(uint64(p.attempted), 0, "client."+r.kind, t0, tr.now())
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			continue
		}
		p.lat = append(p.lat, lat)
		p.ends = append(p.ends, time.Since(start))
		p.byKind[r.kind] = append(p.byKind[r.kind], lat)
		if r.check {
			p.checks = append(p.checks, sampleCheck{req: r, body: body})
		}
	}
	p.elapsed = time.Since(start)
	return p
}

// quantile returns the q-quantile of ds (nearest rank on a sorted copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// medianF is the median of xs.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
