package server

// Benchmarks and CI gates for the streaming wire layer, run by
// `make bench-stream`:
//
//   - TestStreamAllocGate pins the tentpole's memory claim: a streamed
//     enumeration allocates O(frontier) — the walk plus one chunk
//     buffer — not O(space) like the buffered path, which materializes
//     every summary and the whole marshaled body.
//   - TestStreamTTFPGate pins the latency claim: over real TCP, the
//     first streamed point arrives ≥5x sooner than the buffered
//     response's first byte on the same walk (the buffered path cannot
//     write until the walk and the encode both finish).
//   - The benchmarks record the row-throughput and gzip pooling numbers
//     tracked in BENCH_serving.json.

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamBenchBody is the unsharded spelling of the 384,344-point
// tri-cluster space the fleet benchmarks walk.
const streamBenchBody = `{"workload":"ep","types":[` +
	`{"node":"arm-cortex-a9","max_nodes":4,"needs_switch":true},` +
	`{"node":"arm-cortex-a15","max_nodes":4,"needs_switch":true},` +
	`{"node":"amd-opteron-k10","max_nodes":4}]`

// walk20kBody caps the same space to a 20,000-row materializing walk —
// the shape where buffered O(space) memory actually bites.
const walk20kBody = streamBenchBody + `,"limit":20000}`

// fullWalkBody materializes every one of the 384,344 rows — the shape
// where the buffered path must hold the whole space before its first
// byte can leave.
const fullWalkBody = streamBenchBody + `,"limit":400000}`

// streamBenchOpts admits the full 384k walk and its row count.
func streamBenchOpts() Options {
	return Options{MaxGenericSpace: 5_000_000, MaxPoints: 400_000}
}

// discardFlusher is a ResponseWriter that throws the body away but
// supports flushing, so the streamed path runs its full chunk protocol
// without measuring recorder buffer growth.
type discardFlusher struct{ h http.Header }

func (d *discardFlusher) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardFlusher) WriteHeader(int)             {}
func (d *discardFlusher) Flush()                      {}

// allocBytes runs fn once and returns the heap bytes it allocated.
func allocBytes(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func discardRequest(tb testing.TB, s *Server, body string, stream bool) {
	tb.Helper()
	path := "/v1/enumerate-generic"
	if stream {
		path += "?stream=1"
	}
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	s.Handler().ServeHTTP(&discardFlusher{}, req)
}

// TestStreamAllocGate is the bench-stream memory gate. Only runs under
// `make bench-stream` (HETEROMIX_STREAM_GATE=1) so plain `go test
// ./...` stays fast.
func TestStreamAllocGate(t *testing.T) {
	if os.Getenv("HETEROMIX_STREAM_GATE") != "1" {
		t.Skip("set HETEROMIX_STREAM_GATE=1 (make bench-stream) to run the allocation gate")
	}
	s := newTestServer(t, streamBenchOpts())
	frontierBody := streamBenchBody + `,"frontier_only":true}`
	// Warm-up compiles the kernel tables and grows every pool — both
	// paths, so the comparison below is steady state, not cold buffers.
	discardRequest(t, s, frontierBody, true)
	discardRequest(t, s, walk20kBody, true)
	discardRequest(t, s, walk20kBody, false)

	// Claim 1: the streamed frontier walk of the 384k space allocates
	// O(frontier). The absolute bound is generous against the ~100 MB a
	// naive materialization of 384k summaries costs, but tight enough
	// that any per-point allocation on the walk would blow through it.
	streamedFrontier := allocBytes(func() { discardRequest(t, s, frontierBody, true) })
	t.Logf("streamed 384k-point frontier walk: %.2f MB allocated", float64(streamedFrontier)/1e6)
	if streamedFrontier > 8<<20 {
		t.Errorf("streamed frontier walk allocated %d bytes, gate 8 MB: the walk is allocating per point, not per frontier entry",
			streamedFrontier)
	}

	// Claim 2: on a materializing walk, the streamed path allocates a
	// fraction of the buffered one. Per-row summary construction is
	// common to both; the buffered path additionally holds every summary
	// and the whole marshaled body (~2x at 20k rows, growing with the
	// row count), the streamed path only one recycled chunk buffer.
	streamed20k := allocBytes(func() { discardRequest(t, s, walk20kBody, true) })
	buffered20k := allocBytes(func() { discardRequest(t, s, walk20kBody, false) })
	t.Logf("20k-row walk: streamed %.2f MB, buffered %.2f MB (%.1fx)",
		float64(streamed20k)/1e6, float64(buffered20k)/1e6, float64(buffered20k)/float64(streamed20k))
	if float64(streamed20k)*1.5 > float64(buffered20k) {
		t.Errorf("streamed 20k walk allocated %d bytes vs buffered %d: want ≤ 1/1.5",
			streamed20k, buffered20k)
	}
}

// ttfp opens one request against a live listener and returns how long
// the payload took to start arriving: for a stream, the n-th
// newline-terminated line (line 2 is the first point); for a buffered
// response (lines == 0), the first body byte.
func ttfp(tb testing.TB, url, body string, stream bool, lines int) time.Duration {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	if stream {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var elapsed time.Duration
	if lines == 0 {
		if _, err := br.ReadByte(); err != nil {
			tb.Fatalf("reading first body byte: %v", err)
		}
		elapsed = time.Since(start)
	}
	for i := 0; i < lines; i++ {
		if _, err := br.ReadBytes('\n'); err != nil {
			tb.Fatalf("reading line %d: %v", i, err)
		}
		elapsed = time.Since(start)
	}
	// The deferred Close hangs up; a streamed trial sheds the rest of
	// its walk server-side, which is exactly the disconnect contract.
	return elapsed
}

// TestStreamTTFPGate: time-to-first-point of the streamed 384k-row
// walk must be ≥5x lower than the buffered response's
// time-to-first-byte — the buffered path walks, materializes and
// encodes all 384,344 rows before it can write anything.
func TestStreamTTFPGate(t *testing.T) {
	if os.Getenv("HETEROMIX_STREAM_GATE") != "1" {
		t.Skip("set HETEROMIX_STREAM_GATE=1 (make bench-stream) to run the TTFP gate")
	}
	s := newTestServer(t, streamBenchOpts())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	url := hs.URL + "/v1/enumerate-generic"
	body := fullWalkBody

	// Warm-up: compile tables.
	ttfp(t, url, body, false, 0)

	best := func(stream bool, lines int) time.Duration {
		min := time.Duration(1<<63 - 1)
		for trial := 0; trial < 3; trial++ {
			if d := ttfp(t, url, body, stream, lines); d < min {
				min = d
			}
		}
		return min
	}
	// Line 2 of the stream is the first point (line 1 is the head).
	streamed := best(true, 2)
	buffered := best(false, 0)
	ratio := float64(buffered) / float64(streamed)
	t.Logf("time to first point: streamed %v, buffered %v (%.1fx)", streamed, buffered, ratio)
	if ratio < 5 {
		t.Errorf("streamed TTFP %v only %.1fx better than buffered %v, gate 5x", streamed, ratio, buffered)
	}
}

func benchGenericWalk(b *testing.B, body string, stream bool) {
	s := newTestServer(b, streamBenchOpts())
	discardRequest(b, s, body, stream) // warm the kernel tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discardRequest(b, s, body, stream)
	}
}

func BenchmarkStreamGenericFrontier(b *testing.B) {
	benchGenericWalk(b, streamBenchBody+`,"frontier_only":true}`, true)
}

func BenchmarkBufferedGenericFrontier(b *testing.B) {
	benchGenericWalk(b, streamBenchBody+`,"frontier_only":true}`, false)
}

func BenchmarkStreamEnumerate20k(b *testing.B) { benchGenericWalk(b, walk20kBody, true) }

func BenchmarkBufferedEnumerate20k(b *testing.B) { benchGenericWalk(b, walk20kBody, false) }

// BenchmarkStreamDeltaReQuery: a delta re-query of an unchanged spec —
// the steady state of a dashboard polling a frontier — whose since base
// is its own spec answers the frontier from the warm candidate set,
// recomputes no base and ships zero ops.
func BenchmarkStreamDeltaReQuery(b *testing.B) {
	s := newTestServer(b, streamBenchOpts())
	spec := streamBenchBody + `,"frontier_only":true,"delta":true`
	// The first stream warms the table and mints the base token.
	first := parseNDJSON(b, postStream(b, s, "/v1/enumerate-generic", spec+"}", nil).Body.String())
	if first.trailer == nil || first.trailer.Base == "" {
		b.Fatalf("the seeding stream's trailer carries no base: %+v", first.trailer)
	}
	body := fmt.Sprintf(`%s,"since":%q}`, spec, first.trailer.Base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		discardRequest(b, s, body, true)
	}
	b.StopTimer()
	if hits := s.deltaHits.Value(); hits != uint64(b.N) {
		b.Fatalf("%d of %d re-queries diffed against their base", hits, b.N)
	}
}

// The gzip pooling benchmarks (satellite a): compressing a ~1 MB body
// with a pooled, Reset writer versus a cold gzip.NewWriterLevel per
// response. The delta is the per-response allocation the pool saves.
func gzipBenchBody() []byte {
	var buf bytes.Buffer
	for i := 0; buf.Len() < 1<<20; i++ {
		fmt.Fprintf(&buf, `{"groups":[{"type":"arm-cortex-a9","nodes":%d,"cores":4,"ghz":1.7,"work_fraction":0.4}],"time_seconds":%d.5,"energy_joules":%d.25,"label":"row %d"}`+"\n",
			i%5, i, i*3, i)
	}
	return buf.Bytes()
}

// gzipPooledBody is BenchmarkGzipPooledWriter's body, built once: the
// ~2 MB of garbage building it leaves sets off a GC inside most timed
// loops, and after a GC the pool's next Put allocates its per-P slots
// again.
var gzipPooledBody = sync.OnceValue(gzipBenchBody)

func BenchmarkGzipPooledWriter(b *testing.B) {
	body := gzipPooledBody()
	b.SetBytes(int64(len(body)))
	// One untimed response leaves a writer with its deflate state in the
	// pool, as a daemon's first gzipped response does. Without it the
	// GCs since the previous run's Put have emptied the pool (a GC moves
	// a pool's objects to its victim cache, the next drops them), and
	// the first timed iteration builds a new writer.
	zw := gzipGet(io.Discard)
	zw.Write(body)
	zw.Close()
	gzipPut(zw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink bytes.Buffer
		zw := gzipGet(&sink)
		zw.Write(body)
		zw.Close()
		gzipPut(zw)
	}
}

func BenchmarkGzipColdWriter(b *testing.B) {
	body := gzipBenchBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&sink, gzip.BestSpeed)
		zw.Write(body)
		zw.Close()
	}
}
