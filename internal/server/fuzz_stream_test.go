package server

// Fuzzes the streaming negotiation surface: Accept / Accept-Encoding
// headers, the SSE endpoint's query-parameter parser, and delta
// requests with their since tokens. The contract is the same 400-never-5xx rule as the body
// fuzz — a stream either starts with a 200 or the request fails with a
// clean 4xx, whatever the headers and query say; and once started, the
// body is well-framed NDJSON/SSE, never a half-written JSON envelope.
// Seed inputs are checked in under testdata/fuzz/FuzzStreamNegotiation.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func FuzzStreamNegotiation(f *testing.F) {
	type seed struct{ accept, encoding, query string }
	seeds := []seed{
		// Clean negotiations.
		{"application/x-ndjson", "gzip", "workload=ep&types=arm-cortex-a9:2:switch,amd-opteron-k10:2&frontier_only=1"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&frontier_only=true&delta=1"},
		{"application/json", "gzip;q=0", "workload=ep&types=arm-cortex-a9:2&limit=5"},
		{"text/event-stream", "*;q=0.5", "workload=ep&types=arm-cortex-a9:2&frontier_only=1&stream=1"},
		// Header junk: weights, casing, duplicates, whitespace, partial
		// matches of the NDJSON token.
		{"APPLICATION/X-NDJSON;q=0.9, */*", "GZIP , deflate;q=x", "workload=ep&types=arm-cortex-a9:2"},
		{"application/x-ndjso", "gzip;;;q=", "workload=ep&types=arm-cortex-a9:2"},
		{",,,", ";q=1", "workload=ep&types=arm-cortex-a9:2&frontier_only=1"},
		// Query rejection classes: bad types grammar, bad booleans, bad
		// numbers, delta misuse, shard misuse, unknown workload.
		{"application/x-ndjson", "", "workload=ep&types=bogus"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:two"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2:maybe"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&frontier_only=yes!"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&limit=1e9"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&shards=zebra"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&profile_version=-1"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&delta=1"},
		{"application/x-ndjson", "", "workload=ep&types=arm-cortex-a9:2&frontier_only=1&shard=0/2&delta=1"},
		{"application/x-ndjson", "", "workload=nope&types=arm-cortex-a9:2"},
		{"application/x-ndjson", "", "workload=ep"},
		{"application/x-ndjson", "", ""},
		{"application/x-ndjson", "", "types=arm-cortex-a9:2&shard=9/2&frontier_only=1"},
	}
	for _, s := range seeds {
		f.Add(s.accept, s.encoding, s.query)
	}
	f.Fuzz(func(t *testing.T, accept, encoding, query string) {
		s := fuzzServer(t)
		// The POST endpoint with negotiation headers: a small valid body,
		// so only the header/query surface is under mutation.
		body := `{"workload":"ep","types":[{"node":"arm-cortex-a9","max_nodes":2}],"frontier_only":true}`
		target := "/v1/enumerate-generic"
		if query != "" {
			target += "?" + sanitizeQuery(query)
		}
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		req.Header.Set("Accept", sanitizeHeaderValue(accept))
		req.Header.Set("Accept-Encoding", sanitizeHeaderValue(encoding))
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, req)
		if rr.Code >= 500 {
			t.Fatalf("POST %s (Accept %q) answered %d: %s", target, accept, rr.Code, rr.Body)
		}

		// The SSE GET endpoint: the query string IS the request.
		sseTarget := "/v1/enumerate-generic/stream"
		if query != "" {
			sseTarget += "?" + sanitizeQuery(query)
		}
		sreq := httptest.NewRequest(http.MethodGet, sseTarget, nil)
		sreq.Header.Set("Accept-Encoding", sanitizeHeaderValue(encoding))
		srr := httptest.NewRecorder()
		s.Handler().ServeHTTP(srr, sreq)
		if srr.Code >= 500 {
			t.Fatalf("GET %s answered %d: %s", sseTarget, srr.Code, srr.Body)
		}
	})
}

// sanitizeQuery drops bytes that would make httptest.NewRequest panic
// on an unparseable URL — a real listener would have rejected the
// request line before the handler ever saw it.
func sanitizeQuery(q string) string {
	var b strings.Builder
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c > 0x20 && c != 0x7f && c != '#' {
			b.WriteByte(c)
		}
	}
	return b.String()
}
