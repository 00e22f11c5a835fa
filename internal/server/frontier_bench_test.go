package server

// A buffered frontier answer served again and again: frontier answers
// never enter the result cache, so every iteration is computed fresh
// from the table's warm candidate set, on the 384,344-point tri-cluster
// space and the paper's two-type 10x10 space. Run by
// `make bench-stream`; figures in BENCH_serving.json.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const (
	genericFrontierBody = streamBenchBody + `,"frontier_only":true}`
	twoTypeFrontierBody = `{"workload":"ep","max_arm":10,"max_amd":10,"frontier_only":true}`
)

// serveFrontier answers one buffered request into a discarding writer
// and returns its X-Cache header.
func serveFrontier(tb testing.TB, s *Server, path, body string) string {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := &discardFlusher{}
	s.Handler().ServeHTTP(w, req)
	return w.Header().Get("X-Cache")
}

// benchFrontierAnswer serves the same frontier request once per
// iteration after a warm-up that compiled its table and built its
// candidate set. Every answer must be a miss that left the result cache
// empty.
func benchFrontierAnswer(b *testing.B, path, body string) {
	s := newTestServer(b, streamBenchOpts())
	serveFrontier(b, s, path, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := serveFrontier(b, s, path, body); got != "miss" {
			b.Fatalf("X-Cache %q, want miss", got)
		}
	}
	b.StopTimer()
	if n := s.cache.Len(); n != 0 {
		b.Fatalf("the result cache holds %d entries, want 0", n)
	}
}

func BenchmarkFrontierFreshGeneric(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate-generic", genericFrontierBody)
}

func BenchmarkFrontierFreshTwoType(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate", twoTypeFrontierBody)
}
