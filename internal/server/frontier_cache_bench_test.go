package server

// The data for dropping frontier bodies from the result cache: a
// buffered frontier answer served as a result-cache hit, against the
// same request answered fresh from the table's warm candidate set, on
// the 384,344-point tri-cluster space and the paper's two-type 10x10
// space. Run by `make bench-stream`; figures in BENCH_serving.json.

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

// benchFrontierAnswer serves one frontier request per iteration after a
// warm-up that compiled its table, built its candidate set and cached
// its answer. fresh deletes that answer's cache entry before each
// iteration (a map delete, on the clock), so every answer is computed
// again from the warm set; otherwise every answer is a cache hit.
func benchFrontierAnswer(b *testing.B, path, body string, fresh bool) {
	s := newTestServer(b, streamBenchOpts())
	serveFrontier(b, s, path, body)
	hot := s.cache.Hottest(0)
	if len(hot) != 1 {
		b.Fatalf("the warm-up cached %d entries, want its answer alone", len(hot))
	}
	want := "hit"
	if fresh {
		want = "miss"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fresh {
			s.cache.Delete(hot[0].Key)
		}
		if got := serveFrontier(b, s, path, body); got != want {
			b.Fatalf("X-Cache %q, want %q", got, want)
		}
	}
}

func BenchmarkFrontierCacheHitGeneric(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate-generic", genericFrontierBody, false)
}

func BenchmarkFrontierFreshGeneric(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate-generic", genericFrontierBody, true)
}

func BenchmarkFrontierCacheHitTwoType(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate", twoTypeFrontierBody, false)
}

func BenchmarkFrontierFreshTwoType(b *testing.B) {
	benchFrontierAnswer(b, "/v1/enumerate", twoTypeFrontierBody, true)
}
