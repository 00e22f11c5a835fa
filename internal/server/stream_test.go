package server

// Tests for the streaming wire layer: NDJSON negotiation, SSE, framing,
// byte-identity with the buffered responses, frontier deltas, gzip and
// the stream metrics.

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// rawGenericResponse mirrors EnumerateGenericResponse but keeps every
// point's exact bytes, so streamed rows can be compared byte-for-byte
// against the buffered encoding.
type rawGenericResponse struct {
	Workload     string            `json:"workload"`
	Work         float64           `json:"work"`
	TypeNames    []string          `json:"type_names"`
	SpaceSize    uint64            `json:"space_size"`
	PrunedSize   uint64            `json:"pruned_size"`
	Returned     int               `json:"returned"`
	Truncated    bool              `json:"truncated"`
	FrontierOnly bool              `json:"frontier_only"`
	Points       []json.RawMessage `json:"points"`
	Indices      []uint64          `json:"indices"`
	FailedShards []int             `json:"failed_shards"`
	Degraded     bool              `json:"degraded"`
}

type rawEnumerateResponse struct {
	Workload  string            `json:"workload"`
	SpaceSize int               `json:"space_size"`
	Returned  int               `json:"returned"`
	Truncated bool              `json:"truncated"`
	Points    []json.RawMessage `json:"points"`
}

// ndjsonStream is a parsed NDJSON response: the head, the bare point
// rows (exact bytes), delta/progress records and the terminal record.
type ndjsonStream struct {
	head     streamHead
	rows     []string // bare point records, in order
	adds     []string
	dels     []string
	progress []shardProgress
	trailer  *streamTrailer
	errMsg   *string
}

func parseNDJSON(t testing.TB, body string) ndjsonStream {
	t.Helper()
	var st ndjsonStream
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	for i, line := range lines {
		if line == "" {
			t.Fatalf("blank NDJSON line %d in %q", i, body)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, line, err)
		}
		switch {
		case probe["head"] != nil:
			if i != 0 {
				t.Fatalf("head record at line %d, want 0", i)
			}
			if err := json.Unmarshal(probe["head"], &st.head); err != nil {
				t.Fatal(err)
			}
		case probe["trailer"] != nil:
			st.trailer = new(streamTrailer)
			if err := json.Unmarshal(probe["trailer"], st.trailer); err != nil {
				t.Fatal(err)
			}
			if i != len(lines)-1 {
				t.Fatalf("trailer at line %d of %d", i, len(lines))
			}
		case probe["error"] != nil:
			var msg string
			if err := json.Unmarshal(probe["error"], &msg); err != nil {
				t.Fatal(err)
			}
			st.errMsg = &msg
		case probe["op"] != nil:
			var op struct {
				Op    string          `json:"op"`
				Point json.RawMessage `json:"point"`
			}
			if err := json.Unmarshal([]byte(line), &op); err != nil {
				t.Fatal(err)
			}
			if op.Op == "add" {
				st.adds = append(st.adds, string(op.Point))
			} else {
				st.dels = append(st.dels, string(op.Point))
			}
		case probe["progress"] != nil:
			var p shardProgress
			if err := json.Unmarshal(probe["progress"], &p); err != nil {
				t.Fatal(err)
			}
			st.progress = append(st.progress, p)
		default:
			st.rows = append(st.rows, line)
		}
	}
	return st
}

// postStream drives a negotiated NDJSON request through the routed
// handler (httptest.ResponseRecorder implements http.Flusher, so the
// chunk pushes run).
func postStream(t testing.TB, s *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Accept", "application/x-ndjson")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

func sameRows(t *testing.T, what string, got []string, want []json.RawMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d rows, buffered %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != string(want[i]) {
			t.Fatalf("%s: row %d differs\nstream: %s\nbuffer: %s", what, i, got[i], want[i])
		}
	}
}

func TestStreamGenericFrontierMatchesBuffered(t *testing.T) {
	s := newTestServer(t, Options{})
	body := triBody + `,"frontier_only":true}`
	buf := post(t, s, "/v1/enumerate-generic", body)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)

	rr := postStream(t, s, "/v1/enumerate-generic", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("streamed: %d %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	st := parseNDJSON(t, rr.Body.String())
	sameRows(t, "frontier", st.rows, want.Points)
	if st.head.SpaceSize != want.SpaceSize || st.head.PrunedSize != want.PrunedSize {
		t.Fatalf("head sizes %d/%d, buffered %d/%d",
			st.head.SpaceSize, st.head.PrunedSize, want.SpaceSize, want.PrunedSize)
	}
	if !st.head.FrontierOnly || st.head.Workload != "ep" {
		t.Fatalf("head = %+v", st.head)
	}
	if st.trailer == nil || st.trailer.Returned != want.Returned {
		t.Fatalf("trailer = %+v, buffered returned %d", st.trailer, want.Returned)
	}

	// ?stream=1 negotiates the same stream without the Accept header.
	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate-generic?stream=1", strings.NewReader(body))
	qr := httptest.NewRecorder()
	s.Handler().ServeHTTP(qr, req)
	if qr.Code != http.StatusOK || qr.Body.String() != rr.Body.String() {
		t.Fatalf("?stream=1 differs from Accept negotiation: %d", qr.Code)
	}
}

func TestStreamGenericFullWalkMatchesBuffered(t *testing.T) {
	s := newTestServer(t, Options{})
	body := triBody + `,"limit":40}`
	buf := post(t, s, "/v1/enumerate-generic", body)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)
	if !want.Truncated {
		t.Fatal("test wants a truncated walk; raise the space or lower the limit")
	}

	st := parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", body, nil).Body.String())
	sameRows(t, "full walk", st.rows, want.Points)
	if st.trailer == nil || !st.trailer.Truncated || st.trailer.Returned != want.Returned {
		t.Fatalf("trailer = %+v, want truncated with %d rows", st.trailer, want.Returned)
	}
}

func TestStreamEnumerateMatchesBuffered(t *testing.T) {
	s := newTestServer(t, Options{})
	for _, body := range []string{
		`{"workload":"ep","max_arm":3,"max_amd":3,"frontier_only":true}`,
		`{"workload":"ep","max_arm":3,"max_amd":3,"limit":25}`,
	} {
		buf := post(t, s, "/v1/enumerate", body)
		if buf.Code != http.StatusOK {
			t.Fatalf("buffered: %d %s", buf.Code, buf.Body)
		}
		want := decodeBody[rawEnumerateResponse](t, buf)
		rr := postStream(t, s, "/v1/enumerate", body, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("streamed: %d %s", rr.Code, rr.Body)
		}
		st := parseNDJSON(t, rr.Body.String())
		sameRows(t, body, st.rows, want.Points)
		if st.head.SpaceSize != uint64(want.SpaceSize) {
			t.Fatalf("head space %d, buffered %d", st.head.SpaceSize, want.SpaceSize)
		}
		if st.trailer == nil || st.trailer.Returned != want.Returned || st.trailer.Truncated != want.Truncated {
			t.Fatalf("trailer %+v, buffered returned=%d truncated=%v", st.trailer, want.Returned, want.Truncated)
		}
	}
}

func TestStreamShardSliceMatchesBuffered(t *testing.T) {
	s := newTestServer(t, Options{})
	body := triBody + `,"frontier_only":true,"shard":"0/2"}`
	buf := post(t, s, "/v1/enumerate-generic", body)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)
	st := parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", body, nil).Body.String())
	sameRows(t, "shard slice", st.rows, want.Points)
	if st.head.Shard != "0/2" {
		t.Fatalf("head shard = %q", st.head.Shard)
	}
	if st.trailer == nil || len(st.trailer.Indices) != len(want.Indices) {
		t.Fatalf("trailer indices %v, buffered %v", st.trailer, want.Indices)
	}
	for i := range want.Indices {
		if st.trailer.Indices[i] != want.Indices[i] {
			t.Fatalf("index %d: %d != %d", i, st.trailer.Indices[i], want.Indices[i])
		}
	}
}

func TestStreamFleetMatchesBuffered(t *testing.T) {
	f := newFleet(t, 3, Options{}, Options{})
	body := fleetShardedBody(3)
	buf := post(t, f.coord, "/v1/enumerate-generic", body)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered fleet: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)

	rr := postStream(t, f.coord, "/v1/enumerate-generic", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("streamed fleet: %d %s", rr.Code, rr.Body)
	}
	st := parseNDJSON(t, rr.Body.String())
	sameRows(t, "fleet merge", st.rows, want.Points)
	if st.head.Shards != 3 {
		t.Fatalf("head shards = %d", st.head.Shards)
	}
	if len(st.progress) != 3 {
		t.Fatalf("progress records = %d, want one per shard: %+v", len(st.progress), st.progress)
	}
	seen := map[int]bool{}
	for _, p := range st.progress {
		if p.Failed {
			t.Fatalf("healthy fleet reported failed shard: %+v", p)
		}
		seen[p.Shard] = true
	}
	if len(seen) != 3 {
		t.Fatalf("progress shards %v, want 3 distinct", seen)
	}
	if st.trailer == nil || st.trailer.Degraded || st.trailer.Returned != want.Returned {
		t.Fatalf("trailer = %+v", st.trailer)
	}
}

func TestStreamFleetDegradedPartial(t *testing.T) {
	// Same computed kill pattern as TestFleetPartialWhenFailoverExhausted:
	// keep one replica alive chosen so at least one shard's whole top-2
	// failover walk is dead.
	const shards = 8
	f := newFleet(t, 4, Options{DisableHedge: true}, Options{})
	alive, expectFailed := partialKillPlan(f, shards)
	if alive < 0 {
		t.Skip("every shard's top-2 walk contains every replica (astronomically unlikely)")
	}
	for i := range f.chaos {
		if i != alive {
			f.chaos[i].Kill()
		}
	}
	rr := postStream(t, f.coord, "/v1/enumerate-generic", fleetShardedBody(shards), nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded stream: %d %s", rr.Code, rr.Body)
	}
	st := parseNDJSON(t, rr.Body.String())
	if st.trailer == nil || !st.trailer.Degraded {
		t.Fatalf("partial merge not marked degraded in trailer: %+v", st.trailer)
	}
	if fmt.Sprint(st.trailer.FailedShards) != fmt.Sprint(expectFailed) {
		t.Fatalf("failed_shards = %v, want %v", st.trailer.FailedShards, expectFailed)
	}
	if len(st.rows) == 0 {
		t.Fatal("degraded partial streamed no rows at all")
	}
	failed := map[int]bool{}
	for _, p := range st.progress {
		if p.Failed {
			failed[p.Shard] = true
		}
	}
	for _, i := range expectFailed {
		if !failed[i] {
			t.Fatalf("shard %d failed but no failed progress record: %+v", i, st.progress)
		}
	}
}

func TestSSEEndpointMatchesBuffered(t *testing.T) {
	s := newTestServer(t, Options{})
	buf := post(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)

	q := "workload=ep&types=arm-cortex-a9:2:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2&frontier_only=1"
	rr := get(t, s, "/v1/enumerate-generic/stream?"+q)
	if rr.Code != http.StatusOK {
		t.Fatalf("SSE: %d %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rows []string
	var trailerSeen bool
	for _, msg := range strings.Split(rr.Body.String(), "\n\n") {
		if msg == "" {
			continue
		}
		var event, data string
		for _, ln := range strings.Split(msg, "\n") {
			if v, ok := strings.CutPrefix(ln, "event: "); ok {
				event = v
			}
			if v, ok := strings.CutPrefix(ln, "data: "); ok {
				data = v
			}
		}
		switch event {
		case "point":
			rows = append(rows, data)
		case "trailer":
			trailerSeen = true
		case "head", "progress":
		default:
			t.Fatalf("unexpected SSE event %q", event)
		}
	}
	if !trailerSeen {
		t.Fatal("SSE stream had no trailer event")
	}
	sameRows(t, "SSE", rows, want.Points)

	// Bad query parameters are still a plain 400, never a started stream.
	for _, bad := range []string{
		"workload=ep&types=bogus",
		"workload=ep&types=arm-cortex-a9:x",
		"workload=ep&types=arm-cortex-a9:2:wat",
		"workload=ep&types=arm-cortex-a9:2&frontier_only=zebra",
	} {
		if rr := get(t, s, "/v1/enumerate-generic/stream?"+bad); rr.Code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400", bad, rr.Code)
		}
	}
}

// rowSet is a row multiset for delta replay.
func rowSet(rows []string) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[r]++
	}
	return m
}

func TestStreamDeltaCycle(t *testing.T) {
	s := newTestServer(t, Options{})
	bodyFor := func(maxA9 int) string {
		return fmt.Sprintf(`{"workload":"ep","types":[
			{"node":"arm-cortex-a9","max_nodes":%d,"needs_switch":true},
			{"node":"arm-cortex-a15","max_nodes":2,"needs_switch":true},
			{"node":"amd-opteron-k10","max_nodes":2}],
			"frontier_only":true,"delta":true}`, maxA9)
	}

	// First delta query: no predecessor, full mode.
	st1 := parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", bodyFor(2), nil).Body.String())
	if st1.head.Mode != "full" {
		t.Fatalf("first delta stream mode = %q, want full", st1.head.Mode)
	}
	if len(st1.adds)+len(st1.dels) != 0 {
		t.Fatal("full-mode stream carried ops")
	}

	// Same spec, moved bounds: delta mode, ops replaying to the new
	// frontier's exact multiset.
	buf := post(t, s, "/v1/enumerate-generic", strings.Replace(bodyFor(3), `"delta":true`, `"delta":false`, 1))
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered ground truth: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)

	st2 := parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", bodyFor(3), nil).Body.String())
	if st2.head.Mode != "delta" {
		t.Fatalf("second stream mode = %q, want delta", st2.head.Mode)
	}
	if len(st2.rows) != 0 {
		t.Fatalf("delta stream carried %d bare rows", len(st2.rows))
	}
	if st2.trailer == nil || st2.trailer.Adds != len(st2.adds) || st2.trailer.Dels != len(st2.dels) {
		t.Fatalf("trailer op counts %+v vs %d adds / %d dels", st2.trailer, len(st2.adds), len(st2.dels))
	}
	if st2.trailer.Returned != want.Returned {
		t.Fatalf("delta trailer returned %d, buffered %d", st2.trailer.Returned, want.Returned)
	}
	got := rowSet(st1.rows)
	for _, d := range st2.dels {
		got[d]--
		if got[d] < 0 {
			t.Fatalf("delta deletes a row the client does not hold: %s", d)
		}
		if got[d] == 0 {
			delete(got, d)
		}
	}
	for _, a := range st2.adds {
		got[a]++
	}
	wantSet := map[string]int{}
	for _, p := range want.Points {
		wantSet[string(p)]++
	}
	if len(got) != len(wantSet) {
		t.Fatalf("replayed frontier has %d distinct rows, want %d", len(got), len(wantSet))
	}
	for r, n := range wantSet {
		if got[r] != n {
			t.Fatalf("replayed frontier misses %s", r)
		}
	}

	// A profile bump retires the predecessor: next delta query is full.
	if _, err := s.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.25), "test"); err != nil {
		t.Fatal(err)
	}
	st3 := parseNDJSON(t, postStream(t, s, "/v1/enumerate-generic", bodyFor(3), nil).Body.String())
	if st3.head.Mode != "full" {
		t.Fatalf("post-bump stream mode = %q, want full", st3.head.Mode)
	}

	snap := s.reg.Snapshot()
	if snap["heteromixd_delta_hits_total"] < 1 || snap["heteromixd_delta_misses_total"] < 2 {
		t.Fatalf("delta counters: hits=%v misses=%v", snap["heteromixd_delta_hits_total"], snap["heteromixd_delta_misses_total"])
	}
}

func TestStreamDeltaValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	cases := []struct {
		name, body string
		stream     bool
	}{
		{"buffered delta", triBody + `,"frontier_only":true,"delta":true}`, false},
		{"delta without frontier", triBody + `,"delta":true}`, true},
		{"delta with shard slice", triBody + `,"frontier_only":true,"shard":"0/2","delta":true}`, true},
	}
	for _, tc := range cases {
		var rr *httptest.ResponseRecorder
		if tc.stream {
			rr = postStream(t, s, "/v1/enumerate-generic", tc.body, nil)
		} else {
			rr = post(t, s, "/v1/enumerate-generic", tc.body)
		}
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, rr.Code, rr.Body)
		}
	}
}

func TestStreamRejectionsBeforeFirstByte(t *testing.T) {
	s := newTestServer(t, Options{})
	// Normalization failures answer plain statuses — the stream never starts.
	rr := postStream(t, s, "/v1/enumerate-generic", `{"workload":"nope","types":[{"node":"arm-cortex-a9","max_nodes":2}]}`, nil)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d, want 400", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct == "application/x-ndjson" {
		t.Fatal("rejected request negotiated a stream")
	}
}

func TestStreamInBandError(t *testing.T) {
	// A deadline that expires mid-walk can only be reported in-band: the
	// head has shipped. The stream must end with an {"error": ...} record
	// and no trailer.
	s := newTestServer(t, Options{MaxGenericSpace: 5_000_000, RequestTimeout: 5 * time.Millisecond})
	body := `{"workload":"ep","types":[
		{"node":"arm-cortex-a9","max_nodes":4,"needs_switch":true},
		{"node":"arm-cortex-a15","max_nodes":4,"needs_switch":true},
		{"node":"amd-opteron-k10","max_nodes":4}],"limit":100000000}`
	rr := postStream(t, s, "/v1/enumerate-generic", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d (headers were already committed before the deadline)", rr.Code)
	}
	st := parseNDJSON(t, rr.Body.String())
	if st.errMsg == nil {
		t.Fatalf("no terminal error record in: %.200s...", rr.Body.String())
	}
	if st.trailer != nil {
		t.Fatal("errored stream still shipped a trailer")
	}
}

func TestStreamGzip(t *testing.T) {
	s := newTestServer(t, Options{})
	body := triBody + `,"frontier_only":true}`
	plain := postStream(t, s, "/v1/enumerate-generic", body, nil)

	rr := postStream(t, s, "/v1/enumerate-generic", body, map[string]string{"Accept-Encoding": "gzip"})
	if rr.Code != http.StatusOK {
		t.Fatalf("gzip stream: %d", rr.Code)
	}
	if enc := rr.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q", enc)
	}
	zr, err := gzip.NewReader(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(unzipped) != plain.Body.String() {
		t.Fatal("gzipped stream decompresses to different bytes than the plain stream")
	}
}

func TestBufferedGzip(t *testing.T) {
	s := newTestServer(t, Options{})
	// A limited walk, computed again for every request.
	body := triBody + `,"limit":40}`
	plain := post(t, s, "/v1/enumerate-generic", body)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain: %d", plain.Code)
	}
	if len(plain.Body.Bytes()) < gzipMinBytes {
		t.Fatalf("test body too small (%d bytes) to exercise gzip", plain.Body.Len())
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate-generic", strings.NewReader(body))
	req.Header.Set("Accept-Encoding", "gzip")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if enc := rr.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q", enc)
	}
	if got := rr.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("gzip repeat X-Cache %q, want miss: enumerations are never cached", got)
	}
	zr, err := gzip.NewReader(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(unzipped) != plain.Body.String() {
		t.Fatal("gzipped body decompresses to different bytes")
	}

	// Small responses are not worth a gzip frame.
	small := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(`{"workload":"ep","arm":{"nodes":1},"amd":{"nodes":1}}`))
	small.Header.Set("Accept-Encoding", "gzip")
	sr := httptest.NewRecorder()
	s.Handler().ServeHTTP(sr, small)
	if sr.Header().Get("Content-Encoding") == "gzip" {
		t.Fatal("small response was gzipped below gzipMinBytes")
	}
}

func TestAcceptsGzipNegotiation(t *testing.T) {
	cases := []struct {
		hdr  string
		want bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate, br", true},
		{"GZIP", true},
		{"gzip;q=0", false},
		{"gzip;q=0.5", true},
		{"*", true},
		{"*;q=0", false},
		{"identity", false},
		{"deflate, *;q=0.1", true},
		{"gzip;q=0, *;q=1", false}, // explicit gzip entry wins over wildcard
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if tc.hdr != "" {
			r.Header.Set("Accept-Encoding", tc.hdr)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.hdr, got, tc.want)
		}
	}
}

func TestStreamMetricsExposed(t *testing.T) {
	s := newTestServer(t, Options{})
	postStream(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true}`, nil)
	postStream(t, s, "/v1/enumerate-generic", triBody+`,"frontier_only":true,"delta":true}`, nil)

	rr := get(t, s, "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rr.Code)
	}
	text := rr.Body.String()
	for _, name := range []string{
		"heteromixd_stream_rows_total",
		"heteromixd_stream_flushes_total",
		"heteromixd_stream_disconnects_total",
		"heteromixd_delta_hits_total",
		"heteromixd_delta_misses_total",
		"heteromixd_delta_adds_total",
		"heteromixd_delta_dels_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	snap := s.reg.Snapshot()
	if snap["heteromixd_stream_rows_total"] == 0 {
		t.Error("stream_rows_total = 0 after streamed responses")
	}
	if snap["heteromixd_stream_flushes_total"] == 0 {
		t.Error("stream_flushes_total = 0 after streamed responses")
	}
	if snap["heteromixd_delta_misses_total"] == 0 {
		t.Error("delta_misses_total = 0 after a first delta query")
	}
}

// TestStreamFleetDeltaCycle pins the coordinator's streamed delta path:
// predecessors come from complete merges only, so a degraded partial is
// diffed but never becomes the baseline the next query diffs against.
func TestStreamFleetDeltaCycle(t *testing.T) {
	// The kill pattern fails up to ~6 attempts per dead replica; a high
	// breaker threshold keeps the coordinator's replica breakers closed,
	// so the revived fleet answers the last step at once.
	f := newFleet(t, 4, Options{DisableHedge: true, BreakerThreshold: 100}, Options{})
	plain := newTestServer(t, Options{})
	spec := func(maxA9 int) string {
		return fmt.Sprintf(`{"workload":"ep","types":[
			{"node":"arm-cortex-a9","max_nodes":%d,"needs_switch":true},
			{"node":"arm-cortex-a15","max_nodes":2,"needs_switch":true},
			{"node":"amd-opteron-k10","max_nodes":2}],
			"frontier_only":true`, maxA9)
	}
	deltaQuery := func(maxA9, shards int) ndjsonStream {
		t.Helper()
		rr := postStream(t, f.coord, "/v1/enumerate-generic",
			fmt.Sprintf(`%s,"shards":%d,"delta":true}`, spec(maxA9), shards), nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("max_nodes %d, %d shards: %d %s", maxA9, shards, rr.Code, rr.Body)
		}
		return parseNDJSON(t, rr.Body.String())
	}
	frontierOf := func(maxA9 int) map[string]int {
		t.Helper()
		buf := post(t, plain, "/v1/enumerate-generic", spec(maxA9)+"}")
		if buf.Code != http.StatusOK {
			t.Fatalf("buffered ground truth: %d %s", buf.Code, buf.Body)
		}
		m := map[string]int{}
		for _, p := range decodeBody[rawGenericResponse](t, buf).Points {
			m[string(p)]++
		}
		return m
	}
	replay := func(held map[string]int, st ndjsonStream) map[string]int {
		t.Helper()
		got := map[string]int{}
		for r, n := range held {
			got[r] = n
		}
		for _, d := range st.dels {
			got[d]--
			if got[d] < 0 {
				t.Fatalf("delta deletes a row the client does not hold: %s", d)
			}
			if got[d] == 0 {
				delete(got, d)
			}
		}
		for _, a := range st.adds {
			got[a]++
		}
		return got
	}
	sameSet := func(what string, got, want map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: replayed frontier has %d distinct rows, want %d", what, len(got), len(want))
		}
		for r, n := range want {
			if got[r] != n {
				t.Fatalf("%s: replayed frontier misses %s", what, r)
			}
		}
	}

	// 1. No predecessor yet: the first sharded delta stream is full.
	st1 := deltaQuery(2, 4)
	if st1.head.Mode != "full" || st1.head.Shards != 4 {
		t.Fatalf("first stream head = %+v, want mode full over 4 shards", st1.head)
	}
	if len(st1.adds)+len(st1.dels) != 0 || st1.trailer == nil || st1.trailer.Degraded {
		t.Fatalf("first stream: %d ops, trailer %+v", len(st1.adds)+len(st1.dels), st1.trailer)
	}
	sameSet("full stream", rowSet(st1.rows), frontierOf(2))

	// 2. Moved bounds: ops replay to the buffered unsharded frontier.
	st2 := deltaQuery(3, 4)
	if st2.head.Mode != "delta" || len(st2.rows) != 0 {
		t.Fatalf("re-query head mode %q with %d bare rows, want delta with none", st2.head.Mode, len(st2.rows))
	}
	if st2.trailer == nil || st2.trailer.Degraded ||
		st2.trailer.Adds != len(st2.adds) || st2.trailer.Dels != len(st2.dels) {
		t.Fatalf("re-query trailer %+v vs %d adds / %d dels", st2.trailer, len(st2.adds), len(st2.dels))
	}
	complete := replay(rowSet(st1.rows), st2)
	sameSet("delta re-query", complete, frontierOf(3))

	// 3. A partial merge is marked degraded and diffed, but not stored.
	const shards = 8
	alive, expectFailed := partialKillPlan(f, shards)
	if alive < 0 {
		t.Skip("every shard's top-2 walk contains every replica (astronomically unlikely)")
	}
	for i := range f.chaos {
		if i != alive {
			f.chaos[i].Kill()
		}
	}
	st3 := deltaQuery(4, shards)
	if st3.trailer == nil || !st3.trailer.Degraded ||
		fmt.Sprint(st3.trailer.FailedShards) != fmt.Sprint(expectFailed) {
		t.Fatalf("partial merge trailer = %+v, want degraded with failed_shards %v", st3.trailer, expectFailed)
	}
	if st3.head.Mode != "delta" {
		t.Fatalf("partial merge head mode %q, want delta", st3.head.Mode)
	}

	// 4. After the revive, the next query diffs against the last complete
	// merge (bounds 3), not the partial one.
	for i := range f.chaos {
		f.chaos[i].Revive()
	}
	st4 := deltaQuery(4, 4)
	if st4.head.Mode != "delta" || st4.trailer == nil || st4.trailer.Degraded {
		t.Fatalf("post-revive head %+v trailer %+v", st4.head, st4.trailer)
	}
	sameSet("post-revive delta", replay(complete, st4), frontierOf(4))
}
