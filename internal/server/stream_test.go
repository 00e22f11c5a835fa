package server

// Tests for the streaming wire layer: NDJSON negotiation, SSE, framing,
// byte-identity with the buffered responses, frontier deltas, gzip and
// the stream metrics.

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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

// TestStreamFleetMatchesBuffered: a streamed fan-out emits one progress
// record per shard and the rows a buffered answer carries; once that
// fan-out has folded the spec's candidate set, the buffered answer and a
// streamed repeat come from the coordinator's own set, and the repeat
// emits no progress records.
func TestStreamFleetMatchesBuffered(t *testing.T) {
	f := newFleet(t, 3, Options{}, Options{})
	body := fleetShardedBody(3)
	rr := postStream(t, f.coord, "/v1/enumerate-generic", body, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("streamed fleet: %d %s", rr.Code, rr.Body)
	}
	buf := post(t, f.coord, "/v1/enumerate-generic", body)
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered fleet: %d %s", buf.Code, buf.Body)
	}
	want := decodeBody[rawGenericResponse](t, buf)
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

	warm := parseNDJSON(t, postStream(t, f.coord, "/v1/enumerate-generic", body, nil).Body.String())
	sameRows(t, "warm repeat", warm.rows, want.Points)
	if len(warm.progress) != 0 || warm.head.Shards != 3 || warm.trailer == nil || warm.trailer.Returned != want.Returned {
		t.Fatalf("warm repeat: head %+v, %d progress records, trailer %+v; want no progress", warm.head, len(warm.progress), warm.trailer)
	}
	if fo, local := f.coord.fleetFanouts.Value(), f.coord.fleetLocalAnswers.Value(); fo != 1 || local != 2 {
		t.Fatalf("%d fan-outs and %d local answers, want 1 and 2", fo, local)
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

// frontierSet is the buffered frontier of spec (a generic body without
// its closing brace) on s: the ground truth a delta client must hold.
func frontierSet(t *testing.T, s *Server, spec string) map[string]int {
	t.Helper()
	buf := post(t, s, "/v1/enumerate-generic", spec+"}")
	if buf.Code != http.StatusOK {
		t.Fatalf("buffered ground truth: %d %s", buf.Code, buf.Body)
	}
	m := map[string]int{}
	for _, p := range decodeBody[rawGenericResponse](t, buf).Points {
		m[string(p)]++
	}
	return m
}

func sameRowSet(t *testing.T, what string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: client holds %d distinct rows, want %d", what, len(got), len(want))
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("%s: client frontier misses %s", what, r)
		}
	}
}

// deltaClient is one delta consumer: the rows it holds and the base
// token naming them. It replays every delta onto the rows it holds, so
// a del of a row it does not hold fails the test.
type deltaClient struct {
	t    *testing.T
	s    *Server
	held map[string]int
	base string
}

// body is the delta request for spec (a generic body without its
// closing brace), carrying the client's token when it has one.
func (c *deltaClient) body(spec string) string {
	if c.base == "" {
		return spec + `,"delta":true}`
	}
	return fmt.Sprintf(`%s,"delta":true,"since":%q}`, spec, c.base)
}

// poll streams spec and applies the answer.
func (c *deltaClient) poll(spec string) ndjsonStream {
	c.t.Helper()
	rr := postStream(c.t, c.s, "/v1/enumerate-generic", c.body(spec), nil)
	if rr.Code != http.StatusOK {
		c.t.Fatalf("delta poll: %d %s", rr.Code, rr.Body)
	}
	st := parseNDJSON(c.t, rr.Body.String())
	c.apply(st)
	return st
}

// apply replays a stream onto the held rows. Only a complete stream
// replaces them: a degraded fleet partial is shown, not kept, and a
// stream cut before its trailer never fully arrived.
func (c *deltaClient) apply(st ndjsonStream) {
	c.t.Helper()
	if st.trailer == nil || st.trailer.Degraded {
		return
	}
	if st.head.Mode == "full" {
		if len(st.adds)+len(st.dels) != 0 {
			c.t.Fatal("full-mode stream carried ops")
		}
		c.held = rowSet(st.rows)
	} else {
		if len(st.rows) != 0 {
			c.t.Fatalf("delta stream carried %d bare rows", len(st.rows))
		}
		if st.trailer.Adds != len(st.adds) || st.trailer.Dels != len(st.dels) {
			c.t.Fatalf("trailer op counts %+v vs %d adds / %d dels", st.trailer, len(st.adds), len(st.dels))
		}
		held := map[string]int{}
		for r, n := range c.held {
			held[r] = n
		}
		for _, d := range st.dels {
			if held[d]--; held[d] < 0 {
				c.t.Fatalf("delta deletes a row the client does not hold: %s", d)
			}
			if held[d] == 0 {
				delete(held, d)
			}
		}
		for _, a := range st.adds {
			held[a]++
		}
		c.held = held
	}
	c.base = st.trailer.Base
}

// deltaSpec is the tri-cluster frontier spec with the A9 bound moved.
func deltaSpec(maxA9 int) string {
	return fmt.Sprintf(`{"workload":"ep","types":[
		{"node":"arm-cortex-a9","max_nodes":%d,"needs_switch":true},
		{"node":"arm-cortex-a15","max_nodes":2,"needs_switch":true},
		{"node":"amd-opteron-k10","max_nodes":2}],
		"frontier_only":true`, maxA9)
}

func TestStreamDeltaCycle(t *testing.T) {
	s := newTestServer(t, Options{})
	c := &deltaClient{t: t, s: s}

	// First delta query: no token, full mode, and a base naming the spec.
	st1 := c.poll(deltaSpec(2))
	if st1.head.Mode != "full" {
		t.Fatalf("first delta stream mode = %q, want full", st1.head.Mode)
	}
	_, digest := s.calib.Profile("ep")
	token2 := fmt.Sprintf("ep@v1/%x/50000000/arm-cortex-a9:2:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2", digest)
	if c.base != token2 {
		t.Fatalf("trailer base = %q, want %q", c.base, token2)
	}

	// Same spec, moved bounds: delta mode, ops replaying to the new
	// frontier's exact multiset.
	st2 := c.poll(deltaSpec(3))
	if st2.head.Mode != "delta" {
		t.Fatalf("second stream mode = %q, want delta", st2.head.Mode)
	}
	if len(st2.adds)+len(st2.dels) == 0 {
		t.Fatal("moving a bound shipped no ops")
	}
	want := frontierSet(t, s, deltaSpec(3))
	if st2.trailer.Returned != len(want) {
		t.Fatalf("delta trailer returned %d, buffered %d", st2.trailer.Returned, len(want))
	}
	sameRowSet(t, "delta re-query", c.held, want)

	// An unchanged poll ships zero ops.
	if st := c.poll(deltaSpec(3)); st.head.Mode != "delta" || len(st.adds)+len(st.dels) != 0 {
		t.Fatalf("unchanged poll: mode %q with %d ops, want delta with none", st.head.Mode, len(st.adds)+len(st.dels))
	}

	// The SSE spelling takes the token as a query parameter.
	q := url.Values{
		"workload": {"ep"}, "types": {"arm-cortex-a9:2:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2"},
		"frontier_only": {"1"}, "delta": {"1"}, "since": {c.base},
	}
	sse := get(t, s, "/v1/enumerate-generic/stream?"+q.Encode())
	if sse.Code != http.StatusOK || !strings.Contains(sse.Body.String(), `"mode":"delta"`) ||
		!strings.Contains(sse.Body.String(), `"base":"`+token2+`"`) {
		t.Fatalf("SSE delta with since: %d %s", sse.Code, sse.Body)
	}

	// A profile bump retires the token: the next poll is full.
	if _, err := s.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", 1.25), "test"); err != nil {
		t.Fatal(err)
	}
	if st := c.poll(deltaSpec(3)); st.head.Mode != "full" || !strings.HasPrefix(c.base, "ep@v2/") {
		t.Fatalf("post-bump stream mode = %q, base %q; want full at v2", st.head.Mode, c.base)
	}
	sameRowSet(t, "post-bump full stream", c.held, frontierSet(t, s, deltaSpec(3)))

	snap := s.reg.Snapshot()
	if snap["heteromixd_delta_hits_total"] != 3 || snap["heteromixd_delta_misses_total"] != 2 {
		t.Fatalf("delta counters: hits=%v misses=%v, want 3/2", snap["heteromixd_delta_hits_total"], snap["heteromixd_delta_misses_total"])
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("delta streams left %d result-cache entries", n)
	}
}

// TestStreamDeltaTwoClients: two clients on one reduced key (same types
// and switch flags, other bounds) interleave their polls. Each delta is
// against the frontier that client holds, never the other's.
func TestStreamDeltaTwoClients(t *testing.T) {
	s := newTestServer(t, Options{})
	a := &deltaClient{t: t, s: s}
	b := &deltaClient{t: t, s: s}
	a.poll(deltaSpec(2))
	if st := b.poll(deltaSpec(4)); st.head.Mode != "full" {
		t.Fatalf("a first-time client got mode %q, want full", st.head.Mode)
	}
	sameRowSet(t, "client B", b.held, frontierSet(t, s, deltaSpec(4)))
	a.poll(deltaSpec(3))
	sameRowSet(t, "client A", a.held, frontierSet(t, s, deltaSpec(3)))
	b.poll(deltaSpec(2))
	sameRowSet(t, "client B again", b.held, frontierSet(t, s, deltaSpec(2)))
	a.poll(deltaSpec(4))
	sameRowSet(t, "client A again", a.held, frontierSet(t, s, deltaSpec(4)))
}

// TestStreamDeltaTokenNamesModels: a token names the models its
// frontier was computed under, not only the per-process profile
// version. Two servers bumped to v2 with other models answer each
// other's tokens in full, both for the spec the token names and for
// moved bounds; a server that installed the same model, as one
// restarted and refit alike would, answers a delta.
func TestStreamDeltaTokenNamesModels(t *testing.T) {
	bumped := func(scale float64) *Server {
		s := newTestServer(t, Options{})
		if _, err := s.calib.Install("ep", "arm-cortex-a9", perturbedModel(t, "ep", "arm-cortex-a9", scale), "test"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, other, same := bumped(1.25), bumped(1.5), bumped(1.25)
	held := &deltaClient{t: t, s: a}
	held.poll(deltaSpec(2))
	if !strings.HasPrefix(held.base, "ep@v2/") {
		t.Fatalf("base %q, want one at v2", held.base)
	}
	for _, spec := range []string{deltaSpec(2), deltaSpec(3)} {
		c := *held
		c.s = other
		if st := c.poll(spec); st.head.Mode != "full" {
			t.Fatalf("another model's token answered mode %q, want full", st.head.Mode)
		}
		sameRowSet(t, "other models", c.held, frontierSet(t, other, spec))
	}
	c := *held
	c.s = same
	if st := c.poll(deltaSpec(3)); st.head.Mode != "delta" {
		t.Fatalf("the same models' token answered mode %q, want delta", st.head.Mode)
	}
	sameRowSet(t, "same models", c.held, frontierSet(t, same, deltaSpec(3)))
}

// hangUpWriter is a client that hangs up once the head has arrived:
// with one record per flush, every later write fails.
type hangUpWriter struct {
	discardFlusher
	got    strings.Builder
	writes int
}

func (w *hangUpWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errors.New("client hung up")
	}
	return w.got.Write(p)
}

// TestStreamDeltaHangUpRepoll: a client that hangs up while a delta's
// ops are being emitted holds only what it held before, and re-polls
// with its old token. Its next delta must be against that frontier, not
// the one the interrupted stream computed.
func TestStreamDeltaHangUpRepoll(t *testing.T) {
	s := newTestServer(t, Options{StreamFlushBytes: 1})
	c := &deltaClient{t: t, s: s}
	c.poll(deltaSpec(2))

	req := httptest.NewRequest(http.MethodPost, "/v1/enumerate-generic", strings.NewReader(c.body(deltaSpec(4))))
	req.Header.Set("Accept", "application/x-ndjson")
	w := &hangUpWriter{}
	s.Handler().ServeHTTP(w, req)
	cut := parseNDJSON(t, w.got.String())
	if cut.head.Mode != "delta" || cut.trailer != nil || len(cut.adds)+len(cut.dels) != 0 {
		t.Fatalf("the hung-up client received %q, want only a delta head", w.got.String())
	}
	c.apply(cut)
	sameRowSet(t, "after the hang-up", c.held, frontierSet(t, s, deltaSpec(2)))

	c.poll(deltaSpec(4))
	sameRowSet(t, "re-poll", c.held, frontierSet(t, s, deltaSpec(4)))
}

// TestStreamDeltaValidation: delta misuse, and a since token that does
// not parse or names a spec no request could make, are a 400 before the
// first byte; a well-formed token of another workload, type list or
// profile version answers a full stream.
func TestStreamDeltaValidation(t *testing.T) {
	spec := deltaSpec(2)
	// The guard admits the request's pruned space and nothing larger.
	guard := decodeBody[rawGenericResponse](t, post(t, newTestServer(t, Options{}), "/v1/enumerate-generic", spec+"}")).PrunedSize
	s := newTestServer(t, Options{MaxGenericSpace: guard})
	since := func(tok string) string { return fmt.Sprintf(`%s,"delta":true,"since":%q}`, spec, tok) }
	_, digest := s.calib.Profile("ep")
	v1 := fmt.Sprintf("ep@v1/%x/", digest)
	const types = "/arm-cortex-a9:2:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2"
	cases := []struct {
		name, body string
		stream     bool
		mode       string // "" wants a 400
	}{
		{"buffered delta", triBody + `,"frontier_only":true,"delta":true}`, false, ""},
		{"delta without frontier", triBody + `,"delta":true}`, true, ""},
		{"delta with shard slice", triBody + `,"frontier_only":true,"shard":"0/2","delta":true}`, true, ""},
		{"buffered delta with since", since(v1 + "50000000" + types), false, ""},
		{"since without delta", fmt.Sprintf(`%s,"since":%q}`, spec, v1+"50000000"+types), true, ""},
		{"truncated token", since(v1 + "50000000"), true, ""},
		{"token without digest", since("ep@v1/50000000" + types), true, ""},
		{"non-numeric version", since("ep@vX/0/50000000" + types), true, ""},
		{"non-hex digest", since("ep@v1/xyz/50000000" + types), true, ""},
		{"NaN work", since(v1 + "NaN" + types), true, ""},
		{"negative work", since(v1 + "-5" + types), true, ""},
		{"overflowing work", since(v1 + "1e999" + types), true, ""},
		{"bounds past max_nodes", since(v1 + "50000000/arm-cortex-a9:999:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2"), true, ""},
		{"space past the guard", since(v1 + "50000000/arm-cortex-a9:3:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2"), true, ""},
		{"retired version", since(fmt.Sprintf("ep@v7/%x/50000000", digest) + types), true, "full"},
		{"other models", since(fmt.Sprintf("ep@v1/%x/50000000", digest+1) + types), true, "full"},
		{"foreign workload", since(fmt.Sprintf("memcached@v1/%x/50000", digest) + types), true, "full"},
		{"unknown node", since(v1 + "50000000/intel-xeon:2,arm-cortex-a15:2:switch,amd-opteron-k10:2"), true, "full"},
		{"other switch flags", since(v1 + "50000000/arm-cortex-a9:2,arm-cortex-a15:2:switch,amd-opteron-k10:2"), true, "full"},
		{"fewer types", since(v1 + "50000000/arm-cortex-a9:2:switch"), true, "full"},
		{"other bounds", since(v1 + "50000000/arm-cortex-a9:1:switch,arm-cortex-a15:2:switch,amd-opteron-k10:2"), true, "delta"},
		{"own spec", since(v1 + "50000000" + types), true, "delta"},
	}
	for _, tc := range cases {
		var rr *httptest.ResponseRecorder
		if tc.stream {
			rr = postStream(t, s, "/v1/enumerate-generic", tc.body, nil)
		} else {
			rr = post(t, s, "/v1/enumerate-generic", tc.body)
		}
		if tc.mode == "" {
			if rr.Code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400: %s", tc.name, rr.Code, rr.Body)
			}
			continue
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, rr.Code, rr.Body)
		}
		if st := parseNDJSON(t, rr.Body.String()); st.head.Mode != tc.mode {
			t.Errorf("%s: mode %q, want %q", tc.name, st.head.Mode, tc.mode)
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

// candidateCount is the size of spec's candidate set on a fresh plain
// server: what a repeat of its frontier evaluates there.
func candidateCount(t *testing.T, spec string) uint64 {
	t.Helper()
	s := newTestServer(t, Options{})
	frontierSet(t, s, spec)
	before := s.genericPoints.Value()
	frontierSet(t, s, spec)
	n := s.genericPoints.Value() - before
	if n == 0 {
		t.Fatal("a repeat frontier evaluated no points")
	}
	return n
}

// TestStreamFleetDeltaCycle pins the coordinator's streamed delta path:
// a base the coordinator has folded is answered from its own candidate
// set, with no fan-out for it, so the coordinator evaluates only
// candidates and never walks; only complete merges carry a base token, so
// a degraded partial never becomes the base the next query diffs against.
func TestStreamFleetDeltaCycle(t *testing.T) {
	// The kill pattern fails up to ~6 attempts per dead replica; a high
	// breaker threshold keeps the coordinator's replica breakers closed,
	// so the revived fleet answers the last step at once.
	f := newFleet(t, 4, Options{DisableHedge: true, BreakerThreshold: 100}, Options{})
	plain := newTestServer(t, Options{})
	c := &deltaClient{t: t, s: f.coord}
	sharded := func(maxA9, shards int) string {
		return fmt.Sprintf(`%s,"shards":%d`, deltaSpec(maxA9), shards)
	}
	// step polls spec and checks that it fanned out once, for the spec
	// itself, and answered its base, if any, from the coordinator's set.
	step := func(name, spec string, localBase bool) ndjsonStream {
		t.Helper()
		fanouts, local := f.coord.fleetFanouts.Value(), f.coord.fleetLocalAnswers.Value()
		st := c.poll(spec)
		wantLocal := local
		if localBase {
			wantLocal++
		}
		if fo, l := f.coord.fleetFanouts.Value(), f.coord.fleetLocalAnswers.Value(); fo != fanouts+1 || l != wantLocal {
			t.Fatalf("%s: fan-outs %d -> %d, local answers %d -> %d; want one fan-out and %d local answers",
				name, fanouts, fo, local, l, wantLocal-local)
		}
		return st
	}
	// walked is what the coordinator has evaluated so far, and evaluated
	// what it may have: the candidate sets of the bases it answered.
	var evaluated uint64
	walked := func(name string) {
		t.Helper()
		if n := f.coord.genericPoints.Value(); n != evaluated {
			t.Fatalf("%s: the coordinator evaluated %d points, want %d (its bases' candidate sets only)", name, n, evaluated)
		}
	}

	// 1. No token yet: the first sharded delta stream is full.
	st1 := step("first stream", sharded(2, 4), false)
	if st1.head.Mode != "full" || st1.head.Shards != 4 || st1.trailer.Degraded || c.base == "" {
		t.Fatalf("first stream head = %+v, trailer %+v; want mode full over 4 shards with a base", st1.head, st1.trailer)
	}
	sameRowSet(t, "full stream", c.held, frontierSet(t, plain, deltaSpec(2)))
	walked("first stream")

	// 2. Moved bounds: the base (bounds 2) was folded by step 1, so only
	// the new spec fans out, and ops replay to the buffered unsharded
	// frontier.
	if st2 := step("re-query", sharded(3, 4), true); st2.head.Mode != "delta" || st2.trailer.Degraded {
		t.Fatalf("re-query head %+v trailer %+v, want a complete delta", st2.head, st2.trailer)
	}
	sameRowSet(t, "delta re-query", c.held, frontierSet(t, plain, deltaSpec(3)))
	evaluated += candidateCount(t, deltaSpec(2))
	walked("re-query")
	complete := c.base

	// 3. With shards down, the base (bounds 3, folded by step 2) is still
	// answered locally, so the stream is a delta; the new spec fans out
	// only in part, so its merge is marked degraded and carries no base:
	// the client shows it without keeping it, and keeps the last complete
	// merge and its token.
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
	st3 := step("partial merge", sharded(4, shards), true)
	if st3.trailer == nil || !st3.trailer.Degraded ||
		fmt.Sprint(st3.trailer.FailedShards) != fmt.Sprint(expectFailed) {
		t.Fatalf("partial merge trailer = %+v, want degraded with failed_shards %v", st3.trailer, expectFailed)
	}
	if st3.head.Mode != "delta" || st3.trailer.Base != "" || c.base != complete {
		t.Fatalf("partial merge head mode %q, base %q; want delta with no base", st3.head.Mode, st3.trailer.Base)
	}
	evaluated += candidateCount(t, deltaSpec(3))
	walked("partial merge")

	// 4. After the revive, the client's token makes the next query diff
	// against the last complete merge (bounds 3), not the partial one;
	// the partial folded nothing, so bounds 4 fans out again.
	for i := range f.chaos {
		f.chaos[i].Revive()
	}
	if st4 := step("post-revive", sharded(4, 4), true); st4.head.Mode != "delta" || st4.trailer == nil || st4.trailer.Degraded {
		t.Fatalf("post-revive head %+v trailer %+v", st4.head, st4.trailer)
	}
	sameRowSet(t, "post-revive delta", c.held, frontierSet(t, plain, deltaSpec(4)))
	evaluated += candidateCount(t, deltaSpec(3))
	walked("post-revive")
}
