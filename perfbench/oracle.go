package main

// The correctness oracle: a seeded sample of each workload's responses
// is recomputed in-process from the same suite seed the daemons fit
// with, through the direct reference paths — cluster.Space.Evaluate for
// predictions, GenericTable.Frontier / Table.Frontier for frontiers —
// and fleet merges are compared byte for byte with the unsharded answer
// of a local in-process server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"

	"heteromix/internal/cluster"
	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/server"
)

type oracle struct {
	suite  *experiments.Suite
	local  *server.Server
	pruned map[string]*cluster.GenericTable
	names  []string
	// skipped counts sampled reads of the refit workload, whose profile
	// moves under the writes and so has no fixed reference.
	skipped int
}

func newOracle(suite *experiments.Suite) (*oracle, error) {
	local, err := server.New(server.Options{Models: suite})
	if err != nil {
		return nil, err
	}
	return &oracle{suite: suite, local: local, pruned: make(map[string]*cluster.GenericTable), names: triNames()}, nil
}

func (o *oracle) close() { o.local.Close() }

func triNames() []string {
	var out []string
	for _, t := range triTypes {
		out = append(out, t.Node)
	}
	return out
}

// triGroupTypes resolves the canonical tri-cluster types for a workload
// from the suite's base models.
func triGroupTypes(suite *experiments.Suite, workload string) ([]cluster.GroupType, error) {
	var out []cluster.GroupType
	for _, t := range triTypes {
		spec, err := hwsim.ByName(t.Node)
		if err != nil {
			return nil, err
		}
		nm, err := suite.Model(workload, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, cluster.GroupType{Model: nm, MaxNodes: t.MaxNodes, NeedsSwitch: t.NeedsSwitch})
	}
	return out, nil
}

// prunedTriTable compiles the domination-pruned tri-cluster table, the
// one frontier requests walk.
func prunedTriTable(suite *experiments.Suite, workload string) (*cluster.GenericTable, error) {
	types, err := triGroupTypes(suite, workload)
	if err != nil {
		return nil, err
	}
	pt, err := cluster.PruneGroupTypes(types)
	if err != nil {
		return nil, err
	}
	return cluster.NewGenericTable(pt)
}

func (o *oracle) prunedTable(workload string) (*cluster.GenericTable, error) {
	if t, ok := o.pruned[workload]; ok {
		return t, nil
	}
	t, err := prunedTriTable(o.suite, workload)
	if err != nil {
		return nil, err
	}
	o.pruned[workload] = t
	return t, nil
}

// check verifies one sampled response.
func (o *oracle) check(c sampleCheck) error {
	switch c.req.kind {
	case kindPredict:
		return o.checkPredict(c)
	case kindGeneric, kindGenericNDJ:
		return o.checkGeneric(c)
	case kindTwoType:
		return o.checkTwoType(c)
	case kindFleet:
		if err := o.checkGeneric(c); err != nil {
			return err
		}
		return o.checkFleetBytes(c)
	}
	return fmt.Errorf("no oracle for kind %q", c.req.kind)
}

func closeRel(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func (o *oracle) checkPredict(c sampleCheck) error {
	var req server.PredictRequest
	if err := json.Unmarshal(c.req.body, &req); err != nil {
		return err
	}
	if req.Workload == refitWorkload {
		o.skipped++
		return nil
	}
	space, err := o.suite.Space(req.Workload)
	if err != nil {
		return err
	}
	var cfg cluster.Configuration
	cfg.ARM = cluster.TypeConfig{Nodes: req.ARM.Nodes, Config: maxConfig(space.ARM.Spec)}
	if req.AMD.Nodes > 0 {
		cfg.AMD = cluster.TypeConfig{Nodes: req.AMD.Nodes, Config: maxConfig(space.AMD.Spec)}
	}
	p, err := space.Evaluate(cfg, req.Work)
	if err != nil {
		return err
	}
	want := p.Summary()
	var got server.PredictResponse
	if err := json.Unmarshal(c.body, &got); err != nil {
		return fmt.Errorf("decoding predict answer: %w", err)
	}
	g := got.Point
	if g.ARMNodes != want.ARMNodes || g.AMDNodes != want.AMDNodes || g.ARMCores != want.ARMCores ||
		g.AMDCores != want.AMDCores || g.ARMGHz != want.ARMGHz || g.AMDGHz != want.AMDGHz ||
		g.Label != want.Label || !closeRel(g.TimeSeconds, want.TimeSeconds) ||
		!closeRel(g.EnergyJoules, want.EnergyJoules) || !closeRel(g.WorkARMFraction, want.WorkARMFraction) {
		return fmt.Errorf("predict %s: got %+v, direct Evaluate gives %+v", c.req.body, g, want)
	}
	return nil
}

func maxConfig(spec hwsim.NodeSpec) hwsim.Config {
	return hwsim.Config{Cores: spec.Cores, Frequency: spec.FMax()}
}

// answerRows returns the encoded frontier rows of a buffered or NDJSON
// answer, one JSON object each.
func answerRows(kind string, body []byte) ([][]byte, error) {
	if kind == kindGenericNDJ {
		lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
		if len(lines) < 2 || !bytes.HasPrefix(lines[0], []byte(`{"head":`)) {
			return nil, fmt.Errorf("malformed stream")
		}
		return lines[1 : len(lines)-1], nil
	}
	var resp struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding frontier answer: %w", err)
	}
	rows := make([][]byte, len(resp.Points))
	for i, p := range resp.Points {
		rows[i] = p
	}
	return rows, nil
}

func compareRows(what string, got [][]byte, want []any) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d frontier rows, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		w, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got[i], w) {
			return fmt.Errorf("%s: row %d differs:\n got %s\nwant %s", what, i, got[i], w)
		}
	}
	return nil
}

func (o *oracle) checkGeneric(c sampleCheck) error {
	var req server.EnumerateGenericRequest
	if err := json.Unmarshal(c.req.body, &req); err != nil {
		return err
	}
	tbl, err := o.prunedTable(req.Workload)
	if err != nil {
		return err
	}
	pts, _, err := tbl.Frontier(req.Work)
	if err != nil {
		return err
	}
	want := make([]any, len(pts))
	for i, p := range pts {
		want[i] = p.Summary(o.names)
	}
	got, err := answerRows(c.req.kind, c.body)
	if err != nil {
		return err
	}
	return compareRows(c.req.kind+" "+req.Workload, got, want)
}

func (o *oracle) checkTwoType(c sampleCheck) error {
	var req server.EnumerateRequest
	if err := json.Unmarshal(c.req.body, &req); err != nil {
		return err
	}
	tbl, err := o.suite.Table(req.Workload, false)
	if err != nil {
		return err
	}
	pts, _, err := tbl.Frontier(req.MaxARM, req.MaxAMD, req.Work)
	if err != nil {
		return err
	}
	want := make([]any, len(pts))
	for i, p := range pts {
		want[i] = p.Summary()
	}
	got, err := answerRows(c.req.kind, c.body)
	if err != nil {
		return err
	}
	return compareRows("frontier_2type "+req.Workload, got, want)
}

// checkFleetBytes compares a fleet merge with the unsharded answer of
// the local in-process server, byte for byte.
func (o *oracle) checkFleetBytes(c sampleCheck) error {
	var req server.EnumerateGenericRequest
	if err := json.Unmarshal(c.req.body, &req); err != nil {
		return err
	}
	req.Shards = 0
	rec := httptest.NewRecorder()
	o.local.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/enumerate-generic", bytes.NewReader(mustJSON(req))))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("local unsharded answer: status %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), c.body) {
		return fmt.Errorf("fleet merge differs from the unsharded local answer (%d vs %d bytes)", len(c.body), rec.Body.Len())
	}
	return nil
}
