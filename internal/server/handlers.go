package server

// Request decoding, validation and the endpoint handlers. The contract
// the fuzz tests pin down: any malformed, unknown-field, non-finite,
// negative or out-of-range input is answered with a 400 and a JSON
// error body — never a 500, never a panic. Valid requests are
// canonicalized (defaults applied, frequencies resolved to exact
// P-states) before they become cache keys, so equivalent requests share
// one cache entry.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"heteromix/internal/budget"
	"heteromix/internal/buildinfo"
	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/lru"
	"heteromix/internal/queueing"
	"heteromix/internal/resilience"
	"heteromix/internal/units"
	"heteromix/internal/workloads"
)

// maxWork bounds accepted work volumes; beyond this the float arithmetic
// is still fine but the request is nonsense.
const maxWork = 1e15

// errorResponse is every error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Marshaling our own response types cannot fail; guard anyway.
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeRaw writes pre-marshaled JSON (the cached fast path).
func writeRaw(w http.ResponseWriter, body []byte, cached bool) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if cached {
		h.Set("X-Cache", "hit")
	} else {
		h.Set("X-Cache", "miss")
	}
	w.Write(body)
}

// decode reads and unmarshals the request body into T, rejecting
// unknown fields. ok=false means an error status was already written:
// 413 when the body exceeds MaxBodyBytes, 400 for everything else.
func decode[T any](s *Server, w http.ResponseWriter, r *http.Request) (T, bool) {
	var req T
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.opts.MaxBodyBytes)
			return req, false
		}
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return req, false
	}
	// Trailing garbage after the JSON document is also a client error.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, "invalid request body: trailing data")
		return req, false
	}
	return req, true
}

// badRequest is a validation failure destined for a 400.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return badRequest{msg: fmt.Sprintf(format, args...)}
}

// replyError maps a handler error to a status: validation failures are
// 400, a profile-version conflict 409 (retryable: the caller re-reads
// the active version), an open circuit breaker or a timeout 503,
// anything else 500.
func replyError(w http.ResponseWriter, r *http.Request, err error) {
	var br badRequest
	var pc errProfileConflict
	switch {
	case errors.As(err, &br):
		writeError(w, http.StatusBadRequest, "%s", br.msg)
	case errors.As(err, &pc):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, resilience.ErrOpen), errors.Is(err, errFleetUnavailable):
		// The compute path is known-bad and nothing cached could stand in;
		// tell the client when the breaker will admit a probe. A fleet
		// fan-out with every shard down is the same situation, not a
		// server bug, so it maps to 503 too.
		w.Header().Set("Retry-After", shedRetryAfter())
		writeError(w, http.StatusServiceUnavailable, "temporarily unavailable: %v", err)
	case r.Context().Err() != nil:
		writeError(w, http.StatusServiceUnavailable, "request timed out: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// validWorkload resolves the workload name, defaulting the work volume
// from the registry's analysis size.
func validWorkload(name string, work float64) (workloads.Spec, float64, error) {
	if name == "" {
		return workloads.Spec{}, 0, badRequestf("workload is required (one of %v)", workloads.Names())
	}
	spec, err := workloads.ByName(name)
	if err != nil {
		return workloads.Spec{}, 0, badRequestf("unknown workload %q (one of %v)", name, workloads.Names())
	}
	if work == 0 {
		work = spec.AnalysisUnits
	}
	if math.IsNaN(work) || math.IsInf(work, 0) || work <= 0 || work > maxWork {
		return workloads.Spec{}, 0, badRequestf("work must be in (0, %g], got %v", maxWork, work)
	}
	return spec, work, nil
}

// GroupRequest selects one node type's share of a configuration.
type GroupRequest struct {
	// Nodes is the node count; 0 leaves the type unused.
	Nodes int `json:"nodes"`
	// Cores per node; 0 selects the spec's maximum.
	Cores int `json:"cores,omitempty"`
	// GHz is the core clock; 0 selects the spec's maximum P-state.
	GHz float64 `json:"ghz,omitempty"`
}

// resolveGroup validates and canonicalizes one side against its spec:
// defaults applied, the frequency snapped to an exact P-state.
func (s *Server) resolveGroup(side string, g GroupRequest, spec hwsim.NodeSpec) (GroupRequest, hwsim.Config, error) {
	if g.Nodes < 0 || g.Nodes > s.opts.MaxNodes {
		return g, hwsim.Config{}, badRequestf("%s.nodes must be in [0, %d], got %d", side, s.opts.MaxNodes, g.Nodes)
	}
	if g.Nodes == 0 {
		if g.Cores != 0 || g.GHz != 0 {
			return g, hwsim.Config{}, badRequestf("%s has settings but zero nodes", side)
		}
		return GroupRequest{}, hwsim.Config{}, nil
	}
	if g.Cores == 0 {
		g.Cores = spec.Cores
	}
	if g.Cores < 1 || g.Cores > spec.Cores {
		return g, hwsim.Config{}, badRequestf("%s.cores must be in [1, %d], got %d", side, spec.Cores, g.Cores)
	}
	if math.IsNaN(g.GHz) || math.IsInf(g.GHz, 0) || g.GHz < 0 {
		return g, hwsim.Config{}, badRequestf("%s.ghz must be a non-negative finite number", side)
	}
	var freq units.Hertz
	if g.GHz == 0 {
		freq = spec.FMax()
	} else {
		want := g.GHz * 1e9
		for _, f := range spec.Frequencies {
			if math.Abs(float64(f)-want) <= 1e-3*float64(f) {
				freq = f
				break
			}
		}
		if freq == 0 {
			ghz := make([]float64, len(spec.Frequencies))
			for i, f := range spec.Frequencies {
				ghz[i] = f.GHzValue()
			}
			return g, hwsim.Config{}, badRequestf("%s.ghz %v is not a P-state of %s (available: %v)",
				side, g.GHz, spec.Name, ghz)
		}
	}
	g.GHz = freq.GHzValue()
	return g, hwsim.Config{Cores: g.Cores, Frequency: freq}, nil
}

// versionTag renders the versioned workload component every cache key
// embeds: "<workload>@v<version>". A profile bump changes the tag, so
// keys minted under the old version become unreachable the instant the
// registry's version moves — the invalidation sweep only reclaims their
// memory.
func versionTag(workload string, version uint64) string {
	return workload + "@v" + strconv.FormatUint(version, 10)
}

// resultKey is a result-cache key not yet minted: the endpoint, the
// workload and the profile version current when the request was
// canonicalized, and the canonical request the key encodes. Minting
// costs a json.Marshal, so a query defers it to the one reader, the
// buffered sink; streamed answers never pay for it.
type resultKey struct {
	endpoint, workload string
	version            uint64
	req                any
}

func (s *Server) resultKey(endpoint, workload string, req any) resultKey {
	return resultKey{endpoint: endpoint, workload: workload, version: s.calib.Version(workload), req: req}
}

// mint renders "endpoint|workload@vN|{json}"; keyed is false when the
// request cannot be encoded, and the answer then bypasses the cache
// entirely — a shared fallback key would alias every unmarshalable
// request onto one entry and serve one request's body for another's.
func (k resultKey) mint() (key string, keyed bool) {
	b, err := json.Marshal(k.req)
	if err != nil {
		return "", false
	}
	return k.endpoint + "|" + versionTag(k.workload, k.version) + "|" + string(b), true
}

// versionedKey mints the result-cache key of a request answered at once.
func (s *Server) versionedKey(endpoint, workload string, v any) (key string, keyed bool) {
	return s.resultKey(endpoint, workload, v).mint()
}

// doCached runs compute through the result cache under key, or directly
// and uncached when keyed is false (the resultKey.mint fallback).
func (s *Server) doCached(key string, keyed bool, compute func() ([]byte, error)) ([]byte, bool, error) {
	if !keyed {
		v, err := compute()
		return v, false, err
	}
	v, cached, err := s.cache.Do(key, compute)
	if !cached && err == nil {
		dropIfRetired(s, s.cache, key)
	}
	return v, cached, err
}

// doFresh is doCached for the TTL + degraded-stale paths.
func (s *Server) doFresh(key string, keyed bool, compute func() ([]byte, error)) (v []byte, cached, stale bool, err error) {
	if !keyed {
		v, err = compute()
		return v, false, false, err
	}
	v, cached, stale, err = s.cache.DoFresh(key, s.opts.CacheTTL, compute)
	if !cached && err == nil {
		dropIfRetired(s, s.cache, key)
	}
	return v, cached, stale, err
}

// dropIfRetired deletes a freshly stored entry from c when the profile
// version its key is tagged with ("<kind>|<workload>@v<N>|…") is no
// longer current. A bump that lands while an entry is computed sweeps
// before the entry is stored, so without this the entry would sit
// unreachable under its retired key until eviction. Either the bump's
// version change precedes this read, and the entry goes here, or it
// follows the insert, and the bump's own sweep finds it. Keys without a
// version tag are left alone.
func dropIfRetired[V any](s *Server, c *lru.Cache[V], key string) {
	_, rest, _ := strings.Cut(key, "|")
	tag, _, _ := strings.Cut(rest, "|")
	at := strings.LastIndex(tag, "@v")
	if at < 0 {
		return
	}
	ver, err := strconv.ParseUint(tag[at+2:], 10, 64)
	if err == nil && s.calib.Version(tag[:at]) != ver {
		c.Delete(key)
	}
}

// tableArtifact is a compiled table the table cache holds: immutable,
// shared across goroutines, and sized for the cache's byte limit.
type tableArtifact interface {
	SizeBytes() int
}

// twoTypeTable is a cached two-type kernel table together with the
// inputs a snapshot loader needs to rebuild it from its dump.
type twoTypeTable struct {
	*cluster.Table
	workload string
	noSwitch bool
}

// tableFor memoizes one compiled kernel table per (workload,
// switch-accounting) pair in the table cache — keyed by the cluster
// spec alone, never by per-request parameters, so every work size and
// deadline against the same cluster shares one artifact. Concurrent
// identical requests collapse onto one build.
func (s *Server) tableFor(workload string, noSwitch bool) (*cluster.Table, error) {
	key := tableKey(workload, s.calib.Version(workload), noSwitch)
	v, cached, err := s.tables.Do(key, func() (tableArtifact, error) {
		space, err := s.models.Space(workload)
		if err != nil {
			return nil, fmt.Errorf("building models for %q: %w", workload, err)
		}
		space.NoSwitchEnergy = noSwitch
		tbl, err := space.NewTable()
		if err != nil {
			return nil, fmt.Errorf("building kernel table for %q: %w", workload, err)
		}
		s.tableBuilds.Inc()
		return &twoTypeTable{Table: tbl, workload: workload, noSwitch: noSwitch}, nil
	})
	if err != nil {
		return nil, err
	}
	if !cached {
		dropIfRetired(s, s.tables, key)
	}
	return v.(*twoTypeTable).Table, nil
}

// tableKey is tableFor's cache key, "table|<workload>@v<ver>|<noSwitch>".
func tableKey(workload string, ver uint64, noSwitch bool) string {
	return "table|" + versionTag(workload, ver) + "|" + strconv.FormatBool(noSwitch)
}

// --- /v1/predict -----------------------------------------------------

// PredictRequest asks for one configuration's predicted time and energy.
type PredictRequest struct {
	Workload string       `json:"workload"`
	ARM      GroupRequest `json:"arm"`
	AMD      GroupRequest `json:"amd"`
	// Work is the job size in work units; 0 selects the workload's §IV
	// analysis size (e.g. 50 M random numbers for EP).
	Work           float64 `json:"work,omitempty"`
	NoSwitchEnergy bool    `json:"no_switch_energy,omitempty"`
}

// PredictResponse is the evaluated point.
type PredictResponse struct {
	Workload string               `json:"workload"`
	Work     float64              `json:"work"`
	Point    cluster.PointSummary `json:"point"`
	// AvgPowerWatts is energy over time, the draw the budget analysis
	// compares against peak.
	AvgPowerWatts float64 `json:"avg_power_watts"`
}

// normalizePredict validates and canonicalizes; the returned request is
// the cache-key form and cfg the resolved configuration.
func (s *Server) normalizePredict(req PredictRequest) (PredictRequest, cluster.Configuration, error) {
	_, work, err := validWorkload(req.Workload, req.Work)
	if err != nil {
		return req, cluster.Configuration{}, err
	}
	req.Work = work
	space, err := s.models.Space(req.Workload)
	if err != nil {
		return req, cluster.Configuration{}, err
	}
	var cfg cluster.Configuration
	if req.ARM, cfg.ARM.Config, err = s.resolveGroup("arm", req.ARM, space.ARM.Spec); err != nil {
		return req, cfg, err
	}
	if req.AMD, cfg.AMD.Config, err = s.resolveGroup("amd", req.AMD, space.AMD.Spec); err != nil {
		return req, cfg, err
	}
	cfg.ARM.Nodes = req.ARM.Nodes
	cfg.AMD.Nodes = req.AMD.Nodes
	if cfg.ARM.Nodes+cfg.AMD.Nodes == 0 {
		return req, cfg, badRequestf("at least one of arm.nodes, amd.nodes must be positive")
	}
	return req, cfg, nil
}

// predictBytes returns the marshaled response for a canonicalized
// request, from cache when possible.
func (s *Server) predictBytes(req PredictRequest, cfg cluster.Configuration) ([]byte, bool, error) {
	key, keyed := s.versionedKey("predict", req.Workload, req)
	return s.doCached(key, keyed, func() ([]byte, error) {
		tbl, err := s.tableFor(req.Workload, req.NoSwitchEnergy)
		if err != nil {
			return nil, err
		}
		p, err := tbl.Evaluate(cfg, req.Work)
		if err != nil {
			return nil, err
		}
		resp := PredictResponse{
			Workload:      req.Workload,
			Work:          req.Work,
			Point:         p.Summary(),
			AvgPowerWatts: float64(p.Energy) / float64(p.Time),
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[PredictRequest](s, w, r)
	if !ok {
		return
	}
	norm, cfg, err := s.normalizePredict(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	// With routing configured, the canonicalized request goes to the
	// consistent-hash owner of its workload so that replica's table
	// cache serves it hot; a failed forward computes locally instead.
	if s.routeForward(w, r, "/v1/predict", s.routeKeyPredict(norm), norm) {
		return
	}
	body, cached, err := s.predictBytes(norm, cfg)
	if err != nil {
		replyError(w, r, err)
		return
	}
	writeRaw(w, body, cached)
}

// --- /v1/enumerate ---------------------------------------------------

// EnumerateRequest asks for a bounded configuration space.
type EnumerateRequest struct {
	Workload string  `json:"workload"`
	MaxARM   int     `json:"max_arm"`
	MaxAMD   int     `json:"max_amd"`
	Work     float64 `json:"work,omitempty"`
	// FrontierOnly returns just the Pareto-optimal points, streamed
	// through the online frontier — the space is never materialized.
	FrontierOnly bool `json:"frontier_only,omitempty"`
	// Limit caps returned points when FrontierOnly is false (default
	// 1000, capped by the server's MaxPoints).
	Limit          int  `json:"limit,omitempty"`
	NoSwitchEnergy bool `json:"no_switch_energy,omitempty"`
}

// EnumerateResponse carries the points (or frontier) of the space.
type EnumerateResponse struct {
	Workload  string  `json:"workload"`
	Work      float64 `json:"work"`
	SpaceSize int     `json:"space_size"`
	// Returned is len(Points); Truncated marks a Limit cut.
	Returned     int                    `json:"returned"`
	Truncated    bool                   `json:"truncated,omitempty"`
	FrontierOnly bool                   `json:"frontier_only,omitempty"`
	Points       []cluster.PointSummary `json:"points"`
	// Degraded marks a stale result served because the recompute path was
	// failing (circuit open or compute error) — the numbers are from an
	// expired cache entry, not a fresh evaluation.
	Degraded bool `json:"degraded,omitempty"`
}

func (s *Server) normalizeEnumerate(req EnumerateRequest) (EnumerateRequest, error) {
	_, work, err := validWorkload(req.Workload, req.Work)
	if err != nil {
		return req, err
	}
	req.Work = work
	if req.MaxARM < 0 || req.MaxARM > s.opts.MaxNodes {
		return req, badRequestf("max_arm must be in [0, %d], got %d", s.opts.MaxNodes, req.MaxARM)
	}
	if req.MaxAMD < 0 || req.MaxAMD > s.opts.MaxNodes {
		return req, badRequestf("max_amd must be in [0, %d], got %d", s.opts.MaxNodes, req.MaxAMD)
	}
	if req.MaxARM+req.MaxAMD == 0 {
		return req, badRequestf("at least one of max_arm, max_amd must be positive")
	}
	if req.Limit < 0 {
		return req, badRequestf("limit must be non-negative, got %d", req.Limit)
	}
	if req.FrontierOnly {
		req.Limit = 0
	} else {
		if req.Limit == 0 {
			req.Limit = 1000
		}
		if req.Limit > s.opts.MaxPoints {
			req.Limit = s.opts.MaxPoints
		}
	}
	return req, nil
}

// markDegraded splices "degraded":true into a marshaled response so a
// stale body serves with the flag set without a re-marshal round trip.
func markDegraded(body []byte) []byte {
	trimmed := bytes.TrimRight(body, " \t\r\n")
	if len(trimmed) < 2 || trimmed[len(trimmed)-1] != '}' {
		return body
	}
	out := make([]byte, 0, len(trimmed)+len(`,"degraded":true}`))
	out = append(out, trimmed[:len(trimmed)-1]...)
	if trimmed[len(trimmed)-2] != '{' {
		out = append(out, ',')
	}
	return append(out, `"degraded":true}`...)
}

// --- /v1/budget ------------------------------------------------------

// BudgetRequest asks for the constant-peak-power substitution series
// within a budget (the paper's §IV-C analysis).
type BudgetRequest struct {
	Workload       string  `json:"workload"`
	BudgetWatts    float64 `json:"budget_watts"`
	Work           float64 `json:"work,omitempty"`
	NoSwitchEnergy bool    `json:"no_switch_energy,omitempty"`
}

// BudgetMix is one generated mix, evaluated at both types' maximum
// settings (the operating point of Figures 6–7).
type BudgetMix struct {
	ARM       int                  `json:"arm"`
	AMD       int                  `json:"amd"`
	PeakWatts float64              `json:"peak_watts"`
	Point     cluster.PointSummary `json:"point"`
}

// BudgetResponse is the substitution series.
type BudgetResponse struct {
	Workload          string      `json:"workload"`
	Work              float64     `json:"work"`
	BudgetWatts       float64     `json:"budget_watts"`
	SubstitutionRatio int         `json:"substitution_ratio"`
	ARMPeakWatts      float64     `json:"arm_peak_watts"`
	AMDPeakWatts      float64     `json:"amd_peak_watts"`
	SwitchWatts       float64     `json:"switch_watts"`
	Mixes             []BudgetMix `json:"mixes"`
}

func (s *Server) normalizeBudget(req BudgetRequest) (BudgetRequest, error) {
	_, work, err := validWorkload(req.Workload, req.Work)
	if err != nil {
		return req, err
	}
	req.Work = work
	if math.IsNaN(req.BudgetWatts) || math.IsInf(req.BudgetWatts, 0) || req.BudgetWatts <= 0 {
		return req, badRequestf("budget_watts must be positive and finite, got %v", req.BudgetWatts)
	}
	return req, nil
}

func (s *Server) budgetBytes(req BudgetRequest) ([]byte, bool, error) {
	key, keyed := s.versionedKey("budget", req.Workload, req)
	return s.doCached(key, keyed, func() ([]byte, error) {
		tbl, err := s.tableFor(req.Workload, req.NoSwitchEnergy)
		if err != nil {
			return nil, err
		}
		space := tbl.Space()
		low, high := space.ARM.Spec, space.AMD.Spec
		// The generated series substitutes ratio ARM nodes per AMD node;
		// cap it by the same per-side bound as every other endpoint.
		ratio := budget.SubstitutionRatio(low, high)
		maxAMD := int(req.BudgetWatts / float64(high.PeakPower()))
		if maxAMD > s.opts.MaxNodes || ratio*maxAMD > s.opts.MaxNodes {
			return nil, badRequestf("budget %v W implies mixes beyond %d nodes per side; lower it",
				req.BudgetWatts, s.opts.MaxNodes)
		}
		resp := BudgetResponse{
			Workload:          req.Workload,
			Work:              req.Work,
			BudgetWatts:       req.BudgetWatts,
			SubstitutionRatio: ratio,
			ARMPeakWatts:      float64(low.PeakPower()),
			AMDPeakWatts:      float64(high.PeakPower()),
			SwitchWatts:       float64(cluster.SwitchPower),
		}
		maxARM := hwsim.Config{Cores: low.Cores, Frequency: low.FMax()}
		maxAMDCfg := hwsim.Config{Cores: high.Cores, Frequency: high.FMax()}
		err = budget.ForEachConstantBudgetMix(low, high, units.Watt(req.BudgetWatts), func(m budget.Mix) bool {
			cfg := cluster.Configuration{}
			if m.ARM > 0 {
				cfg.ARM = cluster.TypeConfig{Nodes: m.ARM, Config: maxARM}
			}
			if m.AMD > 0 {
				cfg.AMD = cluster.TypeConfig{Nodes: m.AMD, Config: maxAMDCfg}
			}
			p, evalErr := tbl.Evaluate(cfg, req.Work)
			if evalErr != nil {
				err = evalErr
				return false
			}
			resp.Mixes = append(resp.Mixes, BudgetMix{
				ARM: m.ARM, AMD: m.AMD,
				PeakWatts: float64(budget.PeakPower(m, low, high)),
				Point:     p.Summary(),
			})
			return true
		})
		if err != nil {
			// The paper's series generator rejects budgets that cannot fit
			// one high-performance node — a client error.
			return nil, badRequestf("%v", err)
		}
		return json.Marshal(resp)
	})
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[BudgetRequest](s, w, r)
	if !ok {
		return
	}
	norm, err := s.normalizeBudget(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	body, cached, err := s.budgetBytes(norm)
	if err != nil {
		replyError(w, r, err)
		return
	}
	writeRaw(w, body, cached)
}

// --- /v1/queueing ----------------------------------------------------

// QueueingRequest asks for dispatcher-queue behaviour under Poisson
// arrivals: SCV 0 is the paper's M/D/1, SCV 1 is M/M/1.
type QueueingRequest struct {
	ArrivalRate        float64 `json:"arrival_rate"`
	ServiceTimeSeconds float64 `json:"service_time_seconds"`
	SCV                float64 `json:"scv,omitempty"`
	// WindowSeconds, with the two power terms, adds the §IV-E energy
	// accounting over an observation window.
	WindowSeconds  float64 `json:"window_seconds,omitempty"`
	PerJobJoules   float64 `json:"per_job_joules,omitempty"`
	IdlePowerWatts float64 `json:"idle_power_watts,omitempty"`
}

// QueueingResponse carries the derived queue quantities.
type QueueingResponse struct {
	queueing.Summary
	// EnergyJoules is present when window_seconds was given.
	EnergyJoules *float64 `json:"energy_joules,omitempty"`
}

// queueingResult computes the response for a decoded request; every
// failure is a badRequest. Shared by the single endpoint and /v1/batch
// so both answer identical bodies for identical items.
func queueingResult(req QueueingRequest) (QueueingResponse, error) {
	q := queueing.MG1{
		ArrivalRate: req.ArrivalRate,
		MeanService: units.Seconds(req.ServiceTimeSeconds),
		SCV:         req.SCV,
	}
	if err := q.Validate(); err != nil {
		// Every Validate failure — including an unstable rho >= 1 — is a
		// property of the client's parameters.
		return QueueingResponse{}, badRequestf("%v", err)
	}
	resp := QueueingResponse{Summary: q.Summary()}
	if req.WindowSeconds != 0 || req.PerJobJoules != 0 || req.IdlePowerWatts != 0 {
		if req.WindowSeconds <= 0 || math.IsNaN(req.WindowSeconds) || math.IsInf(req.WindowSeconds, 0) {
			return QueueingResponse{}, badRequestf("window_seconds must be positive and finite for energy accounting")
		}
		e, err := q.EnergyOverWindow(units.Seconds(req.WindowSeconds),
			units.Joule(req.PerJobJoules), units.Watt(req.IdlePowerWatts))
		if err != nil {
			return QueueingResponse{}, badRequestf("%v", err)
		}
		ej := float64(e)
		resp.EnergyJoules = &ej
	}
	return resp, nil
}

func (s *Server) handleQueueing(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[QueueingRequest](s, w, r)
	if !ok {
		return
	}
	resp, err := queueingResult(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /healthz --------------------------------------------------------

// HealthResponse reports liveness, identity and cache effectiveness.
type HealthResponse struct {
	Status        string      `json:"status"`
	Version       string      `json:"version"`
	Commit        string      `json:"commit"`
	GoVersion     string      `json:"go_version"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Workloads     []string    `json:"workloads"`
	Inflight      int64       `json:"inflight"`
	Cache         HealthCache `json:"cache"`
	KernelTables  uint64      `json:"kernel_table_builds"`
	// Breaker is the enumerate circuit breaker's state
	// ("closed", "open", "half-open").
	Breaker           string `json:"breaker"`
	DegradedResponses uint64 `json:"degraded_responses"`
	PanicsRecovered   uint64 `json:"panics_recovered"`
	Draining          bool   `json:"draining"`
	// ProfileGeneration is the global profile generation: 1 at start,
	// incremented on every calibration version bump.
	ProfileGeneration uint64 `json:"profile_generation"`
	// Fleet is the probed replica set (coordinators only): one entry per
	// configured replica with its health state and breaker state, plus
	// the snapshot version that increments on every transition.
	Fleet *FleetHealth `json:"fleet,omitempty"`
	// Snapshot reports the cache snapshot subsystem (preheat, background
	// writer, peer warming): the last snapshot's hash, age and entry
	// counts plus the load/save/reject totals.
	Snapshot *SnapshotHealth `json:"snapshot,omitempty"`
}

// FleetHealth is the coordinator's replica-set view in /healthz.
type FleetHealth struct {
	Version  uint64               `json:"version"`
	Replicas []FleetReplicaHealth `json:"replicas"`
}

// FleetReplicaHealth is one replica's health and breaker state.
type FleetReplicaHealth struct {
	URL     string `json:"url"`
	State   string `json:"state"`
	Breaker string `json:"breaker"`
	// LastError is the most recent probe failure, empty while healthy.
	LastError string `json:"last_error,omitempty"`
}

// HealthCache is the cache's counters in wire form.
type HealthCache struct {
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	HitRatio    float64 `json:"hit_ratio"`
	Entries     int     `json:"entries"`
	Collapsed   uint64  `json:"collapsed"`
	Evictions   uint64  `json:"evictions"`
	StaleServes uint64  `json:"stale_serves"`
	// Bytes is the resident size of cached response bodies.
	Bytes int64 `json:"bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := buildinfo.Get()
	st := s.cache.Stats()
	var fleet *FleetHealth
	if snap := s.FleetHealth(); snap != nil {
		fleet = &FleetHealth{Version: snap.Version}
		for _, rep := range snap.Replicas {
			fleet.Replicas = append(fleet.Replicas, FleetReplicaHealth{
				URL:       rep.URL,
				State:     rep.State.String(),
				Breaker:   s.fleet.breakerFor(rep.URL).State().String(),
				LastError: rep.LastError,
			})
		}
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       info.Version,
		Commit:        info.Commit,
		GoVersion:     info.GoVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workloads:     workloads.Names(),
		Inflight:      s.inflight.Value(),
		Cache: HealthCache{
			Hits: st.Hits, Misses: st.Misses, HitRatio: st.HitRatio(),
			Entries: st.Entries, Collapsed: st.Collapsed, Evictions: st.Evictions,
			StaleServes: st.StaleServes, Bytes: st.Bytes,
		},
		KernelTables:      s.tableBuilds.Value(),
		Breaker:           s.breaker.State().String(),
		DegradedResponses: s.degraded.Value(),
		PanicsRecovered:   s.panics.Value(),
		Draining:          s.draining.Load(),
		ProfileGeneration: s.calib.Generation(),
		Fleet:             fleet,
		Snapshot:          s.snapshotHealth(),
	})
}

// --- /readyz ---------------------------------------------------------

// ReadyResponse is the readiness probe body. Unlike /healthz (liveness:
// "the process is up and sane"), /readyz answers "should this instance
// receive new traffic" — it flips to 503 the moment graceful drain
// begins, while in-flight requests keep completing.
type ReadyResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Status: "ready"})
}
