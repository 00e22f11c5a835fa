package main

// Seeded request streams. Every request a workload sends comes from its
// generator, which depends only on --seed (and on the fitted models,
// which the suite seed fixes), so two runs with one seed send the same
// traffic in the same order; the report prints a SHA-256 of the stream.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"heteromix/internal/experiments"
	"heteromix/internal/hwsim"
	"heteromix/internal/server"
	"heteromix/internal/workloads"
)

// Request kinds. Each is one (endpoint, response shape) pair.
const (
	kindPredict     = "predict"
	kindFit         = "fit"
	kindGeneric     = "frontier_generic"
	kindGenericNDJ  = "frontier_generic_ndjson"
	kindTwoType     = "frontier_2type"
	kindFleet       = "fleet_frontier"
	refitWorkload   = "memcached"
	predictMaxNodes = 16 // ARM 1..16 x AMD 0..15 per workload
	predictWorks    = 20 // work sizes per (workload, ARM, AMD)
	fitSamples      = 256
	fitEvery        = 1000 // about one /v1/fit write per this many requests
	streamHashLen   = 10000
	// The oracle checks about one answer in this many, per workload.
	checkPredict  = 64
	checkFrontier = 48
	checkFleet    = 16
)

// request is one generated HTTP request.
type request struct {
	kind string
	path string
	body []byte
	// check marks the seeded sample of responses the oracle verifies.
	check bool
}

// generator yields a workload's request stream.
type generator interface {
	next() request
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// endpoints are the daemon endpoints whose latency histograms the
	// workload's requests land in (on the user-facing daemon).
	endpoints []string
	// fleet runs a coordinator plus four shard replicas.
	fleet bool
	// setup is one request of each kind the workload sends; setup_s ends
	// at the first successful answer to all of them.
	setup []request
	// warm is untimed cache-filling and table-compiling traffic.
	warm func(seed int64) []request
	gen  func(seed int64) generator
}

// triTypes is the canonical tri-cluster space: a9/a15/k10 with 4 nodes
// each, 384,344 configurations, 88,836 after domination pruning.
var triTypes = []server.GenericTypeRequest{
	{Node: "arm-cortex-a9", MaxNodes: 4, NeedsSwitch: true},
	{Node: "arm-cortex-a15", MaxNodes: 4, NeedsSwitch: true},
	{Node: "amd-opteron-k10", MaxNodes: 4},
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are marshaled
	}
	return b
}

func analysisUnits(workload string) float64 {
	w, err := workloads.ByName(workload)
	if err != nil {
		panic(err) // only registered workload names are used
	}
	return w.AnalysisUnits
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name())
	}
	return out
}

// streamHash is the SHA-256 of the first n requests a generator yields.
func streamHash(g generator, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := g.next()
		fmt.Fprintf(h, "%s %s %t\n", r.kind, r.path, r.check)
		h.Write(r.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- predict_refit ---------------------------------------------------

// predictKey is one of the ~30k distinct two-type predict specs.
type predictKey struct {
	workload string
	arm, amd int
	work     float64
}

func predictKeys() []predictKey {
	var keys []predictKey
	for _, wl := range workloadNames() {
		u := analysisUnits(wl)
		for a := 1; a <= predictMaxNodes; a++ {
			for m := 0; m < predictMaxNodes; m++ {
				for k := 0; k < predictWorks; k++ {
					keys = append(keys, predictKey{wl, a, m, u * (1 + 0.25*float64(k))})
				}
			}
		}
	}
	return keys
}

func predictRequest(k predictKey, check bool) request {
	return request{kind: kindPredict, path: "/v1/predict", check: check, body: mustJSON(server.PredictRequest{
		Workload: k.workload,
		ARM:      server.GroupRequest{Nodes: k.arm},
		AMD:      server.GroupRequest{Nodes: k.amd},
		Work:     k.work,
	})}
}

// fitBody builds a /v1/fit write for the refit workload's ARM node whose
// samples are the base model's predictions scaled by scale. With
// fitSamples = the daemon's default per-pair store size, every write
// replaces the whole store, so alternating 1.25 and 0.8 moves the
// rolling error past the 10% threshold on every write and each refit
// installs a different model.
func fitBody(suite *experiments.Suite, scale float64) ([]byte, error) {
	spec := hwsim.ARMCortexA9()
	nm, err := suite.Model(refitWorkload, spec)
	if err != nil {
		return nil, err
	}
	u := analysisUnits(refitWorkload)
	req := server.FitRequest{Workload: refitWorkload, Node: spec.Name}
	nf := len(spec.Frequencies)
	for i := 0; i < fitSamples; i++ {
		cfg := hwsim.Config{Cores: 1 + i%spec.Cores, Frequency: spec.Frequencies[(i/spec.Cores)%nf]}
		work := u * (1 + 0.125*float64(i/(spec.Cores*nf)))
		p, err := nm.Predict(cfg, work)
		if err != nil {
			return nil, fmt.Errorf("predicting fit sample: %w", err)
		}
		req.Samples = append(req.Samples, server.FitSample{
			Cores:        cfg.Cores,
			GHz:          cfg.Frequency.GHzValue(),
			Work:         work,
			TimeSeconds:  float64(p.Time) * scale,
			EnergyJoules: float64(p.Energy) * scale,
		})
	}
	return mustJSON(req), nil
}

type predictGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	reqs []request
	// fits are the two alternating write bodies; nil sends reads only.
	fits   [2][]byte
	writes int
}

// newPredictGen ranks the specs by a permutation drawn from seed and
// draws requests from drawSeed, so the untimed warm-up (another draw
// seed) heats the same popular keys the timed stream asks for.
func newPredictGen(seed, drawSeed int64, reqs []request, fits [2][]byte) *predictGen {
	rng := rand.New(rand.NewSource(drawSeed))
	return &predictGen{
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(reqs)-1)),
		perm: rand.New(rand.NewSource(seed)).Perm(len(reqs)),
		reqs: reqs,
		fits: fits,
	}
}

func (g *predictGen) next() request {
	if g.fits[0] != nil && g.rng.Intn(fitEvery) == 0 {
		b := g.fits[g.writes%2]
		g.writes++
		return request{kind: kindFit, path: "/v1/fit", body: b}
	}
	r := g.reqs[g.perm[g.zipf.Uint64()]]
	r.check = g.rng.Intn(checkPredict) == 0
	return r
}

func predictRefit(suite *experiments.Suite) (workloadDef, error) {
	var reqs []request
	for _, k := range predictKeys() {
		reqs = append(reqs, predictRequest(k, false))
	}
	var fits [2][]byte
	for i, scale := range []float64{1.25, 0.8} {
		b, err := fitBody(suite, scale)
		if err != nil {
			return workloadDef{}, err
		}
		fits[i] = b
	}
	// The set-up write carries the base model's own predictions: zero
	// drift, so it answers without a refit.
	setupFit, err := fitBody(suite, 1)
	if err != nil {
		return workloadDef{}, err
	}
	return workloadDef{
		name:      "predict_refit",
		endpoints: []string{"predict", "fit"},
		setup: []request{
			predictRequest(predictKey{"ep", 1, 1, analysisUnits("ep")}, false),
			{kind: kindFit, path: "/v1/fit", body: setupFit},
		},
		warm: func(seed int64) []request {
			g := newPredictGen(seed, seed^0x5eed, reqs, [2][]byte{})
			out := make([]request, 8192)
			for i := range out {
				out[i] = g.next()
				out[i].check = false
			}
			return out
		},
		gen: func(seed int64) generator { return newPredictGen(seed, seed, reqs, fits) },
	}, nil
}

// --- frontier_cold ---------------------------------------------------

func genericRequest(kind, workload string, work float64, shards int, check bool) request {
	return request{kind: kind, path: "/v1/enumerate-generic", check: check, body: mustJSON(server.EnumerateGenericRequest{
		Workload:     workload,
		Types:        triTypes,
		Work:         work,
		FrontierOnly: true,
		Shards:       shards,
	})}
}

func twoTypeRequest(workload string, work float64, check bool) request {
	return request{kind: kindTwoType, path: "/v1/enumerate", check: check, body: mustJSON(server.EnumerateRequest{
		Workload:     workload,
		MaxARM:       10,
		MaxAMD:       10,
		Work:         work,
		FrontierOnly: true,
	})}
}

func frontierRequest(kind, workload string, work float64, check bool) request {
	if kind == kindTwoType {
		return twoTypeRequest(workload, work, check)
	}
	return genericRequest(kind, workload, work, 0, check)
}

var frontierKinds = []string{kindGeneric, kindGenericNDJ, kindTwoType}

// frontierGen draws the kind in seeded blocks of three (exact thirds),
// and the workload and work size per request, so every request misses
// the result cache and hits a warm compiled table.
type frontierGen struct {
	rng   *rand.Rand
	names []string
	block []string
}

func (g *frontierGen) next() request {
	if len(g.block) == 0 {
		g.block = append([]string(nil), frontierKinds...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	wl := g.names[g.rng.Intn(len(g.names))]
	work := analysisUnits(wl) * (0.5 + g.rng.Float64())
	return frontierRequest(kind, wl, work, g.rng.Intn(checkFrontier) == 0)
}

func frontierCold() workloadDef {
	names := workloadNames()
	return workloadDef{
		name:      "frontier_cold",
		endpoints: []string{"enumerate", "enumerate-generic"},
		setup: []request{
			frontierRequest(kindGeneric, "ep", analysisUnits("ep"), false),
			frontierRequest(kindGenericNDJ, "ep", analysisUnits("ep"), false),
			frontierRequest(kindTwoType, "ep", analysisUnits("ep"), false),
		},
		warm: func(int64) []request {
			var out []request
			for _, wl := range names {
				for _, k := range frontierKinds {
					out = append(out, frontierRequest(k, wl, analysisUnits(wl), false))
				}
			}
			return out
		},
		gen: func(seed int64) generator {
			return &frontierGen{rng: rand.New(rand.NewSource(seed)), names: names}
		},
	}
}

// --- fleet_frontier --------------------------------------------------

type fleetGen struct{ rng *rand.Rand }

func (g *fleetGen) next() request {
	work := analysisUnits("ep") * (0.5 + g.rng.Float64())
	return genericRequest(kindFleet, "ep", work, 4, g.rng.Intn(checkFleet) == 0)
}

func fleetFrontier() workloadDef {
	u := analysisUnits("ep")
	return workloadDef{
		name:      "fleet_frontier",
		endpoints: []string{"enumerate-generic"},
		fleet:     true,
		setup:     []request{genericRequest(kindFleet, "ep", u, 4, false)},
		warm: func(int64) []request {
			return []request{genericRequest(kindFleet, "ep", u*1.5, 4, false)}
		},
		gen: func(seed int64) generator { return &fleetGen{rng: rand.New(rand.NewSource(seed))} },
	}
}
