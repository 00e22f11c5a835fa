package server

// The /v1/enumerate-generic endpoint: the N-type configuration space
// behind the same serving policy as /v1/enumerate — canonicalized
// requests as cache keys, TTL freshness with degraded-stale fallback,
// the circuit breaker on the compute path, and a size guard that
// rejects absurd spaces with a 400 before any enumeration runs.

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/pareto"
	"heteromix/internal/shard"
	"heteromix/internal/stream"
)

// NodeModelSource provides per-type fitted models for generic N-type
// requests. *experiments.Suite implements it; a ModelSource that does
// not cannot serve /v1/enumerate-generic.
type NodeModelSource interface {
	Model(workload string, spec hwsim.NodeSpec) (model.NodeModel, error)
}

// maxGenericTypes caps the type list: every additional type multiplies
// the space, and the paper's scenarios need at most a handful.
const maxGenericTypes = 8

// GenericTypeRequest selects one node type of a generic space.
type GenericTypeRequest struct {
	// Node names the hardware spec (e.g. "arm-cortex-a9",
	// "arm-cortex-a15", "amd-opteron-k10").
	Node string `json:"node"`
	// MaxNodes bounds this type's node count; 0 leaves the type out.
	MaxNodes int `json:"max_nodes"`
	// NeedsSwitch charges dedicated-switch power to this type's groups.
	NeedsSwitch bool `json:"needs_switch,omitempty"`
}

// EnumerateGenericRequest asks for a bounded N-type space.
type EnumerateGenericRequest struct {
	Workload string               `json:"workload"`
	Types    []GenericTypeRequest `json:"types"`
	Work     float64              `json:"work,omitempty"`
	// FrontierOnly returns just the Pareto-optimal points, streamed
	// through the online frontier over the domination-pruned space (the
	// pruned frontier provably equals the full one).
	FrontierOnly bool `json:"frontier_only,omitempty"`
	// Limit caps returned points when FrontierOnly is false (default
	// 1000, capped by the server's MaxPoints).
	Limit int `json:"limit,omitempty"`
	// Prune restricts each type to its (time, power) domination
	// survivors before enumeration. Implied by FrontierOnly.
	Prune bool `json:"prune,omitempty"`
	// Shard restricts this server's walk to slice "i/n" of the
	// Feistel-permuted space (see internal/shard). Requires
	// frontier_only; the response then carries per-point serial indices
	// so a coordinator can merge slices deterministically.
	Shard string `json:"shard,omitempty"`
	// Shards, when positive, makes this server a coordinator: the
	// request fans out as that many shard requests across the replica
	// set and the partial frontiers merge back bit-identical to an
	// unsharded walk. Requires frontier_only and a fleet-enabled server.
	// Mutually exclusive with Shard.
	Shards int `json:"shards,omitempty"`
	// Replicas overrides the configured replica URLs for one fan-out.
	// Only honored on a server that already has replicas configured, so
	// a non-fleet instance can never be steered into fetching arbitrary
	// URLs.
	Replicas []string `json:"replicas,omitempty"`
	// ProfileVersion, when positive, pins the request to that profile
	// version of its workload: a server whose active version differs
	// answers 409 (retryable) instead of silently computing under other
	// parameters. The fleet coordinator stamps its own version onto
	// every shard sub-request, so a profile bump racing a fan-out can
	// never merge slices computed under different profiles.
	ProfileVersion uint64 `json:"profile_version,omitempty"`
	// Delta asks a streamed frontier request to ship only the points
	// that entered or left the frontier since this client spec's
	// predecessor ({"op":"add"|"del"} records), falling back to a full
	// stream on the first query or after a profile bump. Requires
	// frontier_only and a streamed response; incompatible with shard
	// slices (a slice's frontier is not the spec's frontier).
	Delta bool `json:"delta,omitempty"`
}

// EnumerateGenericResponse carries the points (or frontier) of the
// generic space.
type EnumerateGenericResponse struct {
	Workload string  `json:"workload"`
	Work     float64 `json:"work"`
	// TypeNames labels Points' groups positionally.
	TypeNames []string `json:"type_names"`
	// SpaceSize is the full space; PrunedSize the enumerated one when
	// pruning was applied.
	SpaceSize  uint64 `json:"space_size"`
	PrunedSize uint64 `json:"pruned_size,omitempty"`
	// Returned is len(Points); Truncated marks a Limit cut.
	Returned     int                           `json:"returned"`
	Truncated    bool                          `json:"truncated,omitempty"`
	FrontierOnly bool                          `json:"frontier_only,omitempty"`
	Points       []cluster.GenericPointSummary `json:"points"`
	// Shard echoes a shard request's slice, and Indices carries each
	// point's index in the serial enumeration order (parallel to
	// Points) — the coordinator's merge key.
	Shard   string   `json:"shard,omitempty"`
	Indices []uint64 `json:"indices,omitempty"`
	// FailedShards lists the shard indices whose replicas failed when a
	// coordinator served a degraded partial merge.
	FailedShards []int `json:"failed_shards,omitempty"`
	// Degraded marks a stale result served because the recompute path
	// was failing, as in EnumerateResponse — or a fleet merge missing
	// the FailedShards slices.
	Degraded bool `json:"degraded,omitempty"`
}

// genericTables is the compiled artifact one generic cluster spec
// yields: the full table and its domination-pruned counterpart, built
// together so the prune flag never enters the cache key — a request
// with prune=true and one without share the artifact.
type genericTables struct {
	full, pruned *cluster.GenericTable
}

// SizeBytes implements tableArtifact.
func (g *genericTables) SizeBytes() int {
	return g.full.SizeBytes() + g.pruned.SizeBytes()
}

// genericKey canonicalizes the cluster spec of a generic request —
// the workload's profile tag plus the positional (node, max_nodes,
// needs_switch) list — deliberately excluding every per-request
// parameter (work size, limit, prune and frontier flags), so repeated
// traffic against the same cluster shares one compiled artifact. The
// profile tag retires the artifact on a version bump.
func genericKey(profileTag string, types []GenericTypeRequest) string {
	var b strings.Builder
	b.WriteString("generic|")
	b.WriteString(profileTag)
	for _, tr := range types {
		fmt.Fprintf(&b, "|%s:%d:%t", tr.Node, tr.MaxNodes, tr.NeedsSwitch)
	}
	return b.String()
}

// genericTablesFor memoizes the compiled artifact for a cluster spec.
// Concurrent requests for the same cluster collapse onto one build, and
// build failures are never cached.
func (s *Server) genericTablesFor(workload string, reqTypes []GenericTypeRequest, full []cluster.GroupType) (*genericTables, error) {
	key := genericKey(s.profileTag(workload), reqTypes)
	v, _, err := s.tables.Do(key, func() (tableArtifact, error) {
		prunedTypes, err := cluster.PruneGroupTypes(full)
		if err != nil {
			return nil, err
		}
		ft, err := cluster.NewGenericTable(full)
		if err != nil {
			return nil, err
		}
		pt, err := cluster.NewGenericTable(prunedTypes)
		if err != nil {
			return nil, err
		}
		s.tableBuilds.Add(2)
		return &genericTables{full: ft, pruned: pt}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*genericTables), nil
}

// genericPlan is the resolved, validated form of a request: the
// compiled tables to enumerate and the sizes the response reports.
type genericPlan struct {
	tables *genericTables
	// walk is the table the enumeration actually uses: the pruned one
	// under req.Prune (and so under frontier_only), the full one
	// otherwise.
	walk      *cluster.GenericTable
	names     []string
	spaceSize uint64
	// prunedSize is the enumerated size when pruning applied, else 0.
	prunedSize uint64
	// shard is the parsed slice of a shard request; Count 0 when
	// unsharded.
	shard shard.Shard
}

// enumeratedSize returns how many points the plan evaluates.
func (p genericPlan) enumeratedSize() uint64 {
	if p.prunedSize > 0 {
		return p.prunedSize
	}
	return p.spaceSize
}

// normalizeEnumerateGeneric validates and canonicalizes the request and
// resolves it to a plan. Every rejection — unknown nodes, negative or
// oversized bounds, a space past MaxGenericSpace — is a badRequest
// taken before any enumeration, so clients cannot buy arbitrary compute
// or trip the breaker with nonsense.
func (s *Server) normalizeEnumerateGeneric(req EnumerateGenericRequest) (EnumerateGenericRequest, genericPlan, error) {
	var plan genericPlan
	_, work, err := validWorkload(req.Workload, req.Work)
	if err != nil {
		return req, plan, err
	}
	req.Work = work
	// A pinned profile version must match the active one; a matched pin
	// canonicalizes away so pinned and unpinned requests share one cache
	// entry (they are computed under identical parameters).
	if req.ProfileVersion != 0 {
		if cur := s.calib.Version(req.Workload); req.ProfileVersion != cur {
			return req, plan, errProfileConflict{Workload: req.Workload, Want: req.ProfileVersion, Have: cur}
		}
		req.ProfileVersion = 0
	}
	if len(req.Types) == 0 {
		return req, plan, badRequestf("types is required (1 to %d entries)", maxGenericTypes)
	}
	if len(req.Types) > maxGenericTypes {
		return req, plan, badRequestf("at most %d types, got %d", maxGenericTypes, len(req.Types))
	}
	specs := make([]hwsim.NodeSpec, len(req.Types))
	total := 0
	for i, tr := range req.Types {
		spec, err := hwsim.ByName(tr.Node)
		if err != nil {
			return req, plan, badRequestf("types[%d].node: %v", i, err)
		}
		specs[i] = spec
		if tr.MaxNodes < 0 || tr.MaxNodes > s.opts.MaxNodes {
			return req, plan, badRequestf("types[%d].max_nodes must be in [0, %d], got %d",
				i, s.opts.MaxNodes, tr.MaxNodes)
		}
		total += tr.MaxNodes
	}
	if total == 0 {
		return req, plan, badRequestf("at least one types[].max_nodes must be positive")
	}
	if req.Limit < 0 {
		return req, plan, badRequestf("limit must be non-negative, got %d", req.Limit)
	}
	if req.FrontierOnly {
		// The pruned frontier equals the full frontier, so frontier
		// requests always take the pruned fast path; canonicalizing the
		// flag keeps the cache key shared with explicit prune=true.
		req.Prune = true
		req.Limit = 0
	} else {
		if req.Limit == 0 {
			req.Limit = 1000
		}
		if req.Limit > s.opts.MaxPoints {
			req.Limit = s.opts.MaxPoints
		}
	}
	// A replica started with -shard serves its slice for every frontier
	// request that did not ask for sharding itself.
	if req.Shard == "" && req.Shards == 0 && req.FrontierOnly && s.opts.DefaultShard.Count > 0 {
		req.Shard = s.opts.DefaultShard.String()
	}
	if req.Shard != "" {
		if req.Shards != 0 {
			return req, plan, badRequestf("shard and shards are mutually exclusive")
		}
		if !req.FrontierOnly {
			return req, plan, badRequestf("shard requires frontier_only")
		}
		sh, err := shard.Parse(req.Shard)
		if err != nil {
			return req, plan, badRequestf("%v", err)
		}
		plan.shard = sh
		req.Shard = sh.String()
	}
	if req.Delta {
		if !req.FrontierOnly {
			return req, plan, badRequestf("delta requires frontier_only")
		}
		if req.Shard != "" {
			return req, plan, badRequestf("delta is incompatible with shard slices")
		}
	}
	if req.Shards < 0 || req.Shards > maxFleetShards {
		return req, plan, badRequestf("shards must be in [0, %d], got %d", maxFleetShards, req.Shards)
	}
	if req.Shards > 0 && !req.FrontierOnly {
		return req, plan, badRequestf("shards requires frontier_only")
	}
	if len(req.Replicas) > 0 && req.Shards == 0 {
		return req, plan, badRequestf("replicas requires shards")
	}
	if req.Shards > 0 {
		// The fleet gate: fan-out — to configured or request-supplied
		// URLs — only on a server explicitly started as a coordinator.
		if len(s.opts.Replicas) == 0 {
			return req, plan, badRequestf("fleet mode is not enabled on this server (start with -replicas)")
		}
		if len(req.Replicas) > maxFleetReplicas {
			return req, plan, badRequestf("at most %d replicas, got %d", maxFleetReplicas, len(req.Replicas))
		}
		for i, u := range req.Replicas {
			if err := validReplicaURL(u); err != nil {
				return req, plan, badRequestf("replicas[%d]: %v", i, err)
			}
		}
	}

	if !s.genericOK {
		return req, plan, badRequestf("generic enumeration is not supported by this server's model source")
	}
	fullTypes := make([]cluster.GroupType, len(req.Types))
	plan.names = make([]string, len(req.Types))
	for i, tr := range req.Types {
		nm, err := s.calib.Model(req.Workload, specs[i])
		if err != nil {
			return req, plan, err
		}
		fullTypes[i] = cluster.GroupType{
			Model:       nm,
			MaxNodes:    tr.MaxNodes,
			NeedsSwitch: tr.NeedsSwitch,
		}
		plan.names[i] = tr.Node
	}
	// Table compilation is cheap (cost ∝ option count, not space size)
	// and amortized across requests by the table cache, so it runs before
	// the size guard: the guard protects enumeration, not compilation.
	plan.tables, err = s.genericTablesFor(req.Workload, req.Types, fullTypes)
	if err != nil {
		return req, plan, err
	}
	plan.spaceSize = plan.tables.full.Size()
	plan.walk = plan.tables.full
	if req.Prune {
		plan.prunedSize = plan.tables.pruned.Size()
		plan.walk = plan.tables.pruned
	}
	// The guard applies to the space that would actually be walked, so a
	// pruned request may be admitted where its full form is refused.
	if size := plan.enumeratedSize(); size > s.opts.MaxGenericSpace {
		return req, plan, badRequestf(
			"generic space of %d points exceeds the server bound %d; lower max_nodes or set prune/frontier_only",
			size, s.opts.MaxGenericSpace)
	}
	return req, plan, nil
}

// shardFrontier walks this server's slice of the plan's space through
// an order-independent indexed frontier (duplicates resolve toward the
// smallest serial index, so the coordinator's merge is deterministic),
// polling for cancellation at the same coarse interval as every other
// enumeration walk. walked reports how many points were evaluated.
func (s *Server) shardFrontier(ctx context.Context, plan genericPlan, req EnumerateGenericRequest) (sf cluster.ShardFrontier[cluster.GenericPoint], walked uint64, err error) {
	tr := pareto.TrackedIndexed[cluster.GenericPoint]{Clone: cluster.GenericPoint.Clone}
	n := 0
	var insErr error
	err = plan.walk.ForEachShard(req.Work, plan.shard, func(p cluster.GenericPoint, idx uint64) bool {
		n++
		if n&0x1fff == 0 && ctx.Err() != nil {
			return false
		}
		if _, err := tr.Insert(pareto.TE{Time: float64(p.Time), Energy: float64(p.Energy)}, idx, p); err != nil {
			insErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = insErr
	}
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		return sf, 0, err
	}
	pts, tes, idxs := tr.Frontier()
	return cluster.ShardFrontier[cluster.GenericPoint]{Points: pts, TEs: tes, Indices: idxs}, uint64(n), nil
}

// genericBytes returns the marshaled response for a canonicalized
// request, with /v1/enumerate's breaker + freshness semantics.
func (s *Server) genericBytes(r *http.Request, req EnumerateGenericRequest, plan genericPlan) (body []byte, cached, degraded bool, err error) {
	key, keyed := s.versionedKey("enumerate-generic", req.Workload, req)
	ctx := r.Context()
	v, cached, stale, err := s.doFresh(key, keyed, func() ([]byte, error) {
		var out []byte
		berr := s.breaker.Do(func() error {
			resp := EnumerateGenericResponse{
				Workload:     req.Workload,
				Work:         req.Work,
				TypeNames:    plan.names,
				SpaceSize:    plan.spaceSize,
				PrunedSize:   plan.prunedSize,
				FrontierOnly: req.FrontierOnly,
			}
			if plan.shard.Count > 0 {
				sf, walked, err := s.shardFrontier(ctx, plan, req)
				if err != nil {
					return err
				}
				s.genericPoints.Add(walked)
				resp.Shard = req.Shard
				resp.Points = make([]cluster.GenericPointSummary, len(sf.Points))
				for i, p := range sf.Points {
					resp.Points[i] = p.Summary(plan.names)
				}
				resp.Indices = sf.Indices
			} else if req.FrontierOnly {
				pts, _, err := plan.walk.FrontierParallel(req.Work, 0)
				if err != nil {
					return err
				}
				s.genericPoints.Add(plan.enumeratedSize())
				resp.Points = make([]cluster.GenericPointSummary, len(pts))
				for i, p := range pts {
					resp.Points[i] = p.Summary(plan.names)
				}
			} else {
				resp.Points = make([]cluster.GenericPointSummary, 0, req.Limit)
				n := 0
				err := plan.walk.ForEach(req.Work, func(p cluster.GenericPoint) bool {
					// Pure arithmetic walk: poll for cancellation at coarse
					// intervals, as in enumerateBytes.
					n++
					if n&0x1fff == 0 && ctx.Err() != nil {
						return false
					}
					if len(resp.Points) >= req.Limit {
						resp.Truncated = true
						return false
					}
					resp.Points = append(resp.Points, p.Summary(plan.names))
					return true
				})
				if err != nil {
					return err
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
				s.genericPoints.Add(uint64(n))
			}
			if plan.prunedSize > 0 {
				s.genericPruned.Add(plan.spaceSize - plan.prunedSize)
			}
			resp.Returned = len(resp.Points)
			// The cancellation-aware encoder: a deadline that expires while
			// a large body marshals aborts the encode, not just the walk.
			b, err := encodeGenericResponse(ctx, &resp)
			if err != nil {
				return err
			}
			out = b
			return nil
		})
		if berr != nil {
			return nil, berr
		}
		return out, nil
	})
	if stale {
		s.degraded.Inc()
		return v, false, true, nil
	}
	if err != nil {
		return nil, false, false, err
	}
	return v, cached, false, nil
}

func (s *Server) handleEnumerateGeneric(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[EnumerateGenericRequest](s, w, r)
	if !ok {
		return
	}
	norm, plan, err := s.normalizeEnumerateGeneric(req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	if wantsStream(r) {
		if norm.Shards > 0 {
			s.streamFleetGeneric(w, r, norm, plan, stream.NDJSON)
			return
		}
		s.streamGeneric(w, r, norm, plan, stream.NDJSON)
		return
	}
	if norm.Delta {
		replyError(w, r, badRequestf(
			"delta requires a streamed response (Accept: application/x-ndjson or ?stream=1)"))
		return
	}
	if norm.Shards > 0 {
		s.handleFleetGeneric(w, r, norm, plan)
		return
	}
	body, cached, degraded, err := s.genericBytes(r, norm, plan)
	if err != nil {
		replyError(w, r, err)
		return
	}
	if degraded {
		w.Header().Set("X-Degraded", "true")
		s.writeBody(w, r, markDegraded(body), false)
		return
	}
	s.writeBody(w, r, body, cached)
}
