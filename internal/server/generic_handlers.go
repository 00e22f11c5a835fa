package server

// The /v1/enumerate-generic request: the N-type configuration space,
// parsed into the same canonical query as /v1/enumerate (query.go), with
// its compiled tables cached by cluster spec and a size guard that
// rejects absurd spaces with a 400 before any enumeration runs.

import (
	"strconv"
	"strings"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/model"
	"heteromix/internal/shard"
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
	// Shard restricts this server's walk to slice "i/n": the serial
	// indices [⌊i·N/n⌋, ⌊(i+1)·N/n⌋) of the N-point walked space (see
	// internal/shard). Requires
	// frontier_only; the response then carries per-point serial indices
	// so a coordinator can merge slices deterministically.
	Shard string `json:"shard,omitempty"`
	// Shards, when positive, makes this server a coordinator: the
	// request fans out as that many shard requests across the replica
	// set and the partial frontiers merge back bit-identical to an
	// unsharded walk. Requires frontier_only and a fleet-enabled server.
	// Mutually exclusive with Shard.
	Shards int `json:"shards,omitempty"`
	// ProfileVersion, when positive, pins the request to that profile
	// version of its workload: a server whose active version differs
	// answers 409 (retryable) instead of silently computing under other
	// parameters. A fleet coordinator pins every shard to the version
	// its own table was compiled under, so a profile bump racing a
	// fan-out can never merge slices chosen under other models.
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
	// Points), which a coordinator merges on its own table.
	Shard   string   `json:"shard,omitempty"`
	Indices []uint64 `json:"indices,omitempty"`
	// FailedShards lists the shard indices whose replicas failed when a
	// coordinator served a degraded partial merge.
	FailedShards []int `json:"failed_shards,omitempty"`
	// Degraded marks a fleet merge missing the FailedShards slices.
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
// the workload's profile tag ("<workload>@v<ver>") plus the positional
// (node, max_nodes, needs_switch) list — deliberately excluding every
// per-request parameter (work size, limit, prune and frontier flags), so
// repeated traffic against the same cluster shares one compiled
// artifact. The profile tag retires the artifact on a version bump. The
// key is built in one sized buffer, its only allocation.
func genericKey(workload string, ver uint64, types []GenericTypeRequest) string {
	const maxNum = 20 // digits of a uint64, or of an int64 with its sign
	n := len("generic|@v") + len(workload) + maxNum
	for _, tr := range types {
		n += len("|::false") + len(tr.Node) + maxNum
	}
	var b strings.Builder
	b.Grow(n)
	var num [maxNum]byte
	b.WriteString("generic|")
	b.WriteString(workload)
	b.WriteString("@v")
	b.Write(strconv.AppendUint(num[:0], ver, 10))
	for _, tr := range types {
		b.WriteByte('|')
		b.WriteString(tr.Node)
		b.WriteByte(':')
		b.Write(strconv.AppendInt(num[:0], int64(tr.MaxNodes), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatBool(tr.NeedsSwitch))
	}
	return b.String()
}

// genericTablesFor memoizes the compiled artifact for a cluster spec at
// profile version ver. Models resolve inside the build, after the key is
// fixed, so a racing bump can leave retired models only under the
// retired key, and that entry is dropped once stored (dropIfRetired).
// Concurrent requests for the same cluster collapse onto one build, and
// build failures are never cached.
func (s *Server) genericTablesFor(workload string, ver uint64, reqTypes []GenericTypeRequest, specs []hwsim.NodeSpec) (*genericTables, error) {
	key := genericKey(workload, ver, reqTypes)
	v, cached, err := s.tables.Do(key, func() (tableArtifact, error) {
		full := make([]cluster.GroupType, len(reqTypes))
		for i, tr := range reqTypes {
			nm, err := s.calib.Model(workload, specs[i])
			if err != nil {
				return nil, err
			}
			full[i] = cluster.GroupType{Model: nm, MaxNodes: tr.MaxNodes, NeedsSwitch: tr.NeedsSwitch}
		}
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
	if !cached {
		dropIfRetired(s, s.tables, key)
	}
	return v.(*genericTables), nil
}

// genericQuery validates and canonicalizes a generic request and
// resolves it to a query over the compiled tables. Every rejection —
// unknown nodes, negative or oversized bounds, a space past
// MaxGenericSpace — is a badRequest taken before any enumeration, so
// clients cannot buy arbitrary compute or trip the breaker with
// nonsense.
func (s *Server) genericQuery(req EnumerateGenericRequest) (*query, error) {
	_, work, err := validWorkload(req.Workload, req.Work)
	if err != nil {
		return nil, err
	}
	req.Work = work
	// One version read keys the table, the result and every shard pin. A
	// pinned version must match it; a matched pin canonicalizes away so
	// pinned and unpinned requests share one cache entry (they are
	// computed under identical parameters).
	ver := s.calib.Version(req.Workload)
	if req.ProfileVersion != 0 {
		if req.ProfileVersion != ver {
			return nil, errProfileConflict{Workload: req.Workload, Want: req.ProfileVersion, Have: ver}
		}
		req.ProfileVersion = 0
	}
	if len(req.Types) == 0 {
		return nil, badRequestf("types is required (1 to %d entries)", maxGenericTypes)
	}
	if len(req.Types) > maxGenericTypes {
		return nil, badRequestf("at most %d types, got %d", maxGenericTypes, len(req.Types))
	}
	specs := make([]hwsim.NodeSpec, len(req.Types))
	names := make([]string, len(req.Types))
	total := 0
	for i, tr := range req.Types {
		spec, err := hwsim.ByName(tr.Node)
		if err != nil {
			return nil, badRequestf("types[%d].node: %v", i, err)
		}
		specs[i], names[i] = spec, tr.Node
		if tr.MaxNodes < 0 || tr.MaxNodes > s.opts.MaxNodes {
			return nil, badRequestf("types[%d].max_nodes must be in [0, %d], got %d",
				i, s.opts.MaxNodes, tr.MaxNodes)
		}
		total += tr.MaxNodes
	}
	if total == 0 {
		return nil, badRequestf("at least one types[].max_nodes must be positive")
	}
	if req.Limit < 0 {
		return nil, badRequestf("limit must be non-negative, got %d", req.Limit)
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
	var sh shard.Shard
	if req.Shard != "" {
		if req.Shards != 0 {
			return nil, badRequestf("shard and shards are mutually exclusive")
		}
		if !req.FrontierOnly {
			return nil, badRequestf("shard requires frontier_only")
		}
		if sh, err = shard.Parse(req.Shard); err != nil {
			return nil, badRequestf("%v", err)
		}
		req.Shard = sh.String()
	}
	if req.Delta {
		if !req.FrontierOnly {
			return nil, badRequestf("delta requires frontier_only")
		}
		if req.Shard != "" {
			return nil, badRequestf("delta is incompatible with shard slices")
		}
	}
	if req.Shards < 0 || req.Shards > maxFleetShards {
		return nil, badRequestf("shards must be in [0, %d], got %d", maxFleetShards, req.Shards)
	}
	if req.Shards > 0 && !req.FrontierOnly {
		return nil, badRequestf("shards requires frontier_only")
	}
	// The fleet gate: fan-out only on a server explicitly started as a
	// coordinator, and only to its configured replicas.
	if req.Shards > 0 && len(s.opts.Replicas) == 0 {
		return nil, badRequestf("fleet mode is not enabled on this server (start with -replicas)")
	}

	if !s.genericOK {
		return nil, badRequestf("generic enumeration is not supported by this server's model source")
	}
	// Table compilation is cheap (cost ∝ option count, not space size)
	// and amortized across requests by the table cache, so it runs before
	// the size guard: the guard protects enumeration, not compilation.
	tables, err := s.genericTablesFor(req.Workload, ver, req.Types, specs)
	if err != nil {
		return nil, err
	}
	space := tables.full.Size()
	walk, prunedSize := tables.full, uint64(0)
	if req.Prune {
		walk, prunedSize = tables.pruned, tables.pruned.Size()
	}
	// The guard applies to the space that would actually be walked, so a
	// pruned request may be admitted where its full form is refused.
	if size := walk.Size(); size > s.opts.MaxGenericSpace {
		return nil, badRequestf(
			"generic space of %d points exceeds the server bound %d; lower max_nodes or set prune/frontier_only",
			size, s.opts.MaxGenericSpace)
	}
	q := &query{
		version: ver,
		work:    req.Work,
		limit:   req.Limit,
		delta:   req.Delta,
		plan:    choosePlan(req.Shards, sh, req.FrontierOnly),
		shard:   sh,
		head: streamHead{
			Workload:     req.Workload,
			Work:         req.Work,
			TypeNames:    names,
			SpaceSize:    space,
			PrunedSize:   prunedSize,
			FrontierOnly: req.FrontierOnly,
			Shard:        req.Shard,
			Shards:       req.Shards,
		},
		walker: walker{gen: walk, names: names},
		gen:    &req,
	}
	if prunedSize > 0 {
		q.pruned = space - prunedSize
	}
	return q, nil
}
