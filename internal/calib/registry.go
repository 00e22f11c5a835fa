package calib

// The Registry makes profiles first-class versioned objects. It wraps
// the server's base model source, overlays refit models per
// (workload, node), and assigns every workload a monotonic profile
// version plus a content hash per override. The server resolves every
// model and cache key through it, so a version bump — an automatic
// refit, an operator Install, a snapshot load — atomically retires
// every cached table and memoized result computed under the old
// parameters: cache keys carry the version, the bump callback deletes
// the old version's entries, and no new request ever resolves to the
// retired version again.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"heteromix/internal/cluster"
	"heteromix/internal/hwsim"
	"heteromix/internal/model"
)

// ModelSource provides fitted two-type spaces per workload;
// *experiments.Suite implements it (structurally identical to the
// server's interface, declared here to keep calib import-cycle-free).
type ModelSource interface {
	Space(workload string) (cluster.Space, error)
}

// NodeModelSource provides per-type fitted models, as the generic
// N-type path needs. *experiments.Suite implements it.
type NodeModelSource interface {
	Model(workload string, spec hwsim.NodeSpec) (model.NodeModel, error)
}

// ErrUnknownNode marks a (workload, node) pair the base source cannot
// model. The server maps it to a 400.
var ErrUnknownNode = errors.New("calib: unknown node for this model source")

// Key identifies one calibration target.
type Key struct {
	Workload, Node string
}

// Entry is one installed profile override: a versioned, content-hashed
// model that supersedes the base fit for its pair.
type Entry struct {
	Workload string `json:"workload"`
	Node     string `json:"node"`
	// Version is the workload's profile version at install time
	// (monotonic per workload; version 1 is the base fit).
	Version uint64 `json:"version"`
	// Hash is the content hash of the model's canonical persisted form
	// (first 16 hex chars of its SHA-256).
	Hash string `json:"hash"`
	// Source records how the entry arrived: "refit", "install",
	// "snapshot", "fitmodel".
	Source string `json:"source"`
	// Quality is the refit's fit statistics, when the entry came from
	// one.
	Quality *Quality `json:"quality,omitempty"`

	model model.NodeModel
}

// Model returns the entry's node model.
func (e Entry) Model() model.NodeModel { return e.model }

// Status is one pair's row in GET /v1/profiles: the active profile's
// identity plus the drift tracker's state.
type Status struct {
	Workload string `json:"workload"`
	Node     string `json:"node"`
	Version  uint64 `json:"version"`
	// Hash is empty while the base fit is active.
	Hash string `json:"hash,omitempty"`
	// Source is "base" until an override is installed.
	Source string `json:"source"`
	// Samples is how many observations the bounded store holds.
	Samples int `json:"samples"`
	// Refits counts installed refits for the pair.
	Refits uint64 `json:"refits"`
	// Drift is the rolling mean relative prediction error of the active
	// model over the last DriftWindow samples.
	Drift   float64  `json:"drift"`
	Quality *Quality `json:"quality,omitempty"`
}

// BumpEvent describes one profile version bump, delivered to
// Options.OnBump after the registry lock is released.
type BumpEvent struct {
	Workload, Node string
	// OldVersion and NewVersion are the workload's versions around the
	// bump; cache keys carrying OldVersion are now unreachable.
	OldVersion, NewVersion uint64
	// OldGeneration and NewGeneration are the global profile generation
	// around the bump (the coarse key component of caches that cannot
	// see a workload, e.g. raw batch-item memoization).
	OldGeneration, NewGeneration uint64
	Hash                         string
	Source                       string
}

// Options tunes a Registry. Zero values select the defaults.
type Options struct {
	// RefitThreshold is the rolling mean relative error above which an
	// ingest triggers an automatic refit (default 0.1 = 10%).
	RefitThreshold float64
	// MaxSamples bounds each pair's sample store (default 256).
	MaxSamples int
	// MinRefitSamples is the fewest stored samples a refit may fit on
	// (default 8).
	MinRefitSamples int
	// DriftWindow is how many recent samples the rolling error covers
	// (default 32).
	DriftWindow int
	// OnBump observes version bumps (the server invalidates caches and
	// persists snapshots here). Called outside the registry lock.
	OnBump func(BumpEvent)
}

func (o Options) withDefaults() Options {
	if o.RefitThreshold <= 0 {
		o.RefitThreshold = 0.1
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 256
	}
	if o.MinRefitSamples <= 0 {
		o.MinRefitSamples = 8
	}
	if o.DriftWindow <= 0 {
		o.DriftWindow = 32
	}
	return o
}

// tracker is one pair's bounded sample store and rolling error window.
type tracker struct {
	samples []Sample
	// window holds the last DriftWindow samples' relative errors
	// against the ACTIVE model (recomputed on bump).
	window []float64
	refits uint64
}

func (t *tracker) drift() float64 {
	if len(t.window) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range t.window {
		sum += e
	}
	return sum / float64(len(t.window))
}

// Registry overlays versioned profile overrides on a base model source.
// Safe for concurrent use. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	base  ModelSource
	nodes NodeModelSource // nil when base does not implement it
	opts  Options

	// baseDigest hashes base's fingerprint, when it has one (see
	// Profile).
	baseDigest uint64

	mu         sync.Mutex
	versions   map[string]uint64 // per workload; absent = 1
	generation uint64
	overrides  map[Key]*Entry
	trackers   map[Key]*tracker
}

// NewRegistry wraps base (nil is allowed: the registry then serves
// only installed overrides, as cmd/fitmodel's round-trip does).
func NewRegistry(base ModelSource, opts Options) *Registry {
	r := &Registry{
		base:       base,
		opts:       opts.withDefaults(),
		versions:   make(map[string]uint64),
		generation: 1,
		overrides:  make(map[Key]*Entry),
		trackers:   make(map[Key]*tracker),
	}
	if nms, ok := base.(NodeModelSource); ok {
		r.nodes = nms
	}
	r.baseDigest = fnvOffset
	if fp, ok := base.(interface{ ModelFingerprint() string }); ok {
		r.baseDigest = fnv64(r.baseDigest, fp.ModelFingerprint())
	}
	return r
}

// Version returns the workload's active profile version (1 until a
// bump).
func (r *Registry) Version(workload string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.versionLocked(workload)
}

// Profile returns the workload's active version and a digest of the
// models it resolves to: the base source's fingerprint (experiments.Suite
// has one; other sources contribute nothing) plus the node and content
// hash of every override installed for the workload. The version is a
// per-process counter, so two processes at one version may hold other
// models; their digests for the workload agree exactly when its models
// do (up to a 64-bit hash collision).
func (r *Registry) Profile(workload string) (version, digest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	digest = r.baseDigest
	for k, e := range r.overrides {
		if k.Workload == workload {
			// Summed, so map order cannot change the digest.
			digest += fnv64(fnv64(fnv64(fnvOffset, k.Node), "\x00"), e.Hash)
		}
	}
	return r.versionLocked(workload), digest
}

// fnvOffset seeds fnv64, the 64-bit FNV-1a hash of s continuing from h.
const fnvOffset = 14695981039346656037

func fnv64(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (r *Registry) versionLocked(workload string) uint64 {
	if v, ok := r.versions[workload]; ok {
		return v
	}
	return 1
}

// Generation returns the global profile generation: 1 at start,
// incremented on every bump of any workload.
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.generation
}

// Space implements ModelSource: the base space with any overrides for
// its two node types applied.
func (r *Registry) Space(workload string) (cluster.Space, error) {
	if r.base == nil {
		return cluster.Space{}, fmt.Errorf("calib: no base model source")
	}
	sp, err := r.base.Space(workload)
	if err != nil {
		return cluster.Space{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.overrides[Key{workload, sp.ARM.Spec.Name}]; ok {
		sp.ARM = e.model
	}
	if e, ok := r.overrides[Key{workload, sp.AMD.Spec.Name}]; ok {
		sp.AMD = e.model
	}
	return sp, nil
}

// Model implements NodeModelSource: the override when one is
// installed, the base model otherwise.
func (r *Registry) Model(workload string, spec hwsim.NodeSpec) (model.NodeModel, error) {
	r.mu.Lock()
	if e, ok := r.overrides[Key{workload, spec.Name}]; ok {
		nm := e.model
		r.mu.Unlock()
		return nm, nil
	}
	r.mu.Unlock()
	if r.nodes != nil {
		return r.nodes.Model(workload, spec)
	}
	return r.baseModelBySpace(workload, spec.Name)
}

// activeLocked returns the pair's active model: override else base.
func (r *Registry) activeLocked(k Key) (model.NodeModel, error) {
	if e, ok := r.overrides[k]; ok {
		return e.model, nil
	}
	return r.baseModel(k.Workload, k.Node)
}

// baseModel resolves the base (pre-override) model for a pair.
func (r *Registry) baseModel(workload, node string) (model.NodeModel, error) {
	if r.nodes != nil {
		spec, err := hwsim.ByName(node)
		if err != nil {
			return model.NodeModel{}, fmt.Errorf("%w: %v", ErrUnknownNode, err)
		}
		return r.nodes.Model(workload, spec)
	}
	return r.baseModelBySpace(workload, node)
}

// baseModelBySpace matches node against the two-type space's specs —
// the fallback for base sources without per-spec models.
func (r *Registry) baseModelBySpace(workload, node string) (model.NodeModel, error) {
	if r.base == nil {
		return model.NodeModel{}, fmt.Errorf("%w: %q (no base model source)", ErrUnknownNode, node)
	}
	sp, err := r.base.Space(workload)
	if err != nil {
		return model.NodeModel{}, err
	}
	switch node {
	case sp.ARM.Spec.Name:
		return sp.ARM, nil
	case sp.AMD.Spec.Name:
		return sp.AMD, nil
	}
	return model.NodeModel{}, fmt.Errorf("%w: %q is not a type of %q's space", ErrUnknownNode, node, workload)
}

// IngestResult reports one Ingest call's outcome.
type IngestResult struct {
	// Accepted is how many samples entered the store this call; Stored
	// is the store's size after.
	Accepted int `json:"accepted"`
	Stored   int `json:"stored"`
	// DriftBefore and Drift are the rolling mean relative error before
	// and after any refit (equal when none ran).
	DriftBefore float64 `json:"drift_before"`
	Drift       float64 `json:"drift"`
	// Refit reports whether a refit was installed; RefitSkipped carries
	// the reason drift exceeded the threshold but nothing was installed
	// ("degenerate fit: ...", "unchanged").
	Refit        bool   `json:"refit"`
	RefitSkipped string `json:"refit_skipped,omitempty"`
	// Version and Hash identify the workload's active profile after the
	// call (Hash empty while the base fit is active for this pair).
	Version uint64 `json:"profile_version"`
	Hash    string `json:"hash,omitempty"`
	// Quality is the installed refit's fit statistics.
	Quality *Quality `json:"quality,omitempty"`
}

// Ingest appends samples to the pair's bounded store, updates the
// rolling drift window against the active model, and — when drift
// exceeds RefitThreshold with at least MinRefitSamples stored — refits
// from the base model and installs the result under a bumped version.
// A refit whose content hash equals the active override's is skipped
// ("unchanged"), so a drift plateau cannot churn versions. Samples the
// active model cannot evaluate answer ErrBadSample and nothing is
// stored.
func (r *Registry) Ingest(workload, node string, samples []Sample) (IngestResult, error) {
	var res IngestResult
	if len(samples) == 0 {
		return res, fmt.Errorf("%w: no samples", ErrBadSample)
	}
	r.mu.Lock()
	ev, err := func() (*BumpEvent, error) {
		k := Key{workload, node}
		active, err := r.activeLocked(k)
		if err != nil {
			return nil, err
		}
		// Validate the whole batch against the active model before
		// mutating anything, so a bad tail cannot leave a half-ingested
		// batch behind.
		errs := make([]float64, len(samples))
		for i, smp := range samples {
			e, err := relErr(active, smp)
			if err != nil {
				return nil, fmt.Errorf("samples[%d]: %w", i, err)
			}
			errs[i] = e
		}
		t := r.trackers[k]
		if t == nil {
			t = &tracker{}
			r.trackers[k] = t
		}
		t.samples = append(t.samples, samples...)
		if over := len(t.samples) - r.opts.MaxSamples; over > 0 {
			t.samples = append(t.samples[:0], t.samples[over:]...)
		}
		t.window = append(t.window, errs...)
		if over := len(t.window) - r.opts.DriftWindow; over > 0 {
			t.window = append(t.window[:0], t.window[over:]...)
		}
		res.Accepted = len(samples)
		res.Stored = len(t.samples)
		res.DriftBefore = t.drift()
		res.Drift = res.DriftBefore
		if cur, ok := r.overrides[k]; ok {
			res.Hash = cur.Hash
		}

		if res.DriftBefore <= r.opts.RefitThreshold || len(t.samples) < r.opts.MinRefitSamples {
			return nil, nil
		}
		// Drift crossed the threshold: refit from base on the stored
		// samples.
		base, err := r.baseModel(workload, node)
		if err != nil {
			return nil, err
		}
		refit, q, err := Refit(base, t.samples)
		if err != nil {
			// Degenerate data is a skip, not a request error: the
			// samples stay stored and a richer batch may succeed.
			res.RefitSkipped = err.Error()
			return nil, nil
		}
		hash, err := HashModel(refit)
		if err != nil {
			res.RefitSkipped = fmt.Sprintf("unhashable refit: %v", err)
			return nil, nil
		}
		if cur, ok := r.overrides[k]; ok && cur.Hash == hash {
			// The data still supports exactly the active override; a
			// version bump would invalidate every cache for nothing.
			res.RefitSkipped = "unchanged"
			return nil, nil
		}
		ev := r.installLocked(k, refit, hash, "refit", &q)
		t.refits++
		res.Refit = true
		res.Quality = &q
		res.Hash = hash
		// The window was measured against the old model; re-measure it
		// against the installed one so the post-refit drift gauge
		// reflects the new model's accuracy.
		tail := t.samples
		if len(tail) > r.opts.DriftWindow {
			tail = tail[len(tail)-r.opts.DriftWindow:]
		}
		t.window = t.window[:0]
		for _, smp := range tail {
			if e, err := relErr(refit, smp); err == nil {
				t.window = append(t.window, e)
			}
		}
		res.Drift = t.drift()
		return &ev, nil
	}()
	res.Version = r.versionLocked(workload)
	r.mu.Unlock()
	if err != nil {
		return res, err
	}
	if ev != nil && r.opts.OnBump != nil {
		r.opts.OnBump(*ev)
	}
	return res, nil
}

// installLocked installs an override and bumps the workload version
// and global generation. Caller holds r.mu.
func (r *Registry) installLocked(k Key, nm model.NodeModel, hash, source string, q *Quality) BumpEvent {
	oldV := r.versionLocked(k.Workload)
	newV := oldV + 1
	r.versions[k.Workload] = newV
	oldG := r.generation
	r.generation++
	r.overrides[k] = &Entry{
		Workload: k.Workload,
		Node:     k.Node,
		Version:  newV,
		Hash:     hash,
		Source:   source,
		Quality:  q,
		model:    nm,
	}
	return BumpEvent{
		Workload: k.Workload, Node: k.Node,
		OldVersion: oldV, NewVersion: newV,
		OldGeneration: oldG, NewGeneration: r.generation,
		Hash: hash, Source: source,
	}
}

// Install installs nm as the pair's active profile under a bumped
// version, as an operator push or a loaded fitmodel profile would. The
// model must be persistable (it is content-hashed through its
// canonical persisted form).
func (r *Registry) Install(workload, node string, nm model.NodeModel, source string) (Entry, error) {
	hash, err := HashModel(nm)
	if err != nil {
		return Entry{}, fmt.Errorf("calib: install: %w", err)
	}
	r.mu.Lock()
	ev := r.installLocked(Key{workload, node}, nm, hash, source, nil)
	e := *r.overrides[Key{workload, node}]
	r.mu.Unlock()
	if r.opts.OnBump != nil {
		r.opts.OnBump(ev)
	}
	return e, nil
}

// MaxDrift returns the worst rolling drift across all tracked pairs —
// the value the server exports as its drift gauge.
func (r *Registry) MaxDrift() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	worst := 0.0
	for _, t := range r.trackers {
		if d := t.drift(); d > worst {
			worst = d
		}
	}
	return worst
}

// Statuses returns one row per known pair (tracked, overridden or
// both), sorted by workload then node.
func (r *Registry) Statuses() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make(map[Key]bool)
	for k := range r.overrides {
		keys[k] = true
	}
	for k := range r.trackers {
		keys[k] = true
	}
	out := make([]Status, 0, len(keys))
	for k := range keys {
		st := Status{
			Workload: k.Workload,
			Node:     k.Node,
			Version:  r.versionLocked(k.Workload),
			Source:   "base",
		}
		if e, ok := r.overrides[k]; ok {
			st.Hash = e.Hash
			st.Source = e.Source
			st.Quality = e.Quality
		}
		if t, ok := r.trackers[k]; ok {
			st.Samples = len(t.samples)
			st.Refits = t.refits
			st.Drift = t.drift()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// StateHash returns a content hash (16 hex chars) of the registry's
// full profile state: every workload's active version plus every
// installed override's identity (workload, node, version, content
// hash). Two registries report the same StateHash exactly when every
// cache key either would mint resolves to the same model parameters, so
// cache snapshots are bound to it: a snapshot written under one state
// hash is rejected by a server in any other state rather than silently
// serving another profile's numbers.
func (r *Registry) StateHash() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	workloads := make([]string, 0, len(r.versions))
	for w := range r.versions {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	keys := make([]Key, 0, len(r.overrides))
	for k := range r.overrides {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Workload != keys[j].Workload {
			return keys[i].Workload < keys[j].Workload
		}
		return keys[i].Node < keys[j].Node
	})
	h := sha256.New()
	for _, w := range workloads {
		fmt.Fprintf(h, "v|%s|%d\n", w, r.versions[w])
	}
	for _, k := range keys {
		e := r.overrides[k]
		fmt.Fprintf(h, "o|%s|%s|%d|%s\n", k.Workload, k.Node, e.Version, e.Hash)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Overrides returns the installed entries, sorted by workload then
// node (snapshot persistence order).
func (r *Registry) Overrides() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.overrides))
	for _, e := range r.overrides {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Node < out[j].Node
	})
	return out
}
