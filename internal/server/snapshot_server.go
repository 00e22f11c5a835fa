package server

// Cold-start elimination: the serving side of internal/snapshot.
//
// A heteromixd restart used to start with empty caches — the first
// /v1/predict paid a full kernel-table compile and the first
// /v1/enumerate-generic two of them. Three mechanisms close that gap:
//
//   - Preheat: with Options.SnapshotPath set, New decodes and validates
//     the snapshot file before the listener can open and loads the
//     hottest entries that fit the caches' entry and byte limits, so
//     the first request is a cache hit.
//   - Background writer: with SnapshotInterval > 0 the hottest entries
//     persist atomically (temp file + rename, self-verified by a decode
//     of the encoded bytes) every interval and once more on Close.
//   - Peer warming: with PeerWarm set, the first ring sibling the fleet
//     prober sees healthy donates its hottest entries over
//     GET /v1/snapshot. The pull carries this replica's calibration
//     state hash; a sibling under different profiles answers 409 and
//     nothing loads — a stale snapshot never poisons a cache.
//
// Every load path is all-or-nothing: compatibility (profile state hash,
// model fingerprint, build version, format version) is checked first,
// every artifact is rebuilt from its dump before either cache is
// touched, and any failure leaves the caches exactly as they were.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"time"

	"heteromix/internal/buildinfo"
	"heteromix/internal/cluster"
	"heteromix/internal/fleethealth"
	"heteromix/internal/lru"
	"heteromix/internal/snapshot"
)

const (
	// defaultMaxSnapshotBytes caps snapshot files and bodies (64 MiB).
	defaultMaxSnapshotBytes = 64 << 20
	// profileHashHeader carries the requester's calibration state hash on
	// GET /v1/snapshot; a mismatch answers 409 instead of serving entries
	// the requester could never validate.
	profileHashHeader = "X-Profile-Hash"
)

// snapshotInfo is the last applied-or-written snapshot's identity,
// reported by /healthz.
type snapshotInfo struct {
	hash    string
	created time.Time
	tables  int
	generic int
	results int
}

// modelFingerprint identifies the base model source's deterministic
// inputs (experiments.Suite implements it); sources without one bind
// snapshots to the build version alone.
func (s *Server) modelFingerprint() string {
	if fp, ok := s.opts.Models.(interface{ ModelFingerprint() string }); ok {
		return fp.ModelFingerprint()
	}
	return ""
}

// BuildSnapshot harvests the caches' hottest entries into a snapshot
// bound to the current profile state, model fingerprint and build.
// Harvesting preserves recency order (hottest first) without perturbing
// it, so the loader can trim to any prefix and keep the hottest tail.
func (s *Server) BuildSnapshot() *snapshot.Snapshot {
	return s.buildSnapshot(-1, -1)
}

// buildSnapshot bounds the harvest: negative limits take everything, 0
// skips the section — the size-capping loop in handleSnapshotGet halves
// its way down to 0.
func (s *Server) buildSnapshot(maxTables, maxResults int) *snapshot.Snapshot {
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			BuildVersion:     buildinfo.Get().String(),
			ProfileHash:      s.calib.StateHash(),
			ModelFingerprint: s.modelFingerprint(),
			CreatedUnixNano:  time.Now().UnixNano(),
		},
	}
	if maxTables != 0 {
		lim := maxTables
		if lim < 0 {
			lim = 0 // Hottest: 0 = everything
		}
		for _, e := range s.tables.Hottest(lim) {
			switch v := e.Val.(type) {
			case *twoTypeTable:
				snap.Tables = append(snap.Tables, snapshot.TableEntry{
					Key: e.Key, Workload: v.workload, NoSwitch: v.noSwitch, Dump: v.Dump(),
				})
			case *genericTables:
				snap.Generic = append(snap.Generic, snapshot.GenericEntry{
					Key: e.Key, Full: v.full.Dump(), Pruned: v.pruned.Dump(),
				})
			}
		}
	}
	if maxResults != 0 {
		lim := maxResults
		if lim < 0 {
			lim = 0
		}
		for _, e := range s.cache.Hottest(lim) {
			snap.Results = append(snap.Results, snapshot.ResultEntry{Key: e.Key, Body: e.Val})
		}
	}
	return snap
}

// applySnapshot validates a decoded snapshot against this server's
// state and loads it into the caches. All-or-nothing: any
// incompatibility or corrupt dump returns before either cache is
// touched. Each cache then loads the hottest prefix that fits its own
// entry and byte limits (lru.Cache.Load).
func (s *Server) applySnapshot(snap *snapshot.Snapshot) error {
	if err := snap.Meta.Compatible(s.calib.StateHash(), s.modelFingerprint(), buildinfo.Get().String()); err != nil {
		return err
	}
	// Rebuild every artifact before the first insert. Because the state
	// hash matched, the snapshot's keys embed exactly the profile
	// versions this server would mint, and Space resolves the same
	// models the donor compiled against. Two-type tables go first, so
	// the predict hot path wins when the table cache cannot hold both.
	arts := make([]lru.Entry[tableArtifact], 0, len(snap.Tables)+len(snap.Generic))
	for _, e := range snap.Tables {
		space, err := s.models.Space(e.Workload)
		if err != nil {
			return fmt.Errorf("snapshot table %q: %w", e.Key, err)
		}
		space.NoSwitchEnergy = e.NoSwitch
		tbl, err := space.NewTableFromDump(e.Dump)
		if err != nil {
			return fmt.Errorf("snapshot table %q: %w", e.Key, err)
		}
		arts = append(arts, lru.Entry[tableArtifact]{Key: e.Key,
			Val: &twoTypeTable{Table: tbl, workload: e.Workload, noSwitch: e.NoSwitch}})
	}
	for _, e := range snap.Generic {
		full, err := cluster.NewGenericTableFromDump(e.Full)
		if err != nil {
			return fmt.Errorf("snapshot generic %q: %w", e.Key, err)
		}
		pruned, err := cluster.NewGenericTableFromDump(e.Pruned)
		if err != nil {
			return fmt.Errorf("snapshot generic %q: %w", e.Key, err)
		}
		arts = append(arts, lru.Entry[tableArtifact]{Key: e.Key, Val: &genericTables{full: full, pruned: pruned}})
	}
	results := make([]lru.Entry[[]byte], len(snap.Results))
	for i, e := range snap.Results {
		results[i] = lru.Entry[[]byte]{Key: e.Key, Val: e.Body}
	}

	keptTables := s.tables.Load(arts)
	nTables := min(keptTables, len(snap.Tables))
	nGeneric := keptTables - nTables
	keptResults := s.cache.Load(results)
	s.setSnapInfo(snap, nTables, nGeneric, keptResults)
	return nil
}

func (s *Server) setSnapInfo(snap *snapshot.Snapshot, tables, generic, results int) {
	s.snapMu.Lock()
	s.snapInfo = snapshotInfo{
		hash:    snap.FileHash,
		created: time.Unix(0, snap.Meta.CreatedUnixNano),
		tables:  tables,
		generic: generic,
		results: results,
	}
	s.snapMu.Unlock()
}

// preheat loads the snapshot file during New, before the listener can
// open. A missing file is a normal first start; an incompatible one is
// counted and skipped (cold start); a corrupt one is an error the
// caller turns into a failed New.
func (s *Server) preheat(path string) error {
	snap, err := snapshot.ReadFile(path, s.opts.MaxSnapshotBytes)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err == nil {
		err = s.applySnapshot(snap)
	}
	// A file from an older build fails at decode (format version) or at
	// apply (profile, model or build); either way it is stale, not
	// corrupt.
	var ie *snapshot.IncompatibleError
	if errors.As(err, &ie) {
		s.snapshotRejects.Inc()
		return nil
	}
	if err != nil {
		return err
	}
	s.snapshotLoads.Inc()
	if fi, err := os.Stat(path); err == nil {
		s.snapshotBytes.Set(fi.Size())
	}
	return nil
}

// snapshotWriter persists the hottest cache entries every
// SnapshotInterval, and once more when Close stops it, with the same
// atomic write-rename + self-verify discipline as the calibration
// snapshot (internal/snapshot.WriteFile).
func (s *Server) snapshotWriter() {
	defer close(s.snapDone)
	t := time.NewTicker(s.opts.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.saveSnapshot()
		case <-s.snapStop:
			s.saveSnapshot()
			return
		}
	}
}

func (s *Server) saveSnapshot() {
	snap := s.BuildSnapshot()
	if err := snapshot.WriteFile(s.opts.SnapshotPath, snap); err != nil {
		s.snapshotSaveErrs.Inc()
		return
	}
	s.snapshotSaves.Inc()
	if fi, err := os.Stat(s.opts.SnapshotPath); err == nil {
		s.snapshotBytes.Set(fi.Size())
	}
	s.setSnapInfo(snap, len(snap.Tables), len(snap.Generic), len(snap.Results))
}

// handleSnapshotGet serves this server's hottest entries as a binary
// snapshot for a sibling's peer warm. A requester that states its
// calibration hash (X-Profile-Hash or ?profile_hash=) and differs gets
// 409 — cheaper than shipping megabytes the requester must then reject,
// and it keeps cache poisoning structurally impossible. Oversized
// harvests are halved until they fit MaxSnapshotBytes: a size-capped
// snapshot drops the coldest entries, never the hottest.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	want := r.Header.Get(profileHashHeader)
	if want == "" {
		want = r.URL.Query().Get("profile_hash")
	}
	have := s.calib.StateHash()
	if want != "" && want != have {
		s.snapshotRejects.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict,
			"profile state %s does not match requested %s", have, want)
		return
	}
	snap := s.BuildSnapshot()
	data := snapshot.Encode(snap)
	tl, rl := len(snap.Tables)+len(snap.Generic), len(snap.Results)
	for int64(len(data)) > s.opts.MaxSnapshotBytes && (tl > 0 || rl > 0) {
		tl, rl = tl/2, rl/2
		snap = s.buildSnapshot(tl, rl)
		data = snapshot.Encode(snap)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(profileHashHeader, snap.Meta.ProfileHash)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// maybePeerWarm launches one warm pull the first time a replica probe
// lands Healthy. The latch resets on failure so a later transition (or
// the same sibling recovering again) retries.
func (s *Server) maybePeerWarm(target string, to fleethealth.State) {
	if !s.opts.PeerWarm || to != fleethealth.Healthy {
		return
	}
	if !s.peerWarmed.CompareAndSwap(false, true) {
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer cancel()
		if err := s.WarmFromPeer(ctx, target); err != nil {
			s.peerWarmed.Store(false)
		}
	}()
}

// peerWarmAtStartup watches the fleet prober's snapshots until a
// sibling shows healthy and makes the initial warm pull — the cold
// start the OnTransition hook cannot see because siblings that were
// healthy all along never transition. Attempts are bounded: a sibling
// that keeps refusing (e.g. divergent profiles) hands retry duty back
// to the transition hook instead of polling forever.
func (s *Server) peerWarmAtStartup() {
	defer close(s.warmDone)
	const maxStartupAttempts = 5
	d := s.opts.ProbeInterval / 4
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	tick := time.NewTicker(d)
	defer tick.Stop()
	attempts := 0
	for {
		select {
		case <-s.warmStop:
			return
		case <-tick.C:
			if s.peerWarmed.Load() {
				return
			}
			snap := s.health.Snapshot()
			for _, rep := range snap.Replicas {
				if rep.State == fleethealth.Healthy {
					s.maybePeerWarm(rep.URL, fleethealth.Healthy)
					attempts++
					break
				}
			}
			if attempts >= maxStartupAttempts {
				return
			}
		}
	}
}

// WarmFromPeer pulls target's snapshot over GET /v1/snapshot and loads
// it, through the same breaker-guarded call as every other fleet
// request. A refused, failed or oversized pull is only a counted
// reject, not a breaker failure. Exported so tests and operator tooling
// can trigger a warm deterministically.
func (s *Server) WarmFromPeer(ctx context.Context, target string) error {
	if s.fleet == nil {
		return fmt.Errorf("peer warming requires a fleet-enabled server")
	}
	var status, size int
	var snap *snapshot.Snapshot
	var derr error
	endpoint := "/v1/snapshot?profile_hash=" + url.QueryEscape(s.calib.StateHash())
	err := s.fleet.call(ctx, target, http.MethodGet, endpoint, nil, s.opts.MaxSnapshotBytes+1, func(st int, _ http.Header, b []byte) error {
		status, size = st, len(b)
		if st == http.StatusOK {
			// Decode copies every field out of b, so snap outlives the
			// pooled buffer.
			snap, derr = snapshot.DecodeLimited(b, s.opts.MaxSnapshotBytes)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("warming from %s: %w", target, err)
	}
	switch {
	case status == http.StatusConflict:
		s.snapshotRejects.Inc()
		return fmt.Errorf("peer %s refused snapshot: profile state differs", target)
	case status != http.StatusOK:
		s.snapshotRejects.Inc()
		return fmt.Errorf("peer %s answered %d to snapshot pull", target, status)
	case derr != nil:
		s.snapshotRejects.Inc()
		return fmt.Errorf("peer %s snapshot: %w", target, derr)
	}
	if err := s.applySnapshot(snap); err != nil {
		s.snapshotRejects.Inc()
		return fmt.Errorf("peer %s snapshot: %w", target, err)
	}
	s.snapshotLoads.Inc()
	s.snapshotBytes.Set(int64(size))
	return nil
}

// SnapshotHealth is /healthz's view of the snapshot subsystem, present
// once any snapshot has been loaded, written or rejected.
type SnapshotHealth struct {
	// FileHash identifies the last snapshot loaded or written.
	FileHash string `json:"file_hash,omitempty"`
	// AgeSeconds is how old that snapshot's content is (its creation
	// time, not when this process touched it).
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// Tables, Generic and Results count the entries it carried (loads
	// report what fit the caches, saves what was harvested).
	Tables  int    `json:"tables"`
	Generic int    `json:"generic"`
	Results int    `json:"results"`
	Loads   uint64 `json:"loads"`
	Saves   uint64 `json:"saves"`
	Rejects uint64 `json:"rejects"`
}

func (s *Server) snapshotHealth() *SnapshotHealth {
	loads, saves, rejects := s.snapshotLoads.Value(), s.snapshotSaves.Value(), s.snapshotRejects.Value()
	s.snapMu.Lock()
	info := s.snapInfo
	s.snapMu.Unlock()
	if loads == 0 && saves == 0 && rejects == 0 && info.hash == "" {
		return nil
	}
	h := &SnapshotHealth{
		FileHash: info.hash,
		Tables:   info.tables,
		Generic:  info.generic,
		Results:  info.results,
		Loads:    loads,
		Saves:    saves,
		Rejects:  rejects,
	}
	if !info.created.IsZero() && info.created.Unix() != 0 {
		h.AgeSeconds = time.Since(info.created).Seconds()
	}
	return h
}
