package calib

// Versioned profile snapshots: the single on-disk format shared by the
// daemon's -profile-snapshot persistence, cmd/fitmodel's output, and
// operator-pushed profiles. A snapshot is a JSON document carrying the
// workload version map and one entry per override, each embedding the
// model in internal/model's canonical persisted form plus the content
// hash of exactly those bytes — a tampered or corrupted entry fails
// the hash check at load and the whole load is rejected.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"heteromix/internal/atomicfile"
	"heteromix/internal/model"
)

// SnapshotVersion is the snapshot format version.
const SnapshotVersion = 1

// HashModel returns the content hash of a model: the first 16 hex
// characters of the SHA-256 of its canonical persisted form. Two
// models hash equal exactly when they persist to the same bytes
// (model.Save is deterministic: sorted keys, fixed field order).
func HashModel(nm model.NodeModel) (string, error) {
	var buf bytes.Buffer
	if err := model.Save(&buf, nm); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// persistedEntry is one profile in wire form.
type persistedEntry struct {
	Workload string          `json:"workload"`
	Node     string          `json:"node"`
	Version  uint64          `json:"version"`
	Hash     string          `json:"hash"`
	Source   string          `json:"source"`
	Quality  *Quality        `json:"quality,omitempty"`
	Model    json.RawMessage `json:"model"`
}

// snapshot is the document.
type snapshot struct {
	Version          int               `json:"version"`
	WorkloadVersions map[string]uint64 `json:"workload_versions"`
	Profiles         []persistedEntry  `json:"profiles"`
}

// SaveSnapshot writes the registry's overrides and workload versions.
func (r *Registry) SaveSnapshot(w io.Writer) error {
	overrides := r.Overrides()
	r.mu.Lock()
	versions := make(map[string]uint64, len(r.versions))
	for k, v := range r.versions {
		versions[k] = v
	}
	r.mu.Unlock()
	doc := snapshot{
		Version:          SnapshotVersion,
		WorkloadVersions: versions,
		Profiles:         make([]persistedEntry, 0, len(overrides)),
	}
	for _, e := range overrides {
		var buf bytes.Buffer
		if err := model.Save(&buf, e.model); err != nil {
			return fmt.Errorf("calib: persisting %s/%s: %w", e.Workload, e.Node, err)
		}
		doc.Profiles = append(doc.Profiles, persistedEntry{
			Workload: e.Workload,
			Node:     e.Node,
			Version:  e.Version,
			Hash:     e.Hash,
			Source:   e.Source,
			Quality:  e.Quality,
			Model:    json.RawMessage(buf.Bytes()),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProfile writes a single-profile snapshot for one fitted model —
// cmd/fitmodel's output format. The entry carries version 1 (it is the
// pair's first fit) and the content hash of the embedded model.
func WriteProfile(w io.Writer, workload, node string, nm model.NodeModel, source string) error {
	hash, err := HashModel(nm)
	if err != nil {
		return fmt.Errorf("calib: %w", err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf, nm); err != nil {
		return fmt.Errorf("calib: %w", err)
	}
	doc := snapshot{
		Version:          SnapshotVersion,
		WorkloadVersions: map[string]uint64{workload: 1},
		Profiles: []persistedEntry{{
			Workload: workload,
			Node:     node,
			Version:  1,
			Hash:     hash,
			Source:   source,
			Model:    json.RawMessage(buf.Bytes()),
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// LoadSnapshot installs a snapshot's profiles as overrides and adopts
// its workload versions (keeping the higher side on conflict). Every
// entry's hash is recomputed from the decoded model's canonical form
// and must match, so a corrupted or hand-edited profile cannot load
// silently. Loading does not fire OnBump: it runs at startup, before
// any cache holds entries to invalidate.
func (r *Registry) LoadSnapshot(rd io.Reader) error {
	var doc snapshot
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("calib: decoding snapshot: %w", err)
	}
	if doc.Version != SnapshotVersion {
		return fmt.Errorf("calib: unsupported snapshot version %d (want %d)", doc.Version, SnapshotVersion)
	}
	type loaded struct {
		k    Key
		e    *Entry
		vers uint64
	}
	entries := make([]loaded, 0, len(doc.Profiles))
	for i, p := range doc.Profiles {
		if p.Workload == "" || p.Node == "" {
			return fmt.Errorf("calib: profiles[%d]: workload and node are required", i)
		}
		nm, err := model.Load(bytes.NewReader(p.Model))
		if err != nil {
			return fmt.Errorf("calib: profiles[%d] (%s/%s): %w", i, p.Workload, p.Node, err)
		}
		hash, err := HashModel(nm)
		if err != nil {
			return fmt.Errorf("calib: profiles[%d] (%s/%s): %w", i, p.Workload, p.Node, err)
		}
		if hash != p.Hash {
			return fmt.Errorf("calib: profiles[%d] (%s/%s): content hash %s does not match recorded %s",
				i, p.Workload, p.Node, hash, p.Hash)
		}
		entries = append(entries, loaded{
			k: Key{p.Workload, p.Node},
			e: &Entry{
				Workload: p.Workload,
				Node:     p.Node,
				Version:  p.Version,
				Hash:     p.Hash,
				Source:   "snapshot",
				Quality:  p.Quality,
				model:    nm,
			},
			vers: p.Version,
		})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for wl, v := range doc.WorkloadVersions {
		if v > r.versionLocked(wl) {
			r.versions[wl] = v
		}
	}
	for _, l := range entries {
		r.overrides[l.k] = l.e
		if l.vers > r.versionLocked(l.k.Workload) {
			r.versions[l.k.Workload] = l.vers
		}
	}
	return nil
}

// SaveSnapshotFile persists the snapshot atomically and durably
// (internal/atomicfile), so a crash mid-write can never leave an empty
// or half-written snapshot for the next start to choke on.
func (r *Registry) SaveSnapshotFile(path string) error {
	return atomicfile.Write(path, r.SaveSnapshot)
}

// LoadSnapshotFile loads path; a missing file answers os.ErrNotExist
// (callers treat first start as empty).
func (r *Registry) LoadSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.LoadSnapshot(f)
}
