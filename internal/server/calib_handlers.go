package server

// The online calibration endpoints and the bump-driven cache
// invalidation.
//
//	POST /v1/fit       ingest observed (workload, node, config, T, E)
//	                   samples; drift past the threshold auto-refits
//	GET  /v1/profiles  the active profiles: versions, hashes, drift
//
// Versioning makes invalidation clean: every result-cache and
// table-cache key embeds "<workload>@v<version>", so the instant a
// refit bumps the version no new request can resolve to an old key —
// onProfileBump's sweep reclaims the memory, it does not carry the
// correctness. Raw batch-item keys, which cannot see a workload without
// decoding, carry the global generation instead and are retired
// wholesale on any bump.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"heteromix/internal/calib"
	"heteromix/internal/hwsim"
)

// maxMeasurement bounds accepted time/energy observations; beyond this
// the arithmetic still works but the measurement is nonsense.
const maxMeasurement = 1e12

// errProfileConflict is a request pinned to a profile version this
// server is not serving — answered 409 so the caller re-reads the
// active version and retries; never a 5xx.
type errProfileConflict struct {
	Workload   string
	Want, Have uint64
}

func (e errProfileConflict) Error() string {
	return fmt.Sprintf("profile version conflict: request pinned %s@v%d, active is v%d",
		e.Workload, e.Want, e.Have)
}

// FitSample is one observed execution in wire form.
type FitSample struct {
	// Cores and GHz select the configuration the job ran under; 0 means
	// the node's maximum, and GHz snaps to an exact P-state exactly as
	// /v1/predict's groups do.
	Cores int     `json:"cores,omitempty"`
	GHz   float64 `json:"ghz,omitempty"`
	// Work is the job size in work units; 0 selects the workload's
	// analysis size.
	Work float64 `json:"work,omitempty"`
	// TimeSeconds and EnergyJoules are the measurements. Required,
	// positive, finite.
	TimeSeconds  float64 `json:"time_seconds"`
	EnergyJoules float64 `json:"energy_joules"`
}

// FitRequest is a batch of observations for one (workload, node) pair.
type FitRequest struct {
	Workload string      `json:"workload"`
	Node     string      `json:"node"`
	Samples  []FitSample `json:"samples"`
}

// FitResponse reports the ingest outcome: drift before and after, and
// whether a refit was installed under a bumped version.
type FitResponse struct {
	Workload string `json:"workload"`
	Node     string `json:"node"`
	calib.IngestResult
}

func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[FitRequest](s, w, r)
	if !ok {
		return
	}
	samples, err := s.validateFit(&req)
	if err != nil {
		replyError(w, r, err)
		return
	}
	res, err := s.calib.Ingest(req.Workload, req.Node, samples)
	if err != nil {
		// Every ingest failure is a property of the client's samples: a
		// config the model cannot evaluate, a pair the source cannot
		// model. 400, never 500.
		if errors.Is(err, calib.ErrBadSample) || errors.Is(err, calib.ErrUnknownNode) {
			replyError(w, r, badRequestf("%v", err))
			return
		}
		replyError(w, r, err)
		return
	}
	s.calibSamples.Add(uint64(res.Accepted))
	if res.Refit {
		s.calibRefits.Inc()
	}
	s.calibDrift.Set(int64(s.calib.MaxDrift() * 1e6))
	writeJSON(w, http.StatusOK, FitResponse{Workload: req.Workload, Node: req.Node, IngestResult: res})
}

// validateFit checks the request shell and canonicalizes every sample —
// cores/frequency resolved against the node spec through the same
// resolveGroup as every other endpoint, work defaulted from the
// workload, measurements bounded — before anything reaches the
// registry.
func (s *Server) validateFit(req *FitRequest) ([]calib.Sample, error) {
	_, defWork, err := validWorkload(req.Workload, 0)
	if err != nil {
		return nil, err
	}
	spec, err := hwsim.ByName(req.Node)
	if err != nil {
		return nil, badRequestf("node: %v", err)
	}
	if len(req.Samples) == 0 {
		return nil, badRequestf("samples is required (1 to %d entries)", s.opts.MaxFitBatch)
	}
	if len(req.Samples) > s.opts.MaxFitBatch {
		return nil, badRequestf("at most %d samples per fit request, got %d", s.opts.MaxFitBatch, len(req.Samples))
	}
	out := make([]calib.Sample, len(req.Samples))
	for i, fs := range req.Samples {
		side := fmt.Sprintf("samples[%d]", i)
		g, _, err := s.resolveGroup(side, GroupRequest{Nodes: 1, Cores: fs.Cores, GHz: fs.GHz}, spec)
		if err != nil {
			return nil, err
		}
		work := fs.Work
		if work == 0 {
			work = defWork
		}
		if math.IsNaN(work) || math.IsInf(work, 0) || work <= 0 || work > maxWork {
			return nil, badRequestf("%s.work must be in (0, %g], got %v", side, maxWork, fs.Work)
		}
		if math.IsNaN(fs.TimeSeconds) || math.IsInf(fs.TimeSeconds, 0) || fs.TimeSeconds <= 0 || fs.TimeSeconds > maxMeasurement {
			return nil, badRequestf("%s.time_seconds must be in (0, %g], got %v", side, float64(maxMeasurement), fs.TimeSeconds)
		}
		if math.IsNaN(fs.EnergyJoules) || math.IsInf(fs.EnergyJoules, 0) || fs.EnergyJoules <= 0 || fs.EnergyJoules > maxMeasurement {
			return nil, badRequestf("%s.energy_joules must be in (0, %g], got %v", side, float64(maxMeasurement), fs.EnergyJoules)
		}
		out[i] = calib.Sample{
			Cores:        g.Cores,
			GHz:          g.GHz,
			Work:         work,
			TimeSeconds:  fs.TimeSeconds,
			EnergyJoules: fs.EnergyJoules,
		}
	}
	return out, nil
}

// ProfilesResponse is GET /v1/profiles: the active profile per known
// (workload, node) pair with its fit quality and drift.
type ProfilesResponse struct {
	// Generation is the global profile generation (see /healthz).
	Generation uint64 `json:"generation"`
	// RefitThreshold is the drift level that triggers automatic refits.
	RefitThreshold float64        `json:"refit_threshold"`
	Profiles       []calib.Status `json:"profiles"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ProfilesResponse{
		Generation:     s.calib.Generation(),
		RefitThreshold: s.opts.RefitThreshold,
		Profiles:       s.calib.Statuses(),
	})
}

// onProfileBump runs after every profile version bump (refit, install,
// operator push), outside the registry lock. It sweeps both caches for
// entries keyed under the retired version — results and compiled tables
// tagged "|<workload>@v<old>|", raw batch entries of any generation but
// the new one — and persists the snapshot when one is configured.
// Correctness does not depend on the sweep: keys embed the version, so
// retired entries are already unreachable; the sweep reclaims their
// memory and keeps the LRU from carrying dead weight.
func (s *Server) onProfileBump(ev calib.BumpEvent) {
	oldTag := "|" + ev.Workload + "@v" + strconv.FormatUint(ev.OldVersion, 10) + "|"
	genPrefix := "batchraw|g" + strconv.FormatUint(ev.NewGeneration, 10) + "|"
	n := s.cache.DeleteFunc(func(key string) bool {
		if strings.Contains(key, oldTag) {
			return true
		}
		return strings.HasPrefix(key, "batchraw|") && !strings.HasPrefix(key, genPrefix)
	})
	n += s.tables.DeleteFunc(func(key string) bool {
		return strings.Contains(key, oldTag)
	})
	s.calibInvalid.Add(uint64(n))
	if s.opts.ProfileSnapshot != "" {
		if err := s.calib.SaveSnapshotFile(s.opts.ProfileSnapshot); err != nil {
			s.calibSnapErrors.Inc()
		}
	}
}
