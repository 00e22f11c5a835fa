package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"heteromix/internal/cluster"
	"heteromix/internal/stream"
)

// bufferEnumerate drives resp through the buffered sink the way the
// executor does: head, one encoded row per point, trailer.
func bufferEnumerate(ctx context.Context, resp *EnumerateResponse) ([]byte, error) {
	bs := &bufferedSink{ctx: ctx, nullEmpty: resp.Points == nil}
	defer bs.release()
	bs.begin(&streamHead{Workload: resp.Workload, Work: resp.Work,
		SpaceSize: uint64(resp.SpaceSize), FrontierOnly: resp.FrontierOnly})
	for i := range resp.Points {
		if err := bs.row(stream.AppendPointSummary(nil, &resp.Points[i])); err != nil {
			return nil, err
		}
	}
	bs.end(&streamTrailer{Returned: resp.Returned, Truncated: resp.Truncated})
	return bs.body, nil
}

// bufferGeneric is bufferEnumerate for the generic envelope.
func bufferGeneric(ctx context.Context, resp *EnumerateGenericResponse) ([]byte, error) {
	bs := &bufferedSink{ctx: ctx, generic: true, nullEmpty: resp.Points == nil}
	defer bs.release()
	bs.begin(&streamHead{Workload: resp.Workload, Work: resp.Work, TypeNames: resp.TypeNames,
		SpaceSize: resp.SpaceSize, PrunedSize: resp.PrunedSize, FrontierOnly: resp.FrontierOnly,
		Shard: resp.Shard})
	for i := range resp.Points {
		if err := bs.row(stream.AppendGenericPointSummary(nil, &resp.Points[i])); err != nil {
			return nil, err
		}
	}
	bs.end(&streamTrailer{Returned: resp.Returned, Truncated: resp.Truncated, Degraded: resp.Degraded,
		FailedShards: resp.FailedShards, Indices: resp.Indices})
	return bs.body, nil
}

// randEnumResp builds a response exercising every omitempty branch.
func randEnumResp(rng *rand.Rand) EnumerateResponse {
	resp := EnumerateResponse{
		Workload:     []string{"ep", "graph<500>", "a&b", ""}[rng.Intn(4)],
		Work:         rng.NormFloat64() * 1e8,
		SpaceSize:    rng.Intn(1 << 20),
		Truncated:    rng.Intn(2) == 0,
		FrontierOnly: rng.Intn(2) == 0,
	}
	switch rng.Intn(4) {
	case 0: // nil Points
	case 1:
		resp.Points = []cluster.PointSummary{}
	default:
		for i := rng.Intn(700); i >= 0; i-- {
			resp.Points = append(resp.Points, cluster.PointSummary{
				ARMNodes:        rng.Intn(8),
				ARMCores:        rng.Intn(3),
				ARMGHz:          float64(rng.Intn(3)) * 0.8,
				AMDNodes:        rng.Intn(8),
				AMDCores:        rng.Intn(3),
				AMDGHz:          float64(rng.Intn(3)) * 1.1,
				TimeSeconds:     rng.NormFloat64() * 1e3,
				EnergyJoules:    rng.Float64() * 1e-6, // straddles the exponent cutoff
				WorkARMFraction: rng.Float64(),
				Label:           "2x<4>@1.7 & 3x8",
			})
		}
	}
	resp.Returned = len(resp.Points)
	return resp
}

func randGenericResp(rng *rand.Rand) EnumerateGenericResponse {
	resp := EnumerateGenericResponse{
		Workload:     "ep",
		Work:         rng.Float64() * 1e8,
		SpaceSize:    rng.Uint64() % (1 << 30),
		PrunedSize:   uint64(rng.Intn(2)) * 12345, // 0 exercises omitempty
		Truncated:    rng.Intn(2) == 0,
		FrontierOnly: rng.Intn(2) == 0,
		Degraded:     rng.Intn(3) == 0,
	}
	if rng.Intn(4) > 0 {
		resp.TypeNames = []string{"arm-cortex-a9", "amd-opteron-k10"}
	}
	if rng.Intn(3) == 0 {
		resp.Shard = "2/4"
	}
	for i := rng.Intn(4) - 1; i >= 0; i-- {
		resp.Indices = append(resp.Indices, rng.Uint64())
		resp.FailedShards = append(resp.FailedShards, rng.Intn(16))
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		resp.Points = []cluster.GenericPointSummary{}
	default:
		for i := rng.Intn(500); i >= 0; i-- {
			p := cluster.GenericPointSummary{
				TimeSeconds:  rng.NormFloat64() * 1e4,
				EnergyJoules: rng.NormFloat64() * 1e7,
				Label:        "1xa9<4>@0.8 + 2xk10",
			}
			for g := rng.Intn(3); g >= 0; g-- {
				p.Groups = append(p.Groups, cluster.GenericGroupSummary{
					Type:         "arm-cortex-a9",
					Nodes:        rng.Intn(8),
					Cores:        rng.Intn(8),
					GHz:          rng.Float64() * 3,
					WorkFraction: rng.Float64(),
				})
			}
			resp.Points = append(resp.Points, p)
		}
	}
	resp.Returned = len(resp.Points)
	return resp
}

func TestEncodeEnumerateResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		resp := randEnumResp(rng)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bufferEnumerate(context.Background(), &resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("envelope mismatch:\n got %.300s\nwant %.300s", got, want)
		}
	}
}

func TestEncodeGenericResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 200; i++ {
		resp := randGenericResp(rng)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bufferGeneric(context.Background(), &resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("envelope mismatch:\n got %.300s\nwant %.300s", got, want)
		}
	}
}

func TestEncodeRespectsCancellation(t *testing.T) {
	// Enough rows to guarantee at least one context poll (every
	// encodeCheckEvery+1 rows).
	n := encodeCheckEvery + 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	eresp := EnumerateResponse{Points: make([]cluster.PointSummary, n)}
	if _, err := bufferEnumerate(ctx, &eresp); !errors.Is(err, context.Canceled) {
		t.Fatalf("bufferEnumerate on cancelled ctx = %v, want context.Canceled", err)
	}
	gresp := EnumerateGenericResponse{Points: make([]cluster.GenericPointSummary, n)}
	if _, err := bufferGeneric(ctx, &gresp); !errors.Is(err, context.Canceled) {
		t.Fatalf("bufferGeneric on cancelled ctx = %v, want context.Canceled", err)
	}
}
