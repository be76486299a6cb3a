package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mapping"
	"repro/internal/pipeline"
)

// TestProcStarvedOneToOneIsInfeasible pins corpus scenario 2124 at seed 1:
// a fully homogeneous one-to-one request under a latency bound with fewer
// processors than stages. No one-to-one mapping exists, so the verdict is
// ErrInfeasible, exactly as for the same shape on the theorem paths.
func TestProcStarvedOneToOneIsInfeasible(t *testing.T) {
	sc := gen.DefaultSpace().Sample(1, 2124)
	stages := 0
	for a := range sc.Inst.Apps {
		stages += sc.Inst.Apps[a].NumStages()
	}
	if sc.Inst.Platform.Classify() != pipeline.FullyHomogeneous || sc.Req.Rule != mapping.OneToOne ||
		len(sc.Inst.Platform.Processors) >= stages {
		t.Fatalf("scenario 2124 is no longer a proc-starved fully homogeneous one-to-one case: %s", sc.Name)
	}
	_, err := core.Solve(&sc.Inst, sc.Req)
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("Solve = %v, want ErrInfeasible", err)
	}
}
