package lmbench

import "testing"

// TestVerifyScaleSmoke runs the trimmed sweep: both bench invariants must
// be proven at every size and the artifact fields must be populated.
func TestVerifyScaleSmoke(t *testing.T) {
	b, _ := Lookup("verify")
	rep := Run(b, Opts{Smoke: true})
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Counts["unproved"] != 0 {
			t.Errorf("invariants not proven at %d rules", c.Rules)
		}
		if c.Counts["invariants"] != 2 || c.Ops == 0 || c.Counts["total_ns"] <= 0 {
			t.Errorf("cell fields unpopulated: %+v", c)
		}
	}
	if rep.Cells[0].Ops >= rep.Cells[1].Ops {
		t.Errorf("wide-cell point count should grow with the label universe: %d -> %d",
			rep.Cells[0].Ops, rep.Cells[1].Ops)
	}
	if err := verifyGate(rep); err != nil {
		t.Errorf("trimmed sweep fails the gate: %v", err)
	}
	if out := Markdown(rep); out == "" {
		t.Error("empty render")
	}
}
