package core

import (
	"math"
	"testing"
)

// TestRunSpecRejectsInvalidSpecs: for every kind, an invalid spec makes
// RunSpec return Normalize's error — no panic, no run, no payload — and
// so does an unknown or missing kind. The fleet and churn cases include
// the wrong-kind and bad-vocabulary shapes the typed comparison entry
// points used to reject by panicking, and every numeric knob set to NaN
// or infinity (flag parsing accepts both; the churn ones would hang the
// Poisson draw).
func TestRunSpecRejectsInvalidSpecs(t *testing.T) {
	three := 3
	cases := []struct {
		name string
		spec ExperimentSpec
	}{
		{"grid with a fleet knob", ExperimentSpec{Kind: SpecGrid, Machines: 2}},
		{"grid with unknown profiles", ExperimentSpec{Kind: SpecGrid, Profiles: "NOPE"}},
		{"fleet with a bad mix", ExperimentSpec{Kind: SpecFleet, Mix: "diurnal"}},
		{"fleet with a churn knob", ExperimentSpec{Kind: SpecFleet, Epochs: 4}},
		{"churn with a one-shot knob", ExperimentSpec{Kind: SpecChurn, Requests: 6}},
		{"churn with a negative rate", ExperimentSpec{Kind: SpecChurn, Rate: -1}},
		{"faults with mttr but no mtbf", ExperimentSpec{Kind: SpecFaults, MTTR: 2}},
		{"faults with a cohort beyond the fleet", ExperimentSpec{Kind: SpecFaults, Machines: 2, Fidelity: &three}},
		{"grid with NaN seconds", ExperimentSpec{Kind: SpecGrid, Seconds: math.NaN()}},
		{"grid with NaN warmup", ExperimentSpec{Kind: SpecGrid, Warmup: math.NaN()}},
		{"fleet with a NaN core class", ExperimentSpec{Kind: SpecFleet, CoreClasses: "8,NaN"}},
		{"fleet with infinite cores", ExperimentSpec{Kind: SpecFleet, CoreClasses: "Inf"}},
		{"fleet with cores too large for an int", ExperimentSpec{Kind: SpecFleet, CoreClasses: "1e300"}},
		{"churn with a NaN rate", ExperimentSpec{Kind: SpecChurn, Rate: math.NaN()}},
		{"churn with an infinite rate", ExperimentSpec{Kind: SpecChurn, Rate: math.Inf(1)}},
		{"churn with a NaN duration", ExperimentSpec{Kind: SpecChurn, Duration: math.NaN()}},
		{"churn with a NaN peak", ExperimentSpec{Kind: SpecChurn, Schedule: "diurnal", Peak: math.NaN(), Period: 4}},
		{"faults with a NaN mtbf", ExperimentSpec{Kind: SpecFaults, MTBF: math.NaN()}},
		{"faults with a NaN mttr", ExperimentSpec{Kind: SpecFaults, MTBF: 3, MTTR: math.NaN()}},
		{"unknown kind", ExperimentSpec{Kind: "figs"}},
		{"missing kind", ExperimentSpec{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, want := c.spec.Normalize()
			if want == nil {
				t.Fatal("the spec must not validate")
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RunSpec panicked: %v", r)
				}
			}()
			out, err := RunSpec(c.spec, 1)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("RunSpec error = %v, want Normalize's %v", err, want)
			}
			if out.Grid != nil || out.Fleet != nil || out.Churn != nil {
				t.Fatalf("a rejected spec must run nothing: %+v", out)
			}
		})
	}
}
