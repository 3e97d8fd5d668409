package core

// SpecOutcome is RunSpec's result envelope: the as-executed spec plus
// exactly one populated payload, selected by the spec's kind.
type SpecOutcome struct {
	// Spec is the normalized, as-executed spec.
	Spec ExperimentSpec
	// Grid holds the "grid" kind's outcome; nil otherwise.
	Grid *SuiteGridResult
	// Fleet holds the "fleet" kind's per-policy results (in
	// fleet.PolicyNames order); nil otherwise.
	Fleet []FleetResult
	// Churn holds the "churn" kind's {static, migrated} pair or the
	// "faults" kind's {healthy, drop, resilient} triple; nil otherwise.
	Churn []ChurnResult
}

// RunSpec normalizes and executes a declarative experiment spec. It is
// the one path from a spec to a result: the CLI, the examples and the
// library all run their fleet, churn and faults comparisons through it.
// The spec lowers through Trials — the same batch the benchmark server
// executes — which runs as one batch on the parallel runner (parallel
// is execution policy: <= 0 means every core), and each trial's
// repetitions merge into one result. A spec that fails validation
// returns Normalize's error instead of panicking: specs arrive from
// flags, config files and network requests, not fixed vocabulary.
func RunSpec(spec ExperimentSpec, parallel int) (SpecOutcome, error) {
	s, err := spec.Normalize()
	if err != nil {
		return SpecOutcome{}, err
	}
	cfg := s.Config()
	cfg.Parallel = parallel
	if s.Kind == SpecGrid {
		g := RunSuiteGrid(cfg)
		return SpecOutcome{Spec: s, Grid: &g}, nil
	}
	out := SpecOutcome{Spec: s}
	for _, reps := range RunTrials(s.Trials(), cfg) {
		if s.Kind == SpecFleet {
			out.Fleet = append(out.Fleet, mergeFleet(reps))
		} else {
			out.Churn = append(out.Churn, mergeChurn(reps))
		}
	}
	return out, nil
}
