package experiments

import (
	"fmt"

	"pmsnet/internal/compiler"
	"pmsnet/internal/metrics"
	"pmsnet/internal/plan"
	"pmsnet/internal/predictor"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
)

// The workload-family studies: sweeps over the post-paper generator
// families (collectives, phased programs, arrival-process and adversarial
// patterns) that ROADMAP item 4 calls for. Two harnesses:
//
//   - FamilySweep runs every new family under reactive dynamic TDM and a
//     planned hybrid, so each family's predictor hit rate and planner
//     makespan land in one table.
//   - PhasedPlannerStudy demonstrates the compiled-communication path end
//     to end: the phased family's program is stripped, re-discovered by the
//     compiler analysis, and its per-phase demand matrices drive the
//     Solstice planner.

// FamilySpecs lists the post-paper workload families the family sweep
// covers, as generator specs in the shared registry vocabulary.
func FamilySpecs() []string {
	return []string{
		"all-reduce:algo=ring",
		"all-reduce:algo=tree",
		"broadcast:msgs=8",
		"gather:msgs=8",
		"phased",
		"tiles",
		"bursty",
		"perm-churn",
		"incast",
	}
}

// FamilySweep is the serial reference for FamilySweepExec.
func FamilySweep(n int, seed int64) ([]NamedResult, error) {
	return FamilySweepExec(Serial, n, seed)
}

// FamilySweepExec runs every FamilySpecs workload under two TDM regimes —
// reactive dynamic TDM with the paper's time-out predictor, and a hybrid
// with half the slots pinned by the Solstice planner — one sweep point per
// (family, regime) pair. The table answers, per family: what hit rate does
// the predictor reach, and what makespan does the planned hybrid deliver?
func FamilySweepExec(ex Exec, n int, seed int64) ([]NamedResult, error) {
	specs := FamilySpecs()
	cases := []tdmCase{
		{"dynamic/timeout", tdm.Config{N: n, K: Fig4K,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}},
		{"hybrid/solstice", tdm.Config{N: n, K: Fig4K, Mode: tdm.Hybrid, PreloadSlots: Fig4K / 2,
			Planner:      plan.Solstice{},
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}},
	}
	return sweep(ex, len(specs)*len(cases), func(i int) (NamedResult, error) {
		spec, c := specs[i/len(cases)], cases[i%len(cases)]
		wl, err := traffic.Generate(spec, n, seed)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %w", err)
		}
		nw, err := tdm.New(c.cfg)
		if err != nil {
			return NamedResult{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return NamedResult{}, fmt.Errorf("experiments: %s on %s: %w", c.label, spec, err)
		}
		return NamedResult{Label: fmt.Sprintf("%s: %s", spec, c.label), Result: res}, nil
	})
}

// PhasedStudy is the outcome of the phased-family planner demonstration.
type PhasedStudy struct {
	// Spec is the generator spec the study analyzed.
	Spec string
	// PhaseCount is the number of phases the compiler analysis discovered
	// in the stripped program.
	PhaseCount int
	// PhaseDemands holds the total demand (TDM slots) of each discovered
	// phase — the matrices handed to the planner, summarized.
	PhaseDemands []int64
	// Rows compares static preload, Solstice-planned preload, and the
	// reactive dynamic baseline on the analyzed workload.
	Rows []NamedResult
}

// PhasedPlannerStudy is the serial reference for PhasedPlannerStudyExec.
func PhasedPlannerStudy(n int, spec string, seed int64) (PhasedStudy, error) {
	return PhasedPlannerStudyExec(Serial, n, spec, seed)
}

// PhasedPlannerStudyExec is the compiled-communication demonstration for
// the phase-alternating families: generate the workload, strip its own
// annotations, let compiler.Analyze re-discover the phase structure and
// emit per-phase demand matrices, then run the re-annotated program under
// static preload, Solstice-planned preload, and reactive dynamic TDM. The
// planner consumes exactly the analysis's demand — the full paper §3 path
// (compile, plan, preload) on traffic the compiler has never seen.
func PhasedPlannerStudyExec(ex Exec, n int, spec string, seed int64) (PhasedStudy, error) {
	wl, err := traffic.Generate(spec, n, seed)
	if err != nil {
		return PhasedStudy{}, fmt.Errorf("experiments: %w", err)
	}
	// Strip happens inside Analyze; InsertDirectives re-annotates at the
	// discovered boundaries, and PayloadBytes converts traffic to slots.
	analyzed, an, err := compiler.Analyze(wl, compiler.Options{InsertDirectives: true, PayloadBytes: 64})
	if err != nil {
		return PhasedStudy{}, fmt.Errorf("experiments: analyzing %s: %w", spec, err)
	}
	study := PhasedStudy{Spec: spec, PhaseCount: an.PhaseCount()}
	for _, d := range an.Demands {
		study.PhaseDemands = append(study.PhaseDemands, d.Total())
	}
	cases := []tdmCase{
		{"preload/static", tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload}},
		{"preload/solstice", tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload, Planner: plan.Solstice{}}},
		{"dynamic/reactive", tdm.Config{N: n, K: Fig4K,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) }}},
	}
	rows, err := runTDMCases(ex, analyzed, cases)
	if err != nil {
		return PhasedStudy{}, err
	}
	study.Rows = rows
	return study, nil
}

// PhasedStudyTable renders the study: the discovered phase structure, then
// the comparison rows.
func PhasedStudyTable(s PhasedStudy) *metrics.Table {
	t := AblationTable(fmt.Sprintf("Phased families through the compiler: %s (%d phases discovered, demand %v slots)",
		s.Spec, s.PhaseCount, s.PhaseDemands), s.Rows)
	return t
}
