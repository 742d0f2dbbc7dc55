package pmsnet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSwitchingStrings(t *testing.T) {
	names := map[Switching]string{
		Wormhole:         "wormhole",
		CircuitSwitching: "circuit",
		DynamicTDM:       "tdm-dynamic",
		PreloadTDM:       "tdm-preload",
		HybridTDM:        "tdm-hybrid",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Switching(99).String() == "" {
		t.Error("unknown switching should render")
	}
}

func TestRunAllParadigms(t *testing.T) {
	wl := OrderedMesh(16, 64, 5)
	if wl.Processors() != 16 || wl.Messages() == 0 || wl.TotalBytes() == 0 {
		t.Fatal("workload accessors wrong")
	}
	for _, sw := range []Switching{Wormhole, CircuitSwitching, DynamicTDM, PreloadTDM} {
		rep, err := Run(Config{Switching: sw, N: 16, K: 4}, wl)
		if err != nil {
			t.Fatalf("%v: %v", sw, err)
		}
		if rep.Messages != wl.Messages() || rep.Bytes != wl.TotalBytes() {
			t.Fatalf("%v: conservation violated: %+v", sw, rep)
		}
		if rep.Efficiency <= 0 || rep.Efficiency > 1 {
			t.Fatalf("%v: efficiency %v out of range", sw, rep.Efficiency)
		}
		if rep.Makespan <= 0 || rep.LatencyMax < rep.LatencyP50 {
			t.Fatalf("%v: time fields inconsistent: %+v", sw, rep)
		}
	}
}

func TestRunHybrid(t *testing.T) {
	wl := MixWorkload(16, 64, 10, 0.8, 150*time.Nanosecond, 3)
	rep, err := Run(Config{
		Switching: HybridTDM, N: 16, K: 3, PreloadSlots: 1,
		Eviction: TimeoutEviction, EvictionTimeout: 250 * time.Nanosecond,
	}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sched.Preloads == 0 {
		t.Fatal("hybrid run should preload the static pattern")
	}
	if rep.Sched.Passes == 0 {
		t.Fatal("hybrid run should also schedule dynamically")
	}
}

func TestEvictionPolicies(t *testing.T) {
	wl := RandomMesh(8, 32, 5, 1)
	for _, ev := range []EvictionPolicy{ReleaseOnEmpty, TimeoutEviction, CounterEviction, NeverEvict} {
		rep, err := Run(Config{Switching: DynamicTDM, N: 8, K: 4, Eviction: ev}, wl)
		if err != nil {
			t.Fatalf("policy %d: %v", int(ev), err)
		}
		if rep.Messages != wl.Messages() {
			t.Fatalf("policy %d: lost messages", int(ev))
		}
	}
}

func TestFabricStringsAndParse(t *testing.T) {
	names := map[Fabric]string{
		FabricCrossbar: "crossbar",
		FabricOmega:    "omega",
		FabricClos:     "clos",
		FabricBenes:    "benes",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(f), f.String(), want)
		}
		got, err := ParseFabric(want)
		if err != nil || got != f {
			t.Errorf("ParseFabric(%q) = %v, %v; want %v", want, got, err, f)
		}
	}
	if Fabric(99).String() == "" {
		t.Error("unknown fabric should render")
	}
	if _, err := ParseFabric("banyan"); err == nil ||
		!strings.Contains(err.Error(), "crossbar, omega, clos, benes") {
		t.Errorf("ParseFabric should list the vocabulary, got %v", err)
	}
	if got := strings.Join(FabricNames(), ","); got != "crossbar,omega,clos,benes" {
		t.Errorf("FabricNames() = %q", got)
	}
}

func TestSchedulerStringsAndParse(t *testing.T) {
	names := map[Scheduler]string{
		SchedulerPaper:     "paper",
		SchedulerISLIP:     "islip",
		SchedulerWavefront: "wavefront",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
		got, err := ParseScheduler(want)
		if err != nil || got != s {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", want, got, err, s)
		}
	}
	if Scheduler(99).String() == "" {
		t.Error("unknown scheduler should render")
	}
	if _, err := ParseScheduler("pim"); err == nil ||
		!strings.Contains(err.Error(), "paper, islip, wavefront") {
		t.Errorf("ParseScheduler should list the vocabulary, got %v", err)
	}
	if got := strings.Join(SchedulerNames(), ","); got != "paper,islip,wavefront" {
		t.Errorf("SchedulerNames() = %q", got)
	}
}

func TestSchedulerConfigValidation(t *testing.T) {
	wl := ScatterWorkload(8, 64)
	var cerr *ConfigError
	if _, err := Run(Config{Switching: DynamicTDM, N: 8, Scheduler: Scheduler(9)}, wl); !errors.As(err, &cerr) {
		t.Errorf("unknown scheduler: got %v, want a *ConfigError", err)
	}
}

func TestRunSchedulerAlgorithms(t *testing.T) {
	// End-to-end dynamic TDM through the facade under every matching
	// algorithm. The alternatives deliver the full workload too; only the
	// paper algorithm keeps the undecorated network name.
	wl := RandomMesh(16, 64, 6, 2)
	for _, s := range []Scheduler{SchedulerPaper, SchedulerISLIP, SchedulerWavefront} {
		rep, err := Run(Config{Switching: DynamicTDM, N: 16, K: 4, Scheduler: s}, wl)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Messages != wl.Messages() || rep.Bytes != wl.TotalBytes() {
			t.Fatalf("%v: conservation violated: %+v", s, rep)
		}
		wantName := "tdm-dynamic/k=4"
		if s != SchedulerPaper {
			wantName += "/" + s.String()
		}
		if rep.Network != wantName {
			t.Fatalf("%v: network name %q, want %q", s, rep.Network, wantName)
		}
	}
}

func TestRunDynamicTDMAllFabrics(t *testing.T) {
	// End-to-end dynamic TDM through the facade on every fabric backend.
	// The rearrangeable fabrics (crossbar, clos, benes) realize any
	// crossbar configuration and must agree bit-for-bit; the blocking
	// Omega fabric spreads conflicting connections over extra slots.
	wl := OrderedMesh(16, 64, 5)
	reports := make(map[Fabric]Report)
	for _, f := range []Fabric{FabricCrossbar, FabricOmega, FabricClos, FabricBenes} {
		rep, err := Run(Config{Switching: DynamicTDM, N: 16, K: 4, Fabric: f}, wl)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if rep.Messages != wl.Messages() || rep.Bytes != wl.TotalBytes() {
			t.Fatalf("%v: conservation violated: %+v", f, rep)
		}
		wantName := "tdm-dynamic"
		if f != FabricCrossbar {
			wantName += "/k=4/" + f.String()
		} else {
			wantName += "/k=4"
		}
		if rep.Network != wantName {
			t.Fatalf("%v: network name %q, want %q", f, rep.Network, wantName)
		}
		reports[f] = rep
	}
	for _, f := range []Fabric{FabricClos, FabricBenes} {
		if reports[f] != recolor(reports[f], reports[FabricCrossbar]) {
			t.Fatalf("%v report diverges from crossbar: %+v vs %+v",
				f, reports[f], reports[FabricCrossbar])
		}
	}
}

// recolor returns b with a's Network name, so rearrangeable-fabric reports
// can be compared to the crossbar's apart from the label.
func recolor(a, b Report) Report {
	b.Network = a.Network
	return b
}

// TestPlannerStaticMatchesDefault pins the facade-level A/B contract: an
// explicit PlannerStatic is the zero value, so it must run the exact same
// simulation as a config that never mentions planners at all.
func TestPlannerStaticMatchesDefault(t *testing.T) {
	wl := TwoPhaseWorkload(16, 64, 3)
	def, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4, Planner: PlannerStatic}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if def != explicit {
		t.Fatalf("explicit PlannerStatic diverges from the default: %+v vs %+v", def, explicit)
	}
	if def.Plan != (PlanReport{}) {
		t.Fatalf("static preload path reported plan stats: %+v", def.Plan)
	}
}

// TestPlannerThroughFacade runs the optimizing planners end to end through
// the public API and checks the Report's Plan block is populated.
func TestPlannerThroughFacade(t *testing.T) {
	wl := TwoPhaseWorkload(16, 64, 3)
	for _, p := range []Planner{PlannerSolstice, PlannerBvN} {
		for _, cfg := range []Config{
			{Switching: PreloadTDM, N: 16, K: 4, Planner: p},
			{Switching: HybridTDM, N: 16, K: 4, PreloadSlots: 2, Planner: p},
		} {
			rep, err := Run(cfg, wl)
			if err != nil {
				t.Fatalf("%v/%v: %v", cfg.Switching, p, err)
			}
			if rep.Messages != wl.Messages() {
				t.Errorf("%v/%v: delivered %d of %d messages", cfg.Switching, p, rep.Messages, wl.Messages())
			}
			if rep.Plan.Planner != p.String() {
				t.Errorf("%v/%v: plan reports planner %q", cfg.Switching, p, rep.Plan.Planner)
			}
			if rep.Plan.Configs == 0 || rep.Plan.Groups == 0 || rep.Plan.DrainSlots == 0 {
				t.Errorf("%v/%v: plan stats empty: %+v", cfg.Switching, p, rep.Plan)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	wl := ScatterWorkload(8, 16)
	if _, err := Run(Config{Switching: Switching(42), N: 8}, wl); err == nil {
		t.Error("unknown paradigm should error")
	}
	if _, err := Run(Config{Switching: DynamicTDM, N: 8, Eviction: EvictionPolicy(42)}, wl); err == nil {
		t.Error("unknown eviction policy should error")
	}
	if _, err := Run(Config{Switching: Wormhole, N: 1}, wl); err == nil {
		t.Error("N=1 should error")
	}
	if _, err := Run(Config{Switching: Wormhole, N: 8}, nil); err == nil {
		t.Error("nil workload should error")
	}
	if _, err := Run(Config{Switching: DynamicTDM, N: 8, Fabric: Fabric(42)}, wl); err == nil {
		t.Error("unknown fabric should error")
	}
	if _, err := Run(Config{Switching: DynamicTDM, N: 8, Planner: PlannerSolstice}, wl); err == nil {
		t.Error("planner on a reactive paradigm should error")
	}
	if _, err := Run(Config{Switching: DynamicTDM, N: 12, Fabric: FabricOmega}, ScatterWorkload(12, 16)); err == nil {
		t.Error("omega fabric with non-power-of-two N should error")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	wl := TwoPhaseWorkload(8, 32, 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, wl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PMSTRACE v1") {
		t.Fatal("trace header missing")
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Messages() != wl.Messages() || got.TotalBytes() != wl.TotalBytes() {
		t.Fatal("trace round trip lost data")
	}
	if err := WriteTrace(&buf, nil); err == nil {
		t.Fatal("nil workload should error")
	}
}

func TestFacadeAndInternalAgree(t *testing.T) {
	// The facade must produce the same simulation as the internal packages:
	// same efficiency for the same configuration and workload.
	wl := ScatterWorkload(16, 64)
	a, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Efficiency != b.Efficiency || a.Makespan != b.Makespan {
		t.Fatal("facade runs must be deterministic")
	}
}

func TestMarkovPrefetchPolicy(t *testing.T) {
	wl := OrderedMesh(8, 32, 5)
	rep, err := Run(Config{Switching: DynamicTDM, N: 8, K: 4, Eviction: MarkovPrefetch}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != wl.Messages() {
		t.Fatal("lost messages under markov policy")
	}
}

func TestAmplifyBytesEngages(t *testing.T) {
	wl := HotspotWorkload(16, 64, 10, 2048, 20, 1)
	rep, err := Run(Config{Switching: DynamicTDM, N: 16, K: 4,
		Eviction: TimeoutEviction, AmplifyBytes: 256}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != wl.Messages() {
		t.Fatal("lost messages with amplification")
	}
}

func TestAnalyzeWorkloadFacade(t *testing.T) {
	raw := TwoPhaseWorkload(16, 64, 2)
	annotated, phases, err := AnalyzeWorkload(raw)
	if err != nil {
		t.Fatal(err)
	}
	if phases != 2 {
		t.Fatalf("phases = %d, want 2", phases)
	}
	// The analyzed workload must run under preload (coverage satisfied).
	rep, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4}, annotated)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != raw.Messages() {
		t.Fatal("analyzed workload lost messages")
	}
	if _, _, err := AnalyzeWorkload(nil); err == nil {
		t.Fatal("nil workload should error")
	}
}

func TestVOQFacade(t *testing.T) {
	wl := RandomMesh(8, 64, 5, 1)
	rep, err := Run(Config{Switching: VOQISLIP, N: 8}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Network != "voq-islip" || rep.Messages != wl.Messages() {
		t.Fatalf("report = %+v", rep)
	}
	if VOQISLIP.String() != "voq-islip" {
		t.Fatal("string wrong")
	}
}

func TestMeshFacade(t *testing.T) {
	wl := OrderedMesh(16, 64, 3)
	for _, sw := range []Switching{MeshWormhole, MeshTDM} {
		rep, err := Run(Config{Switching: sw, N: 16, K: 4}, wl)
		if err != nil {
			t.Fatalf("%v: %v", sw, err)
		}
		if rep.Messages != wl.Messages() {
			t.Fatalf("%v: lost messages", sw)
		}
	}
	if MeshWormhole.String() != "mesh-wormhole" || MeshTDM.String() != "mesh-tdm" {
		t.Fatal("strings wrong")
	}
}

func TestConcatWorkloadsFacade(t *testing.T) {
	phased := ConcatWorkloads("phased", AllToAll(16, 32), OrderedMesh(16, 32, 2))
	rep, err := Run(Config{Switching: PreloadTDM, N: 16, K: 4}, phased)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != phased.Messages() {
		t.Fatal("lost messages")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil input")
		}
	}()
	ConcatWorkloads("bad", nil)
}

func TestRunManyMatchesRunAndIsOrderIdentical(t *testing.T) {
	cfg := Config{Switching: DynamicTDM, N: 16, K: 4}
	var wls []*Workload
	for seed := int64(1); seed <= 4; seed++ {
		wls = append(wls, RandomMesh(16, 64, 5, seed))
	}
	var want []Report
	for _, wl := range wls {
		rep, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
	}
	for _, par := range []int{0, 1, 3} {
		cfg.Parallelism = par
		got, err := RunMany(cfg, wls)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d reports, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: report %d differs from serial Run", par, i)
			}
		}
	}
}

func TestRunManyRejectsNilWorkload(t *testing.T) {
	cfg := Config{Switching: Wormhole, N: 8}
	if _, err := RunMany(cfg, []*Workload{OrderedMesh(8, 64, 1), nil}); err == nil {
		t.Fatal("expected error for nil workload")
	}
}
