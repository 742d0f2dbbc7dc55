package pmsnet

import (
	"testing"
	"time"

	"pmsnet/internal/fault"
)

// hashBaseConfig is a config with every hashed field away from its zero
// value, so each single-field mutation in TestConfigHashFieldSensitivity
// actually flips a covered bit.
func hashBaseConfig() Config {
	return Config{
		Switching:         HybridTDM,
		N:                 32,
		K:                 6,
		PreloadSlots:      2,
		Eviction:          CounterEviction,
		EvictionTimeout:   750 * time.Nanosecond,
		EvictionThreshold: 12,
		AmplifyBytes:      256,
		Fabric:            FabricClos,
		Planner:           PlannerSolstice,
		Scheduler:         SchedulerISLIP,
		Faults: &fault.Plan{
			Seed:            9,
			LinkMTBF:        1_000_000,
			LinkMTTR:        10_000,
			CorruptProb:     0.001,
			RequestLossProb: 0.002,
			GrantLossProb:   0.003,
			RetryBase:       300,
			RetryCap:        4800,
			Links:           []fault.LinkFault{{Port: 3, At: 50_000, For: 20_000}},
			Crosspoints:     []fault.CrosspointFault{{In: 1, Out: 2, At: 80_000}},
		},
	}
}

func TestConfigHashStableAndEqualForEqualConfigs(t *testing.T) {
	a, b := hashBaseConfig(), hashBaseConfig()
	if a.Hash() != b.Hash() {
		t.Fatal("two identical configs hash differently")
	}
	if a.Hash() != a.Hash() {
		t.Fatal("hash is not deterministic across calls")
	}
}

func TestConfigHashSemanticEquivalences(t *testing.T) {
	// Each pair is semantically identical — same Report, bit for bit — and
	// must therefore share a hash: documented defaults spelled out vs left
	// zero, and an inactive fault plan vs none.
	cases := []struct {
		name string
		a, b Config
	}{
		{
			"defaults spelled out",
			Config{Switching: DynamicTDM, N: 16},
			Config{Switching: DynamicTDM, N: 16, K: 4,
				EvictionTimeout: 500 * time.Nanosecond, EvictionThreshold: 8},
		},
		{
			"inactive fault plan vs none",
			Config{Switching: DynamicTDM, N: 16},
			Config{Switching: DynamicTDM, N: 16, Faults: &fault.Plan{Seed: 99, RetryBase: 7}},
		},
	}
	for _, tc := range cases {
		if tc.a.Hash() != tc.b.Hash() {
			t.Errorf("%s: hashes differ (%#x vs %#x)", tc.name, tc.a.Hash(), tc.b.Hash())
		}
	}
}

func TestConfigHashFieldSensitivity(t *testing.T) {
	// Every single-field mutation away from the base must change the hash —
	// the correctness guarantee of the (config, workload) result-cache key.
	base := hashBaseConfig()
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"Switching", func(c *Config) { c.Switching = DynamicTDM }},
		{"N", func(c *Config) { c.N = 64 }},
		{"K", func(c *Config) { c.K = 8 }},
		{"PreloadSlots", func(c *Config) { c.PreloadSlots = 3 }},
		{"Eviction", func(c *Config) { c.Eviction = TimeoutEviction }},
		{"EvictionTimeout", func(c *Config) { c.EvictionTimeout = time.Microsecond }},
		{"EvictionThreshold", func(c *Config) { c.EvictionThreshold = 13 }},
		{"AmplifyBytes", func(c *Config) { c.AmplifyBytes = 512 }},
		{"Fabric", func(c *Config) { c.Fabric = FabricBenes }},
		{"Planner", func(c *Config) { c.Planner = PlannerBvN }},
		{"Scheduler", func(c *Config) { c.Scheduler = SchedulerWavefront }},
		{"Faults.Seed", func(c *Config) { c.Faults.Seed = 10 }},
		{"Faults.LinkMTBF", func(c *Config) { c.Faults.LinkMTBF = 2_000_000 }},
		{"Faults.LinkMTTR", func(c *Config) { c.Faults.LinkMTTR = 20_000 }},
		{"Faults.CorruptProb", func(c *Config) { c.Faults.CorruptProb = 0.01 }},
		{"Faults.RequestLossProb", func(c *Config) { c.Faults.RequestLossProb = 0.02 }},
		{"Faults.GrantLossProb", func(c *Config) { c.Faults.GrantLossProb = 0.03 }},
		{"Faults.RetryBase", func(c *Config) { c.Faults.RetryBase = 400 }},
		{"Faults.RetryCap", func(c *Config) { c.Faults.RetryCap = 6400 }},
		{"Faults.Links[0].Port", func(c *Config) { c.Faults.Links[0].Port = 4 }},
		{"Faults.Links[0].At", func(c *Config) { c.Faults.Links[0].At = 60_000 }},
		{"Faults.Links[0].For", func(c *Config) { c.Faults.Links[0].For = 30_000 }},
		{"Faults.Links extra", func(c *Config) { c.Faults.Links = append(c.Faults.Links, fault.LinkFault{Port: 5, At: 1}) }},
		{"Faults.Crosspoints[0].In", func(c *Config) { c.Faults.Crosspoints[0].In = 2 }},
		{"Faults.Crosspoints[0].Out", func(c *Config) { c.Faults.Crosspoints[0].Out = 3 }},
		{"Faults.Crosspoints[0].At", func(c *Config) { c.Faults.Crosspoints[0].At = 90_000 }},
		{"Faults dropped", func(c *Config) { c.Faults = nil }},
	}
	want := base.Hash()
	seen := map[uint64]string{want: "base"}
	for _, m := range mutations {
		c := hashBaseConfig()
		m.mut(&c)
		got := c.Hash()
		if got == want {
			t.Errorf("mutating %s did not change the hash", m.name)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("mutations %s and %s collide on %#x", m.name, prev, got)
		}
		seen[got] = m.name
	}
}

func TestConfigHashIgnoresExecutionOnlyFields(t *testing.T) {
	// Parallelism and Probe never change a Report (the identity suites pin
	// that), so they must not fragment the result cache.
	base := hashBaseConfig()
	withPar := hashBaseConfig()
	withPar.Parallelism = 8
	if base.Hash() != withPar.Hash() {
		t.Error("Parallelism changed the hash; it cannot affect a Report")
	}
	withProbe := hashBaseConfig()
	withProbe.Probe = NewProbe(NewCounterSink())
	if base.Hash() != withProbe.Hash() {
		t.Error("Probe changed the hash; probes are observational only")
	}
}

func TestWorkloadHash(t *testing.T) {
	a, err := RandomMesh(16, 64, 10, 1).Hash()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomMesh(16, 64, 10, 1).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical workloads hash differently")
	}
	otherSeed, err := RandomMesh(16, 64, 10, 2).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if otherSeed == a {
		t.Fatal("workload seed change did not change the hash")
	}
	otherSize, err := RandomMesh(16, 128, 10, 1).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if otherSize == a {
		t.Fatal("workload size change did not change the hash")
	}
	if _, err := (*Workload)(nil).Hash(); err == nil {
		t.Fatal("nil workload must not hash")
	}
}

// TestWorkloadHashFoldsSpec: a registry-generated workload carries its spec
// in the canonical serialization, so it hashes differently from the same
// program built through a constructor (which has no spec) — and the spec
// survives as part of the identity the hash fingerprints.
func TestWorkloadHashFoldsSpec(t *testing.T) {
	gen, err := GenerateWorkload("random-mesh:msgs=10", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Spec() != "random-mesh:msgs=10" {
		t.Fatalf("spec = %q", gen.Spec())
	}
	genHash, err := gen.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctor := RandomMesh(16, 64, 10, 1)
	if ctor.Spec() != "" {
		t.Fatalf("constructor workload has spec %q", ctor.Spec())
	}
	ctorHash, err := ctor.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if genHash == ctorHash {
		t.Fatal("spec-carrying workload hashes equal to its spec-less twin")
	}
	gen2, err := GenerateWorkload("random-mesh:msgs=10", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := gen2.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if again != genHash {
		t.Fatal("identical generated workloads hash differently")
	}
}
