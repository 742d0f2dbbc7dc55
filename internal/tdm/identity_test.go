package tdm

import (
	"testing"

	"pmsnet/internal/core"
	"pmsnet/internal/metrics"
	"pmsnet/internal/traffic"
)

func identityRun(t *testing.T, cfg Config, wl *traffic.Workload) metrics.Result {
	t.Helper()
	cfg.SelfCheck = true
	res, err := mustNew(t, cfg).Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func identityWorkloads() map[string]*traffic.Workload {
	return map[string]*traffic.Workload{
		"random-mesh": traffic.RandomMesh(16, 64, 8, 3),
		"all-to-all":  traffic.AllToAll(16, 64),
		"two-phase":   traffic.TwoPhase(16, 32, 5),
	}
}

// TestAlternativeAlgorithmsDeliver smoke-tests the iSLIP and wavefront
// matchers end to end with the engine self-check armed: every message must
// arrive, and the network name must advertise the algorithm.
func TestAlternativeAlgorithmsDeliver(t *testing.T) {
	for _, alg := range []core.Algorithm{core.AlgISLIP, core.AlgWavefront} {
		for wname, wl := range identityWorkloads() {
			cfg := Config{N: 16, K: 4, Algorithm: alg}
			nw := mustNew(t, cfg)
			if name := nw.Name(); !contains(name, alg.String()) {
				t.Errorf("%s: network name %q does not mention the algorithm", alg, name)
			}
			res := identityRun(t, cfg, wl)
			if res.Messages != wl.MessageCount() {
				t.Errorf("%s/%s: delivered %d of %d messages", alg, wname, res.Messages, wl.MessageCount())
			}
		}
	}
	// The default paper algorithm keeps its undecorated name.
	if name := mustNew(t, Config{N: 16, K: 4}).Name(); contains(name, "paper") {
		t.Errorf("default network name %q should not be decorated with the algorithm", name)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
