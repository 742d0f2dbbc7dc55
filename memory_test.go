package pmsnet

import (
	"runtime"
	"testing"
	"time"
)

// runAllocBoundMB bounds the host memory one light dynamic-TDM run allocates
// at N=2048. Such a run allocates about 13 MB: the scheduler's bit matrices
// plus state sized by the traffic. A per-(src, dst) table of machine words
// is 32 MB on its own at this N, and N-squared NIC queue headers, pair
// counters and grant times together are ~170 MB, so the bound catches
// N-squared state coming back into the data path.
const runAllocBoundMB = 24

func TestRunAllocationIsNotQuadratic(t *testing.T) {
	const n = 2048
	wl, err := GenerateWorkload("random-mesh:bytes=64,msgs=4", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Switching: DynamicTDM, N: n, K: 4,
		Eviction: TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond, Parallelism: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg, wl)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != wl.Messages() {
		t.Fatalf("delivered %d of %d messages", rep.Messages, wl.Messages())
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("one N=%d run allocated %.1f MB", n, mb)
	if mb > runAllocBoundMB {
		t.Fatalf("one N=%d run allocated %.1f MB, bound %d MB: is per-pair state sized N-squared again?",
			n, mb, runAllocBoundMB)
	}
}

// TestValidateDoesNotBuildTheFabric bounds what Validate allocates for a TDM
// config at N = 1<<15. Building the fabric to vet it would allocate the N×N
// configuration register, 128 MB at this N; pmsd validates every submitted
// job, so the check must stay allocation-free.
func TestValidateDoesNotBuildTheFabric(t *testing.T) {
	const n = 1 << 15
	for _, f := range []Fabric{FabricCrossbar, FabricOmega} {
		cfg := Config{Switching: DynamicTDM, N: n, Fabric: f}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := cfg.Validate()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Fatalf("%v: Validate at N=%d allocated %d bytes, want under 1 MB", f, n, b)
		}
	}
}
