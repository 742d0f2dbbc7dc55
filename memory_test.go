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

// runAllocPerMessageBoundMB bounds the host memory one Figure-4 dynamic-TDM
// run of random-mesh at N=128 (6,400 messages of 64 bytes) allocates. Such a
// run allocates about 0.75 MB, of which the message array, one 64-byte Message
// per message, is 0.4 MB. A second per-message array (a 40-byte delivery
// record appended per delivery) or a Message grown to 96 bytes took it to
// 1.19 MB.
const runAllocPerMessageBoundMB = 0.9

func TestRunAllocationPerMessage(t *testing.T) {
	const n = 128
	wl, err := GenerateWorkload("random-mesh:bytes=64,msgs=50", n, 1)
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
	t.Logf("one N=%d run of %d messages allocated %.2f MB", n, rep.Messages, mb)
	if mb > runAllocPerMessageBoundMB {
		t.Fatalf("one N=%d run of %d messages allocated %.2f MB, bound %.2f MB: is there per-message state besides the message array?",
			n, rep.Messages, mb, runAllocPerMessageBoundMB)
	}
}

// TestPlannedRunAllocation bounds the host memory one run of the Fig-4
// two-phase workload at N=128 allocates, in perfbench's two configurations,
// with its static phases planned inside the run. Decomposing and planning
// both phases used to allocate a fresh path slice per Kempe-chain flip and a
// re-sorted N-squared edge list per Solstice round: 61.2 MB for the preload
// run and 127.4 MB for the hybrid one. Lean planning with a map-keyed group
// index and a fresh empty matrix per unused slot on every group load
// allocated 9.2 and 12.1 MB; with in-place flips, the per-source index and
// one shared empty matrix, 5.0 and 9.9 MB. With the message array as the only
// per-message state and a FLUSH that lists B* into a reused buffer without
// copying it, 3.8 and 7.4 MB. With one connection table per run, whose ids
// index the NIC queues, the time-out predictor's state, grant times and the
// preloader's group lists instead of per-layer hashed copies, about 2.6 and
// 4.4 MB; the bounds keep the headroom they had.
func TestPlannedRunAllocation(t *testing.T) {
	const n = 128
	wl, err := GenerateWorkload("two-phase:bytes=64", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		boundMB float64
	}{
		{"tdm-preload", Config{Switching: PreloadTDM, N: n, K: 4, Parallelism: 1}, 4.6},
		{"tdm-hybrid-solstice", Config{Switching: HybridTDM, N: n, K: 4,
			PreloadSlots: 2, Planner: PlannerSolstice,
			Eviction: TimeoutEviction, EvictionTimeout: 500 * time.Nanosecond, Parallelism: 1}, 6.0},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := Run(tc.cfg, wl)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Messages != wl.Messages() {
			t.Fatalf("%s: delivered %d of %d messages", tc.name, rep.Messages, wl.Messages())
		}
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: one N=%d two-phase run allocated %.1f MB", tc.name, n, mb)
		if mb > tc.boundMB {
			t.Errorf("%s: one N=%d two-phase run allocated %.1f MB, bound %.1f MB: does in-run planning churn again?",
				tc.name, n, mb, tc.boundMB)
		}
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
