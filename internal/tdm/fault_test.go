package tdm

import (
	"reflect"
	"testing"

	"pmsnet/internal/fabric"
	"pmsnet/internal/fault"
	"pmsnet/internal/metrics"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/traffic"
)

// faultRun runs the network with the engine self-check armed, verifies the
// exact message-accounting invariant, and returns the result.
func faultRun(t *testing.T, cfg Config, wl *traffic.Workload) metrics.Result {
	t.Helper()
	cfg.SelfCheck = true
	res, err := mustNew(t, cfg).Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Stats.Faults; f.Enabled && !f.Reconciles() {
		t.Fatalf("accounting broken: %d injected != %d delivered + %d dropped",
			f.Injected, f.Delivered, f.Dropped)
	}
	return res
}

// TestZeroFaultPlanBitIdentical is the acceptance criterion for the fault
// layer's fast path: a nil plan, an inactive plan, and no plan at all must
// produce bit-identical reports in every mode.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	wl := traffic.TwoPhase(8, 32, 3)
	configs := map[string]Config{
		"dynamic": {N: 8, K: 4},
		"preload": {N: 8, K: 4, Mode: Preload},
		"hybrid":  {N: 8, K: 4, Mode: Hybrid, PreloadSlots: 2},
	}
	plans := map[string]*fault.Plan{
		"nil":      nil,
		"zero":     {},
		"inactive": {Seed: 42, RetryBase: 100, RetryCap: 200},
	}
	for mode, cfg := range configs {
		base := faultRun(t, cfg, wl)
		if base.Stats.Faults.Enabled {
			t.Errorf("%s: fault stats enabled without a plan", mode)
		}
		for name, p := range plans {
			cfgP := cfg
			cfgP.Faults = p
			got := faultRun(t, cfgP, wl)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s: plan %q changed the report:\n  base: %+v\n  got:  %+v", mode, name, base, got)
			}
		}
	}
}

// TestCorruptionRetransmitsAndDelivers checks the CRC/retransmit path: with
// slot-payload corruption every message still arrives, the extra work shows
// up as retries, and the accounting reconciles with zero drops.
func TestCorruptionRetransmitsAndDelivers(t *testing.T) {
	wl := traffic.OrderedMesh(8, 64, 20)
	res := faultRun(t, Config{
		N: 8, K: 4,
		Faults: &fault.Plan{Seed: 1, CorruptProb: 0.05},
	}, wl)
	f := res.Stats.Faults
	if !f.Enabled {
		t.Fatal("fault stats not enabled")
	}
	if res.Messages != wl.MessageCount() {
		t.Fatalf("messages = %d, want %d", res.Messages, wl.MessageCount())
	}
	if f.Corrupted == 0 || f.Retries == 0 {
		t.Fatalf("corrupted = %d, retries = %d; want both > 0 at 5%% corruption", f.Corrupted, f.Retries)
	}
	if f.Retries < f.Corrupted {
		t.Fatalf("retries = %d < corrupted = %d: every corrupted payload must be retransmitted", f.Retries, f.Corrupted)
	}
	if f.Dropped != 0 || f.Delivered != uint64(wl.MessageCount()) {
		t.Fatalf("delivered = %d, dropped = %d; corruption alone must not drop traffic", f.Delivered, f.Dropped)
	}
}

// TestControlTokenLossRecovers checks the lost request/grant path: the NIC's
// timeout-and-backoff retry must deliver everything despite 10% token loss.
func TestControlTokenLossRecovers(t *testing.T) {
	wl := traffic.RandomMesh(8, 64, 60, 5)
	res := faultRun(t, Config{
		N: 8, K: 4,
		Faults: &fault.Plan{Seed: 2, RequestLossProb: 0.1, GrantLossProb: 0.1},
	}, wl)
	f := res.Stats.Faults
	if f.RequestsLost == 0 && f.GrantsLost == 0 {
		t.Fatal("no control tokens lost at 10% loss — injector not wired")
	}
	if f.Retries == 0 {
		t.Fatal("lost tokens must be retried")
	}
	if f.Dropped != 0 || res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d with %d drops; token loss alone must not drop traffic",
			res.Messages, wl.MessageCount(), f.Dropped)
	}
}

// TestPreloadFallbackOnLinkFault is the graceful-degradation acceptance
// criterion: in pure Preload mode (no dynamic slots at all), a link failure
// invalidates the preloaded configurations using it, and their traffic must
// fall back to dynamically scheduled slots instead of stalling.
func TestPreloadFallbackOnLinkFault(t *testing.T) {
	wl := traffic.OrderedMesh(8, 64, 20)
	// Port 2's link drops out mid-run and repairs much later; the broken
	// preloaded entries are not revalidated, so its traffic finishes on
	// dynamic slots.
	res := faultRun(t, Config{
		N: 8, K: 4, Mode: Preload,
		Faults: &fault.Plan{
			Links: []fault.LinkFault{{Port: 2, At: 2 * sim.Microsecond, For: 4 * sim.Microsecond}},
		},
	}, wl)
	f := res.Stats.Faults
	if f.PreloadFallbacks == 0 {
		t.Fatal("link fault on an in-use port must invalidate preloaded entries")
	}
	if res.Stats.Established == 0 || res.Stats.SchedulerPasses == 0 {
		t.Fatalf("established = %d, passes = %d: fallback traffic must use dynamic scheduling",
			res.Stats.Established, res.Stats.SchedulerPasses)
	}
	if res.Messages != wl.MessageCount() || f.Dropped != 0 {
		t.Fatalf("delivered %d of %d (dropped %d): transient fault must not lose traffic",
			res.Messages, wl.MessageCount(), f.Dropped)
	}
	if f.DegradedTime == 0 {
		t.Fatal("degraded time not recorded")
	}
}

// TestHybridFallbackOnCrosspointDeath: a dead crosspoint invalidates the
// preloaded entry carrying it; hybrid mode already has dynamic slots, which
// must absorb the traffic.
func TestHybridFallbackOnCrosspointDeath(t *testing.T) {
	wl := traffic.OrderedMesh(8, 64, 20)
	// OrderedMesh round 1 sends i -> (i+1)%8, so crosspoint 0:1 carries
	// preloaded traffic.
	res := faultRun(t, Config{
		N: 8, K: 4, Mode: Hybrid, PreloadSlots: 2,
		Faults: &fault.Plan{
			Crosspoints: []fault.CrosspointFault{{In: 0, Out: 1, At: sim.Microsecond}},
		},
	}, wl)
	f := res.Stats.Faults
	if f.CrosspointDeaths != 1 {
		t.Fatalf("crosspoint deaths = %d, want 1", f.CrosspointDeaths)
	}
	if f.Dropped == 0 {
		t.Fatal("a dead crosspoint permanently blocks its pair: 0->1 traffic must be dropped")
	}
	if f.Delivered+f.Dropped != f.Injected {
		t.Fatalf("accounting broken: %d + %d != %d", f.Delivered, f.Dropped, f.Injected)
	}
	if f.PreloadFallbacks == 0 {
		t.Fatal("the preloaded 0:1 entry must be invalidated")
	}
}

// TestPermanentLinkFaultDropsExactly: a permanently dead port drops exactly
// the messages that need it — everything else still arrives.
func TestPermanentLinkFaultDropsExactly(t *testing.T) {
	n := 8
	wl := traffic.OrderedMesh(n, 64, 10)
	res := faultRun(t, Config{
		N: n, K: 4,
		Faults: &fault.Plan{Links: []fault.LinkFault{{Port: 3, At: 0}}}, // For == 0: permanent
	}, wl)
	f := res.Stats.Faults
	if f.LinkFailures != 1 || f.LinkRepairs != 0 {
		t.Fatalf("failures = %d, repairs = %d; want one permanent failure", f.LinkFailures, f.LinkRepairs)
	}
	// Exactly the messages sent by or addressed to port 3 die with its
	// serial link; count them from the workload itself.
	var wantDropped uint64
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind == traffic.OpSend && (p == 3 || op.Dst == 3) {
				wantDropped++
			}
		}
	}
	if wantDropped == 0 {
		t.Fatal("workload never touches port 3; test is vacuous")
	}
	if f.Dropped != wantDropped {
		t.Fatalf("dropped = %d, want %d (port 3's sends and receives)", f.Dropped, wantDropped)
	}
	if f.Delivered != f.Injected-wantDropped {
		t.Fatalf("delivered = %d, want %d", f.Delivered, f.Injected-wantDropped)
	}
}

// TestTransientLinkChurnDeliversAll: random link up/down churn slows the run
// but, with no permanent faults, every message must still be delivered.
func TestTransientLinkChurnDeliversAll(t *testing.T) {
	wl := traffic.RandomMesh(8, 64, 60, 9)
	res := faultRun(t, Config{
		N: 8, K: 4,
		Faults: &fault.Plan{Seed: 4, LinkMTBF: 50 * sim.Microsecond, LinkMTTR: sim.Microsecond},
	}, wl)
	f := res.Stats.Faults
	if f.Dropped != 0 || res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d (dropped %d): transient churn must not lose traffic",
			res.Messages, wl.MessageCount(), f.Dropped)
	}
	if f.LinkFailures == 0 {
		t.Skip("no failure fired within the run; churn too slow for this workload length")
	}
	if f.LinkRepairs > f.LinkFailures {
		t.Fatalf("repairs = %d > failures = %d", f.LinkRepairs, f.LinkFailures)
	}
}

// TestFaultRecoveryAcrossFabrics runs the combined fault cocktail — payload
// corruption, control-token loss, and transient link churn — on the
// multistage Omega fabric. Recovery must not depend on the fabric: every
// message is delivered, the accounting reconciles, and the run stays
// deterministic.
func TestFaultRecoveryAcrossFabrics(t *testing.T) {
	wl := traffic.RandomMesh(8, 64, 40, 7)
	for _, fab := range []fabric.Kind{fabric.KindOmega} {
		t.Run(fab.String(), func(t *testing.T) {
			cfg := Config{
				N: 8, K: 4, Fabric: fab,
				Faults: &fault.Plan{
					Seed:            11,
					CorruptProb:     0.02,
					RequestLossProb: 0.02,
					GrantLossProb:   0.02,
					LinkMTBF:        100 * sim.Microsecond,
					LinkMTTR:        2 * sim.Microsecond,
				},
			}
			a := faultRun(t, cfg, wl)
			if a.Messages != wl.MessageCount() || a.Stats.Faults.Dropped != 0 {
				t.Fatalf("delivered %d of %d (dropped %d): transient faults must not lose traffic",
					a.Messages, wl.MessageCount(), a.Stats.Faults.Dropped)
			}
			if a.Stats.Faults.Retries == 0 {
				t.Fatal("fault cocktail produced no retries — injector not wired on this fabric")
			}
			b := faultRun(t, cfg, wl)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("faulty run on %s not deterministic:\n  a: %+v\n  b: %+v", fab, a, b)
			}
		})
	}
}

// TestFaultRunsDeterministic: a faulty run is a pure function of
// (model, workload, seed, plan) — two identical runs give identical reports.
func TestFaultRunsDeterministic(t *testing.T) {
	wl := traffic.RandomMesh(8, 64, 40, 7)
	cfg := Config{
		N: 8, K: 4,
		Faults: &fault.Plan{
			Seed:            11,
			CorruptProb:     0.02,
			RequestLossProb: 0.02,
			GrantLossProb:   0.02,
			LinkMTBF:        100 * sim.Microsecond,
			LinkMTTR:        2 * sim.Microsecond,
		},
	}
	a := faultRun(t, cfg, wl)
	b := faultRun(t, cfg, wl)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical faulty runs diverged:\n  a: %+v\n  b: %+v", a, b)
	}
}

// TestFaultRecoveryAcrossFamilies runs the transient fault cocktail on every
// registered workload family under dynamic TDM. Link churn evicts
// connections through EvictPort in the middle of the families' request
// patterns (permutations, collectives, incast, flush-separated phases); every
// message must still arrive, the accounting must reconcile, and the run must
// stay deterministic.
func TestFaultRecoveryAcrossFamilies(t *testing.T) {
	cfg := Config{
		N: 16, K: 4,
		Faults: &fault.Plan{
			Seed:            11,
			CorruptProb:     0.02,
			RequestLossProb: 0.02,
			GrantLossProb:   0.02,
			LinkMTBF:        100 * sim.Microsecond,
			LinkMTTR:        2 * sim.Microsecond,
		},
	}
	var linkFailures, retries uint64
	for _, name := range traffic.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl, err := traffic.Generate(name, cfg.N, 1)
			if err != nil {
				t.Fatal(err)
			}
			a := faultRun(t, cfg, wl)
			if a.Messages != wl.MessageCount() || a.Stats.Faults.Dropped != 0 {
				t.Fatalf("delivered %d of %d (dropped %d): transient faults must not lose traffic",
					a.Messages, wl.MessageCount(), a.Stats.Faults.Dropped)
			}
			b := faultRun(t, cfg, wl)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("faulty run not deterministic:\n  a: %+v\n  b: %+v", a, b)
			}
			linkFailures += a.Stats.Faults.LinkFailures
			retries += a.Stats.Faults.Retries
		})
	}
	if linkFailures == 0 || retries == 0 {
		t.Fatalf("cocktail fired %d link failures and %d retries over all families, want both > 0",
			linkFailures, retries)
	}
}

// TestPermanentPortDownRetiresEachPairOnce fails a hybrid run's port for good
// while its NIC holds several messages per destination. The failure drains
// every queue from and toward the port, and each drained (src, dst) pair must
// be retired once: one request-wire clear per pair, not one per message. The
// self-check recounts the preloader's pending counts from the buffers after
// every event, and every drained message must be dropped exactly once.
func TestPermanentPortDownRetiresEachPairOnce(t *testing.T) {
	const n, port = 8, 2
	const failAt = 400 * sim.Nanosecond
	wl := traffic.OrderedMesh(n, 256, 20)
	net := mustNew(t, Config{
		N: n, K: 4, Mode: Hybrid, PreloadSlots: 2,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) },
		Faults:       &fault.Plan{Links: []fault.LinkFault{{Port: port, At: failAt}}},
		SelfCheck:    true,
	})
	r, err := net.start(wl)
	if err != nil {
		t.Fatal(err)
	}
	// queued counts the messages on u→v's queue: every message is 256
	// bytes and only the head can be part sent, so the queued bytes round
	// up to the count.
	queued := func(u, v int) int {
		if id := r.conns.ID(u, v); id >= 0 {
			return int((r.driver.Buffers[u].Bytes(id) + 255) / 256)
		}
		return 0
	}
	var pairs, drained, deepPairs int
	onPortDown := r.inj.OnPortDown
	r.inj.OnPortDown = func(p int, permanent bool) {
		for x := 0; x < n; x++ {
			if c := queued(p, x); c > 0 {
				pairs++
				drained += c
				if c >= 2 {
					deepPairs++
				}
			}
			if x != p && r.driver.Buffers[x].HasFor(p) {
				pairs++
				drained += queued(x, p)
			}
		}
		wire, dropped := r.reqWire.InFlight(), r.driver.FaultStats().Dropped
		onPortDown(p, permanent)
		if got := r.reqWire.InFlight() - wire; got != pairs {
			t.Errorf("the failure wrote %d request-wire clears for %d drained pairs", got, pairs)
		}
		if got := r.driver.FaultStats().Dropped - dropped; got != uint64(drained) {
			t.Errorf("the failure dropped %d messages, %d were queued", got, drained)
		}
	}
	res, err := r.finish(net.Name())
	if err != nil {
		t.Fatal(err)
	}
	if deepPairs < 2 {
		t.Fatalf("%d of port %d's queues held two or more messages at the failure; the test needs two", deepPairs, port)
	}
	f := res.Stats.Faults
	if f.LinkFailures != 1 || f.PreloadFallbacks == 0 {
		t.Fatalf("failures = %d, preload fallbacks = %d; want one failure that breaks preloaded entries",
			f.LinkFailures, f.PreloadFallbacks)
	}
	if f.Dropped < uint64(drained) || !f.Reconciles() {
		t.Fatalf("dropped %d (%d drained at the failure): %d injected, %d delivered",
			f.Dropped, drained, f.Injected, f.Delivered)
	}
}
