package pmsnet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/probe"
	"pmsnet/internal/traffic"
)

// recordSink rebuilds a run's delivery records from the probe's message
// events alone: MsgCreated carries the endpoints, the size and the creation
// time, MsgDelivered the delivery time. The records come out in delivery
// order, as a per-delivery record list would hold them.
type recordSink struct {
	created map[int64]metrics.Record
	recs    []metrics.Record
}

func (s *recordSink) Handle(ev probe.Event) {
	switch ev.Kind {
	case probe.MsgCreated:
		s.created[ev.ID] = metrics.Record{Src: int(ev.Src), Dst: int(ev.Dst), Bytes: int(ev.Aux), Created: ev.At}
	case probe.MsgDelivered:
		r, ok := s.created[ev.ID]
		if !ok {
			panic(fmt.Sprintf("message %d delivered but never created", ev.ID))
		}
		r.Delivered = ev.At
		s.recs = append(s.recs, r)
	}
}

// faultsWithDrops kills port 3's link from the start and crosspoint 1:2 after
// 1 µs, so every message touching port 3 or crossing 1→2 later is dropped,
// and corrupts 2% of payloads, so others are retransmitted.
const faultsWithDrops = "seed=3,corrupt=0.02,link=3@0us,xpoint=1:2@1us"

type oracleCase struct {
	name   string
	cfg    Config
	spec   string
	faults string
}

func oracleCases() []oracleCase {
	const n = 16
	var cases []oracleCase
	for _, sw := range []Switching{Wormhole, CircuitSwitching, VOQISLIP, MeshWormhole, MeshTDM, DynamicTDM, PreloadTDM, HybridTDM} {
		cases = append(cases, oracleCase{name: sw.String(), spec: "random-mesh:bytes=96,msgs=8",
			cfg: Config{Switching: sw, N: n, K: 4, PreloadSlots: 2}})
	}
	return append(cases,
		oracleCase{name: "tdm-dynamic-mix", spec: "mix:bytes=64,msgs=20",
			cfg: Config{Switching: DynamicTDM, N: n, K: 4}},
		oracleCase{name: "tdm-dynamic-mix-faults", spec: "mix:bytes=64,msgs=20", faults: faultsWithDrops,
			cfg: Config{Switching: DynamicTDM, N: n, K: 4}},
		oracleCase{name: "wormhole-mix-faults", spec: "mix:bytes=64,msgs=20", faults: faultsWithDrops,
			cfg: Config{Switching: Wormhole, N: n}},
		oracleCase{name: "tdm-hybrid-two-phase-faults", spec: "two-phase:bytes=64", faults: faultsWithDrops,
			cfg: Config{Switching: HybridTDM, N: n, K: 4, PreloadSlots: 2}},
	)
}

// build returns the case's workload and config, its fault plan attached.
func (tc oracleCase) build(t *testing.T) (*Workload, Config) {
	t.Helper()
	wl, err := GenerateWorkload(tc.spec, tc.cfg.N, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tc.cfg
	if tc.faults != "" {
		if cfg.Faults, err = ParseFaults(tc.faults); err != nil {
			t.Fatal(err)
		}
	}
	return wl, cfg
}

// TestResultMatchesRecordOracle checks that the statistics a run computes
// from its message array equal those computed from a delivery-record list
// rebuilt from the probe stream, on every model, on blocking sends, and on
// fault plans that drop and retransmit messages. The record list is in
// delivery order and the message array in creation order, so the test also
// holds every statistic to being order-free.
func TestResultMatchesRecordOracle(t *testing.T) {
	for _, tc := range oracleCases() {
		t.Run(tc.name, func(t *testing.T) {
			wl, cfg := tc.build(t)
			sink := &recordSink{created: make(map[int64]metrics.Record)}
			cfg.Probe = NewProbe(sink)
			nw, err := cfg.network()
			if err != nil {
				t.Fatal(err)
			}
			got, err := nw.Run(wl.w)
			if err != nil {
				t.Fatal(err)
			}
			if got.Messages == 0 || len(sink.recs) != got.Messages {
				t.Fatalf("%d messages in the result, %d delivery events", got.Messages, len(sink.recs))
			}
			if f := got.Stats.Faults; tc.faults != "" && (f.Dropped == 0 || f.Retries == 0) {
				t.Fatalf("fault plan dropped %d and retried %d messages: the case is vacuous", f.Dropped, f.Retries)
			}
			want := metrics.ComputeEach(got.Network, got.Workload, got.N, link.Paper(), len(sink.recs), func(add func(metrics.Record)) {
				for _, r := range sink.recs {
					add(r)
				}
			}, got.Stats)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result from the message array differs from the record oracle:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// reportDigest fingerprints every field of a report, the fault block's
// contents included.
func reportDigest(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBlockingRunsMatchPins pins the reports of runs whose programs block
// on SEND_WAIT: a mix run, and fault runs that drop blocking sends, so their
// senders resume on the drop. The digests were recorded when blocked senders
// were found through a map keyed by message ID; a sender resumed from the
// message itself must give the same reports.
func TestBlockingRunsMatchPins(t *testing.T) {
	pins := map[string]string{
		"tdm-dynamic-mix":        "99c6031d8d39d83d",
		"tdm-dynamic-mix-faults": "5d22e50f61fbd6b8",
		"wormhole-mix-faults":    "3f950808e8c1e009",
	}
	for _, tc := range oracleCases() {
		pin, ok := pins[tc.name]
		if !ok {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			wl, cfg := tc.build(t)
			if tc.faults != "" && !dropsBlockingSend(wl.w) {
				t.Fatal("no blocking send touches port 3: the case is vacuous")
			}
			rep, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportDigest(t, rep); got != pin {
				t.Errorf("report digest %s, pinned %s:\n%+v", got, pin, rep)
			}
		})
	}
}

// dropsBlockingSend reports whether the workload has a SEND_WAIT from or to
// port 3, which faultsWithDrops kills from time zero.
func dropsBlockingSend(wl *traffic.Workload) bool {
	for p, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind == traffic.OpSendWait && (p == 3 || op.Dst == 3) {
				return true
			}
		}
	}
	return false
}
