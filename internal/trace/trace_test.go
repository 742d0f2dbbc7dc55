package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

func roundTrip(t *testing.T, wl *traffic.Workload) *traffic.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, wl); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v\nfile:\n%s", err, buf.String())
	}
	return got
}

func assertEqualWorkloads(t *testing.T, a, b *traffic.Workload) {
	t.Helper()
	if a.Name != b.Name || a.N != b.N {
		t.Fatalf("header mismatch: %q/%d vs %q/%d", a.Name, a.N, b.Name, b.N)
	}
	if len(a.Programs) != len(b.Programs) {
		t.Fatalf("program count %d vs %d", len(a.Programs), len(b.Programs))
	}
	for p := range a.Programs {
		ao, bo := a.Programs[p].Ops, b.Programs[p].Ops
		if len(ao) != len(bo) {
			t.Fatalf("proc %d: %d ops vs %d", p, len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("proc %d op %d: %+v vs %+v", p, i, ao[i], bo[i])
			}
		}
	}
	if len(a.StaticPhases) != len(b.StaticPhases) {
		t.Fatalf("phase count %d vs %d", len(a.StaticPhases), len(b.StaticPhases))
	}
	for i := range a.StaticPhases {
		if !a.StaticPhases[i].Matrix().Equal(b.StaticPhases[i].Matrix()) {
			t.Fatalf("phase %d differs", i)
		}
	}
}

func TestRoundTripAllGenerators(t *testing.T) {
	workloads := []*traffic.Workload{
		traffic.Scatter(16, 64),
		traffic.OrderedMesh(16, 128, 2),
		traffic.RandomMesh(16, 8, 3, 7),
		traffic.AllToAll(8, 32),
		traffic.TwoPhase(16, 256, 3),
		traffic.Mix(16, 64, 5, 0.85, 50, 9),
	}
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			assertEqualWorkloads(t, wl, roundTrip(t, wl))
		})
	}
}

func TestRoundTripDelayAndEmptyPrograms(t *testing.T) {
	wl := &traffic.Workload{
		Name: "custom",
		N:    4,
		Programs: []traffic.Program{
			{Ops: []traffic.Op{traffic.Send(1, 8), traffic.Delay(500), traffic.Flush(), traffic.Send(2, 16)}},
			{}, // silent processor
			{Ops: []traffic.Op{traffic.Delay(100)}},
			{},
		},
	}
	assertEqualWorkloads(t, wl, roundTrip(t, wl))
}

func TestWriteRejectsInvalidWorkload(t *testing.T) {
	bad := &traffic.Workload{Name: "bad", N: 2, Programs: []traffic.Program{
		{Ops: []traffic.Op{traffic.Send(0, 8)}}, {}, // self-send
	}}
	var buf bytes.Buffer
	if err := Write(&buf, bad); err == nil {
		t.Fatal("Write should reject an invalid workload")
	}
}

func TestReadCommentsAndBlankLines(t *testing.T) {
	src := `PMSTRACE v1
# a comment
NAME demo

N 3
PROC 0
SEND 1 64   # trailing comment
DELAY 10
`
	wl, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name != "demo" || wl.N != 3 {
		t.Fatalf("header parsed wrong: %+v", wl)
	}
	if len(wl.Programs[0].Ops) != 2 {
		t.Fatalf("ops = %v", wl.Programs[0].Ops)
	}
}

func TestReadPhaseSections(t *testing.T) {
	src := `PMSTRACE v1
N 4
PHASE
CONN 0 1
CONN 1 2
PHASE
CONN 2 3
PROC 0
SEND 1 8
PHASEHINT 1
`
	wl, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.StaticPhases) != 2 {
		t.Fatalf("phases = %d, want 2", len(wl.StaticPhases))
	}
	if !slices.Contains(wl.StaticPhases[0].Conns(), topology.Conn{Src: 0, Dst: 1}) ||
		!slices.Contains(wl.StaticPhases[1].Conns(), topology.Conn{Src: 2, Dst: 3}) {
		t.Fatal("phase contents wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"missing header":       "N 4\n",
		"no N":                 "PMSTRACE v1\nNAME x\n",
		"proc before N":        "PMSTRACE v1\nPROC 0\n",
		"phase before N":       "PMSTRACE v1\nPHASE\n",
		"send outside proc":    "PMSTRACE v1\nN 2\nSEND 1 8\n",
		"conn outside phase":   "PMSTRACE v1\nN 2\nCONN 0 1\n",
		"bad proc index":       "PMSTRACE v1\nN 2\nPROC 5\n",
		"bad send args":        "PMSTRACE v1\nN 2\nPROC 0\nSEND 1\n",
		"bad integer":          "PMSTRACE v1\nN 2\nPROC 0\nSEND x 8\n",
		"self connection":      "PMSTRACE v1\nN 2\nPHASE\nCONN 1 1\n",
		"out-of-range conn":    "PMSTRACE v1\nN 2\nPHASE\nCONN 0 5\n",
		"unknown directive":    "PMSTRACE v1\nN 2\nWIBBLE\n",
		"negative N":           "PMSTRACE v1\nN -3\n",
		"self-send (validate)": "PMSTRACE v1\nN 2\nPROC 0\nSEND 0 8\n",
		"oversize send":        "PMSTRACE v1\nN 2\nPROC 0\nSEND 1 2147483648\n",
		"flush with args":      "PMSTRACE v1\nN 2\nPROC 0\nFLUSH now\n",
		"phasehint no phases":  "PMSTRACE v1\nN 2\nPROC 0\nPHASEHINT 0\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestReadRejectsOversizeSend checks that a send larger than a simulated
// message's 32-bit size is refused by name when the file is read, and that
// the largest representable send is accepted.
func TestReadRejectsOversizeSend(t *testing.T) {
	_, err := Read(strings.NewReader("PMSTRACE v1\nN 2\nPROC 0\nSEND 1 2147483648\n"))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 2147483647-byte message limit") {
		t.Fatalf("oversize send: err = %v, want the message-limit error", err)
	}
	wl, err := Read(strings.NewReader("PMSTRACE v1\nN 2\nPROC 0\nSEND 1 2147483647\n"))
	if err != nil {
		t.Fatalf("largest send refused: %v", err)
	}
	if wl.TotalBytes() != math.MaxInt32 {
		t.Fatalf("largest send read as %d bytes", wl.TotalBytes())
	}
}

func TestQuickRoundTripRandomMix(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 4 + int(rawN)%28
		wl := traffic.Mix(n, 16, 6, 0.5, 0, seed)
		var buf bytes.Buffer
		if err := Write(&buf, wl); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.N != wl.N || got.MessageCount() != wl.MessageCount() || got.TotalBytes() != wl.TotalBytes() {
			return false
		}
		return got.ConnSet().Matrix().Equal(wl.ConnSet().Matrix())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripPreservesSpec: the SPEC line carries the generator spec of
// every registry-built workload through the trace format (and with it
// Workload.Hash, which fingerprints the serialization).
func TestRoundTripPreservesSpec(t *testing.T) {
	for _, name := range traffic.Names() {
		t.Run(name, func(t *testing.T) {
			wl, err := traffic.Generate(name, 16, 7)
			if err != nil {
				t.Fatal(err)
			}
			if wl.Spec == "" {
				t.Fatal("registry-built workload has no spec")
			}
			got := roundTrip(t, wl)
			if got.Spec != wl.Spec {
				t.Fatalf("spec %q round-tripped as %q", wl.Spec, got.Spec)
			}
			assertEqualWorkloads(t, wl, got)
		})
	}
}
