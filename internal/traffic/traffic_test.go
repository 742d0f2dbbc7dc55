package traffic

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"pmsnet/internal/topology"
)

func TestOpConstructorsAndKindString(t *testing.T) {
	if op := Send(3, 64); op.Kind != OpSend || op.Dst != 3 || op.Bytes() != 64 {
		t.Fatalf("Send = %+v", op)
	}
	if op := Delay(100); op.Kind != OpDelay || op.Delay() != 100 {
		t.Fatalf("Delay = %+v", op)
	}
	if Flush().Kind != OpFlush || Phase(2).Phase() != 2 {
		t.Fatal("Flush/Phase constructors wrong")
	}
	names := map[OpKind]string{OpSend: "send", OpDelay: "delay", OpFlush: "flush", OpPhase: "phase"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if OpKind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestOpLayout pins an Op to 16 bytes. The driver reads one op per program
// step, and consecutive steps visit different processors' programs, so a
// wider op costs a run cache misses in proportion to its op count.
func TestOpLayout(t *testing.T) {
	if size := unsafe.Sizeof(Op{}); size != 16 {
		t.Fatalf("unsafe.Sizeof(Op{}) = %d bytes, want 16: kind, destination and one operand", size)
	}
}

// TestSendRefusesWrappingDestination checks that a destination outside the
// int32 range panics instead of narrowing into a valid port (1<<32 + 1
// would wrap to 1).
func TestSendRefusesWrappingDestination(t *testing.T) {
	for _, build := range []func(dst, bytes int) Op{Send, SendWait} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a destination past the int32 range was narrowed")
				}
			}()
			build(1<<32+1, 8)
		}()
	}
	if op := Send(math.MaxInt32, 8); op.Dst != math.MaxInt32 {
		t.Fatalf("Send(MaxInt32) has destination %d", op.Dst)
	}
}

func TestValidateCatchesBadWorkloads(t *testing.T) {
	good := &Workload{Name: "x", N: 2, Programs: []Program{{Ops: []Op{Send(1, 8), Send(1, math.MaxInt32)}}, {}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good workload rejected: %v", err)
	}
	bad := []*Workload{
		{Name: "n0", N: 0},
		{Name: "progs", N: 2, Programs: []Program{{}}},
		{Name: "dst", N: 2, Programs: []Program{{Ops: []Op{Send(2, 8)}}, {}}},
		{Name: "self", N: 2, Programs: []Program{{Ops: []Op{Send(0, 8)}}, {}}},
		{Name: "size", N: 2, Programs: []Program{{Ops: []Op{Send(1, 0)}}, {}}},
		{Name: "oversize", N: 2, Programs: []Program{{Ops: []Op{Send(1, math.MaxInt32+1)}}, {}}},
		{Name: "oversize-wait", N: 2, Programs: []Program{{Ops: []Op{SendWait(1, math.MaxInt32+1)}}, {}}},
		{Name: "delay", N: 2, Programs: []Program{{Ops: []Op{Delay(-1)}}, {}}},
		{Name: "phase", N: 2, Programs: []Program{{Ops: []Op{Phase(0)}}, {}}},
		{Name: "kind", N: 2, Programs: []Program{{Ops: []Op{{Kind: OpKind(9)}}}, {}}},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("workload %q should fail validation", w.Name)
		}
	}
	// Static phase with wrong port count.
	wrong := &Workload{Name: "ph", N: 2, Programs: []Program{{}, {}},
		StaticPhases: []*topology.WorkingSet{topology.NewWorkingSet(3)}}
	if err := wrong.Validate(); err == nil {
		t.Error("mismatched static phase should fail validation")
	}
}

func TestScatter(t *testing.T) {
	const n, size = 16, 64
	w := Scatter(n, size)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.MessageCount() != n-1 {
		t.Fatalf("MessageCount = %d, want %d", w.MessageCount(), n-1)
	}
	if w.TotalBytes() != int64((n-1)*size) {
		t.Fatalf("TotalBytes = %d", w.TotalBytes())
	}
	for p := 1; p < n; p++ {
		if len(w.Programs[p].Ops) != 0 {
			t.Fatalf("processor %d should be silent in scatter", p)
		}
	}
	if len(w.StaticPhases) != 1 || w.StaticPhases[0].Len() != n-1 {
		t.Fatal("scatter static phase should hold all fan-out connections")
	}
	// Scatter's working set has degree n-1 (node 0's out-degree).
	if got := w.StaticPhases[0].Degree(); got != n-1 {
		t.Fatalf("scatter degree = %d, want %d", got, n-1)
	}
}

func TestOrderedMeshDeterministicAndDegree4(t *testing.T) {
	const n = 128
	w := OrderedMesh(n, 64, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	w2 := OrderedMesh(n, 64, 3)
	for p := range w.Programs {
		if len(w.Programs[p].Ops) != len(w2.Programs[p].Ops) {
			t.Fatal("ordered mesh must be deterministic")
		}
		for i := range w.Programs[p].Ops {
			if w.Programs[p].Ops[i] != w2.Programs[p].Ops[i] {
				t.Fatal("ordered mesh must be deterministic")
			}
		}
	}
	if got := w.StaticPhases[0].Degree(); got != 4 {
		t.Fatalf("ordered mesh degree = %d, want 4 (the paper's multiplexing degree)", got)
	}
	// Interior node sends 4 messages per round.
	mesh := topology.MeshFor(n, false)
	interior := mesh.Rank(2, 2)
	if got := len(w.Programs[interior].Ops); got != 12 {
		t.Fatalf("interior node ops = %d, want 12 (4 neighbors x 3 rounds)", got)
	}
	// Every destination is a mesh neighbor.
	for p, prog := range w.Programs {
		nbs := map[int]bool{}
		for _, nb := range mesh.Neighbors(p) {
			nbs[nb] = true
		}
		for _, op := range prog.Ops {
			if !nbs[int(op.Dst)] {
				t.Fatalf("proc %d sends to non-neighbor %d", p, op.Dst)
			}
		}
	}
}

func TestRandomMeshSeededAndNeighborsOnly(t *testing.T) {
	const n = 128
	a := RandomMesh(n, 256, 10, 42)
	b := RandomMesh(n, 256, 10, 42)
	c := RandomMesh(n, 256, 10, 43)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	sameAsA := true
	for p := range a.Programs {
		for i := range a.Programs[p].Ops {
			if a.Programs[p].Ops[i] != b.Programs[p].Ops[i] {
				t.Fatal("same seed must reproduce the same workload")
			}
			if a.Programs[p].Ops[i] != c.Programs[p].Ops[i] {
				sameAsA = false
			}
		}
	}
	if sameAsA {
		t.Fatal("different seeds should differ")
	}
	if a.MessageCount() != n*10 {
		t.Fatalf("MessageCount = %d, want %d", a.MessageCount(), n*10)
	}
	mesh := topology.MeshFor(n, false)
	for p, prog := range a.Programs {
		nbs := map[int]bool{}
		for _, nb := range mesh.Neighbors(p) {
			nbs[nb] = true
		}
		for _, op := range prog.Ops {
			if !nbs[int(op.Dst)] {
				t.Fatalf("proc %d sends to non-neighbor %d", p, op.Dst)
			}
		}
	}
}

func TestAllToAllIsStaggeredPermutationSteps(t *testing.T) {
	const n = 8
	w := AllToAll(n, 64)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.MessageCount() != n*(n-1) {
		t.Fatalf("MessageCount = %d, want %d", w.MessageCount(), n*(n-1))
	}
	// At step k, the destinations across processors form a permutation.
	for step := 0; step < n-1; step++ {
		seen := map[int]bool{}
		for p := 0; p < n; p++ {
			d := int(w.Programs[p].Ops[step].Dst)
			if seen[d] {
				t.Fatalf("step %d: destination %d repeated", step, d)
			}
			seen[d] = true
		}
	}
	if w.StaticPhases[0].Len() != n*(n-1) || w.StaticPhases[0].Degree() != n-1 {
		t.Fatal("all-to-all static phase wrong")
	}
}

func TestTwoPhaseStructure(t *testing.T) {
	const n = 16
	w := TwoPhase(n, 128, 7)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(w.StaticPhases) != 2 {
		t.Fatalf("static phases = %d, want 2", len(w.StaticPhases))
	}
	// Program structure per processor: Phase(0), n-1 sends, Flush, Phase(1),
	// 16 neighbor sends.
	for p, prog := range w.Programs {
		ops := prog.Ops
		if ops[0].Kind != OpPhase || ops[0].Phase() != 0 {
			t.Fatalf("proc %d: first op %+v, want Phase(0)", p, ops[0])
		}
		if ops[n].Kind != OpFlush {
			t.Fatalf("proc %d: op %d is %v, want flush after all-to-all", p, n, ops[n].Kind)
		}
		if ops[n+1].Kind != OpPhase || ops[n+1].Phase() != 1 {
			t.Fatalf("proc %d: expected Phase(1) after flush", p)
		}
		sends := 0
		for _, op := range ops {
			if op.Kind == OpSend {
				sends++
			}
		}
		if sends != (n-1)+16 {
			t.Fatalf("proc %d: %d sends, want %d", p, sends, n-1+16)
		}
	}
	// Global phase is all-to-all; local phase is the neighbor set.
	if w.StaticPhases[0].Degree() != n-1 {
		t.Fatal("global phase degree wrong")
	}
	if got := w.StaticPhases[1].Degree(); got != 4 {
		t.Fatalf("local phase degree = %d, want 4", got)
	}
}

func TestFavoredDestinations(t *testing.T) {
	const n = 128
	for p := 0; p < n; p++ {
		fav := FavoredDestinations(n, p)
		if fav[0] == p || fav[1] == p || fav[0] == fav[1] {
			t.Fatalf("proc %d: favored %v must be distinct non-self", p, fav)
		}
	}
	// The two favored patterns are permutations: each destination appears
	// exactly once per pattern.
	seen0, seen1 := map[int]bool{}, map[int]bool{}
	for p := 0; p < n; p++ {
		fav := FavoredDestinations(n, p)
		if seen0[fav[0]] || seen1[fav[1]] {
			t.Fatal("favored patterns must be permutations")
		}
		seen0[fav[0]] = true
		seen1[fav[1]] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny n")
		}
	}()
	FavoredDestinations(2, 0)
}

func TestMixDeterminismFraction(t *testing.T) {
	const n, msgs = 128, 200
	for _, d := range []float64{0, 0.5, 0.85, 1} {
		w := Mix(n, 64, msgs, d, 0, 5)
		if err := w.Validate(); err != nil {
			t.Fatal(err)
		}
		favored := 0
		for p, prog := range w.Programs {
			fav := FavoredDestinations(n, p)
			for _, op := range prog.Ops {
				if int(op.Dst) == fav[0] || int(op.Dst) == fav[1] {
					favored++
				}
			}
		}
		frac := float64(favored) / float64(n*msgs)
		// Random traffic can also hit a favored destination by chance
		// (~2/128), so the observed fraction slightly exceeds d.
		if frac < d-0.05 || frac > d+0.07 {
			t.Errorf("determinism %v: favored fraction %v out of tolerance", d, frac)
		}
	}
	// The static phase decomposes into exactly two permutations.
	w := Mix(n, 64, 10, 0.5, 0, 1)
	if got := w.StaticPhases[0].Degree(); got != 2 {
		t.Fatalf("mix static degree = %d, want 2", got)
	}
	configs := topology.Decompose(w.StaticPhases[0])
	if len(configs) != 2 {
		t.Fatalf("mix static phase decomposes into %d configs, want 2", len(configs))
	}
}

func TestGeneratorsPanicOnBadArgs(t *testing.T) {
	for i, fn := range []func(){
		func() { Scatter(1, 8) },
		func() { Scatter(8, 0) },
		func() { OrderedMesh(8, 8, 0) },
		func() { RandomMesh(8, 8, 0, 1) },
		func() { Mix(8, 8, 5, 1.5, 0, 1) },
		func() { Mix(8, 8, 0, 0.5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestConnSetMatchesPrograms(t *testing.T) {
	w := RandomMesh(32, 64, 5, 9)
	cs := w.ConnSet()
	for p, prog := range w.Programs {
		for _, op := range prog.Ops {
			if op.Kind == OpSend && !cs.Contains(topology.Conn{Src: p, Dst: int(op.Dst)}) {
				t.Fatalf("ConnSet missing %d->%d", p, op.Dst)
			}
		}
	}
	// And nothing extra: every connection has at least one send.
	for _, c := range cs.Conns() {
		found := false
		for _, op := range w.Programs[c.Src].Ops {
			if op.Kind == OpSend && int(op.Dst) == c.Dst {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ConnSet has spurious %v", c)
		}
	}
}

func TestQuickWorkloadsAlwaysValidate(t *testing.T) {
	f := func(seed int64, rawN, rawBytes uint8) bool {
		n := 4 + int(rawN)%60
		bytes := 8 + int(rawBytes)
		for _, w := range []*Workload{
			Scatter(n, bytes),
			OrderedMesh(n, bytes, 2),
			RandomMesh(n, bytes, 3, seed),
			AllToAll(n, bytes),
			TwoPhase(n, bytes, seed),
			Mix(n, bytes, 4, 0.7, 0, seed),
		} {
			if err := w.Validate(); err != nil {
				return false
			}
			if w.ConnSet().Len() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotWorkload(t *testing.T) {
	const n = 16
	w := Hotspot(n, 64, 5, 2048, 10, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Background: n*5 messages; hot stream: 10 more from node 0.
	if got, want := w.MessageCount(), n*5+10; got != want {
		t.Fatalf("MessageCount = %d, want %d", got, want)
	}
	hot := 0
	for _, op := range w.Programs[0].Ops {
		if op.Kind == OpSend && int(op.Dst) == n-1 && op.Bytes() == 2048 {
			hot++
		}
	}
	if hot != 10 {
		t.Fatalf("hot messages = %d, want 10", hot)
	}
	if !w.StaticPhases[0].Contains(topology.Conn{Src: 0, Dst: n - 1}) {
		t.Fatal("hot connection missing from static phase")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad hot stream")
		}
	}()
	Hotspot(n, 64, 5, 0, 10, 3)
}

func TestConcatBuildsPhasedProgram(t *testing.T) {
	a := AllToAll(16, 32)
	b := OrderedMesh(16, 32, 2)
	c := Concat("a2a+mesh", a, b)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MessageCount() != a.MessageCount()+b.MessageCount() {
		t.Fatal("Concat lost messages")
	}
	if len(c.StaticPhases) != 2 {
		t.Fatalf("phases = %d, want 2", len(c.StaticPhases))
	}
	// Each processor: Phase(0), phase-0 sends, Flush, Phase(1), phase-1 sends.
	for p, prog := range c.Programs {
		if prog.Ops[0].Kind != OpPhase || prog.Ops[0].Phase() != 0 {
			t.Fatalf("proc %d: first op %v", p, prog.Ops[0])
		}
		flushes := 0
		for _, op := range prog.Ops {
			if op.Kind == OpFlush {
				flushes++
			}
		}
		if flushes != 1 {
			t.Fatalf("proc %d: %d flushes, want 1", p, flushes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on processor-count mismatch")
		}
	}()
	Concat("bad", a, OrderedMesh(8, 32, 1))
}

func TestConcatEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concat("empty")
}

// BenchmarkGenTwoPhase128 measures generating the Figure 4 two-phase
// workload at N=128: the op slices and both static working sets.
func BenchmarkGenTwoPhase128(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TwoPhase(128, 64, int64(i))
	}
}
