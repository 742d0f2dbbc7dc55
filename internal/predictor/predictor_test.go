package predictor

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// table is the connection table the unit tests run over: every pair of
// distinct ports below tableN.
const tableN = 70

var (
	table = topology.NewConnTable(tableN, func(src int, add func(dst int)) {
		for v := 0; v < tableN; v++ {
			if v != src {
				add(v)
			}
		}
	})

	c01 = conn(0, 1)
	c12 = conn(1, 2)
	c23 = conn(2, 3)

	// all holds every connection of the table, so Evictions filters nothing
	// out.
	all = func() []uint64 {
		m := make([]uint64, (table.Len()+63)/64)
		for i := range m {
			m[i] = ^uint64(0)
		}
		return m
	}()
)

// conn returns src→dst with its id in table.
func conn(src, dst int) Conn {
	return Conn{Conn: topology.Conn{Src: src, Dst: dst}, ID: table.ID(src, dst)}
}

// heldSet returns the held bitset holding exactly cs.
func heldSet(cs ...Conn) []uint64 {
	m := make([]uint64, (table.Len()+63)/64)
	for _, c := range cs {
		bitmat.MaskSet(m, int(c.ID))
	}
	return m
}

// newTimeout returns a time-out predictor started on table.
func newTimeout(timeout sim.Time) *Timeout {
	p := NewTimeout(timeout)
	p.Start(table)
	return p
}

func TestNever(t *testing.T) {
	p := NewNever()
	p.OnEstablish(c01, 0)
	p.OnUse(c01, 10)
	if got := p.Evictions(1<<40, all); got != nil {
		t.Fatalf("never predictor evicted %v", got)
	}
	if p.Name() != "never" {
		t.Fatal("name wrong")
	}
	p.OnRelease(c01) // must not panic
}

func TestTimeoutEvictsIdleConnections(t *testing.T) {
	p := newTimeout(100)
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	p.OnUse(c01, 50)
	// At t=120: c12 idle for 120 >= 100, c01 idle for 70 < 100.
	got := p.Evictions(120, all)
	if len(got) != 1 || got[0] != c12 {
		t.Fatalf("Evictions = %v, want [%v]", got, c12)
	}
	// Use refreshes.
	p.OnUse(c12, 121)
	if got := p.Evictions(149, all); len(got) != 0 {
		t.Fatalf("Evictions after refresh = %v, want none", got)
	}
	// At 250 both are idle long enough; order is deterministic.
	got = p.Evictions(250, all)
	if len(got) != 2 || got[0] != c01 || got[1] != c12 {
		t.Fatalf("Evictions = %v, want sorted [%v %v]", got, c01, c12)
	}
	p.OnRelease(c01)
	if p.Tracked() != 1 {
		t.Fatalf("Tracked = %d, want 1", p.Tracked())
	}
}

func TestTimeoutExactBoundary(t *testing.T) {
	p := newTimeout(100)
	p.OnEstablish(c01, 0)
	if got := p.Evictions(99, all); len(got) != 0 {
		t.Fatal("must not evict before the timeout")
	}
	if got := p.Evictions(100, all); len(got) != 1 {
		t.Fatal("must evict exactly at the timeout")
	}
}

func TestTimeoutPanicsOnBadTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeout(0)
}

func TestCounterEvictsOnOtherUses(t *testing.T) {
	p := NewCounter(3)
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	// Three uses of c12: c01's counter reaches 3.
	p.OnUse(c12, 1)
	p.OnUse(c12, 2)
	if got := p.Evictions(2, all); len(got) != 0 {
		t.Fatalf("premature eviction: %v", got)
	}
	p.OnUse(c12, 3)
	got := p.Evictions(3, all)
	if len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
}

func TestCounterDoesNotEvictDuringComputePhase(t *testing.T) {
	// The paper's motivation for the counter predictor: no eviction while
	// the application computes and nothing communicates — unlike Timeout.
	p := NewCounter(2)
	p.OnEstablish(c01, 0)
	p.OnUse(c01, 1)
	if got := p.Evictions(1<<40, all); len(got) != 0 {
		t.Fatalf("counter predictor evicted %v with no intervening uses", got)
	}
	tp := newTimeout(100)
	tp.OnEstablish(c01, 0)
	tp.OnUse(c01, 1)
	if got := tp.Evictions(1<<40, all); len(got) != 1 {
		t.Fatal("timeout predictor should evict during a long compute phase")
	}
}

func TestCounterUseResets(t *testing.T) {
	p := NewCounter(2)
	p.OnEstablish(c01, 0)
	p.OnUse(c12, 1)
	p.OnUse(c01, 2) // reset
	p.OnUse(c12, 3)
	if got := p.Evictions(3, all); len(got) != 0 {
		t.Fatalf("counter should be 1 for c01 after reset, got eviction %v", got)
	}
	p.OnUse(c23, 4)
	got := p.Evictions(4, all)
	if len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
}

func TestCounterPanicsOnZeroThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(0)
}

func TestOracleEvictsAfterLastUse(t *testing.T) {
	p := NewOracle(map[topology.Conn]int{c01.Conn: 2, c12.Conn: 1})
	p.OnEstablish(c01, 0)
	p.OnEstablish(c12, 0)
	p.OnUse(c01, 1)
	if got := p.Evictions(1, all); len(got) != 0 {
		t.Fatalf("c01 has one use left, got eviction %v", got)
	}
	p.OnUse(c01, 2)
	p.OnUse(c12, 3)
	got := p.Evictions(3, all)
	if len(got) != 2 {
		t.Fatalf("Evictions = %v, want both exhausted connections", got)
	}
	p.OnRelease(c01)
	p.OnRelease(c12)
	if got := p.Evictions(4, all); len(got) != 0 {
		t.Fatalf("after release: %v", got)
	}
}

func TestOracleUnplannedConnectionEvictedImmediately(t *testing.T) {
	p := NewOracle(map[topology.Conn]int{c01.Conn: 1})
	p.OnEstablish(c23, 0) // never in the plan
	got := p.Evictions(0, all)
	if len(got) != 1 || got[0] != c23 {
		t.Fatalf("Evictions = %v, want [%v]", got, c23)
	}
}

func TestOraclePanicsOnNegativeUses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOracle(map[topology.Conn]int{c01.Conn: -1})
}

func TestNamesAreDistinct(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Predictor{NewNever(), NewTimeout(100), NewCounter(4), NewOracle(nil)} {
		if names[p.Name()] {
			t.Fatalf("duplicate name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

// TestQuickTimeoutNeverEvictsRecentlyUsed: whatever the interleaving, a
// connection used within the timeout window is never nominated.
func TestQuickTimeoutNeverEvictsRecentlyUsed(t *testing.T) {
	f := func(events []uint16, window uint8) bool {
		timeout := sim.Time(int64(window)%500 + 1)
		p := newTimeout(timeout)
		last := map[Conn]sim.Time{}
		now := sim.Time(0)
		for _, e := range events {
			now += sim.Time(e % 50)
			c := conn(int(e%4), int(e%4)+1)
			p.OnUse(c, now)
			last[c] = now
		}
		for _, c := range p.Evictions(now, all) {
			if now-last[c] < timeout {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCounterMatchesNaive compares the counter predictor against a
// naive per-connection recount of "other uses since my last use".
func TestQuickCounterMatchesNaive(t *testing.T) {
	f := func(events []uint8, rawThreshold uint8) bool {
		threshold := uint64(rawThreshold)%10 + 1
		p := NewCounter(threshold)
		var log []Conn
		seen := map[Conn]bool{}
		for _, e := range events {
			c := conn(int(e%5), int(e%5)+1)
			if !seen[c] {
				p.OnEstablish(c, 0)
				seen[c] = true
			}
			p.OnUse(c, 0)
			log = append(log, c)
		}
		evicted := map[Conn]bool{}
		for _, c := range p.Evictions(0, all) {
			evicted[c] = true
		}
		for c := range seen {
			othersSince := 0
			for i := len(log) - 1; i >= 0; i-- {
				if log[i] == c {
					break
				}
				othersSince++
			}
			if evicted[c] != (uint64(othersSince) >= threshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterIdleGrants(t *testing.T) {
	p := NewCounter(3)
	p.OnEstablish(c01, 0)
	p.OnIdleGrant(c01, 1)
	p.OnIdleGrant(c01, 2)
	if got := p.Evictions(2, all); len(got) != 0 {
		t.Fatalf("2 idle grants below threshold 3, got %v", got)
	}
	p.OnIdleGrant(c01, 3)
	if got := p.Evictions(3, all); len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want [%v]", got, c01)
	}
	// A use resets the idle count.
	p.OnUse(c01, 4)
	p.OnIdleGrant(c01, 5)
	if got := p.Evictions(5, all); len(got) != 0 {
		t.Fatalf("use should reset idle grants, got %v", got)
	}
	// Idle grants and other-uses combine.
	p.OnIdleGrant(c01, 6)
	p.OnUse(c12, 7)
	if got := p.Evictions(7, all); len(got) != 1 || got[0] != c01 {
		t.Fatalf("2 idle + 1 other-use should reach threshold 3, got %v", got)
	}
	p.OnRelease(c01)
	if got := p.Evictions(8, all); len(got) != 0 {
		t.Fatalf("after release: %v", got)
	}
}

func TestEvictionsFilterByHeld(t *testing.T) {
	held := heldSet(c12)
	// Each predictor establishes c01 and c12 at 0; after uses at 1, both are
	// due at now.
	for _, tc := range []struct {
		p    Predictor
		uses []Conn
		now  sim.Time
	}{
		{newTimeout(100), nil, 100},
		{newMarkov(100, 1), nil, 100},
		{NewCounter(1), []Conn{c23}, 1},
		{NewOracle(nil), nil, 1},
	} {
		tc.p.OnEstablish(c01, 0)
		tc.p.OnEstablish(c12, 0)
		for _, c := range tc.uses {
			tc.p.OnUse(c, 1)
		}
		if got := tc.p.Evictions(tc.now, all); len(got) != 2 {
			t.Fatalf("%s: Evictions(all) = %v, want both", tc.p.Name(), got)
		}
		if got := tc.p.Evictions(tc.now, held); len(got) != 1 || got[0] != c12 {
			t.Fatalf("%s: Evictions(held) = %v, want [%v]", tc.p.Name(), got, c12)
		}
	}
}

func TestOracleDoubleNominationNeedsTwoReleases(t *testing.T) {
	// An unplanned connection established twice without a release in between
	// is nominated twice; the first release leaves one nomination standing.
	p := NewOracle(nil)
	p.OnEstablish(c01, 0)
	p.OnEstablish(c01, 1)
	if got := p.Evictions(1, all); len(got) != 1 || got[0] != c01 {
		t.Fatalf("Evictions = %v, want one nomination of %v", got, c01)
	}
	p.OnRelease(c01)
	if got := p.Evictions(2, all); len(got) != 1 {
		t.Fatalf("after one release: %v, want [%v]", got, c01)
	}
	p.OnRelease(c01)
	if got := p.Evictions(3, all); len(got) != 0 {
		t.Fatalf("after two releases: %v", got)
	}
}

func TestTimeoutPanicsWhenTimeGoesBackwards(t *testing.T) {
	for name, call := range map[string]func(p *Timeout){
		"OnUse":       func(p *Timeout) { p.OnUse(c12, 5) },
		"OnEstablish": func(p *Timeout) { p.OnEstablish(c12, 5) },
		"Evictions":   func(p *Timeout) { p.Evictions(5, all) },
	} {
		t.Run(name, func(t *testing.T) {
			p := newTimeout(100)
			p.OnUse(c01, 10)
			p.Evictions(10, all) // equal times are fine
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "time must not go backwards") {
					t.Fatalf("panic = %q, want a time-went-backwards message", msg)
				}
			}()
			call(p)
		})
	}
}

// refTimeout is the map-scan time-out predictor Timeout replaced, with the
// B* filter its caller used to apply folded in. The parity tests hold
// Timeout to it.
type refTimeout struct {
	timeout sim.Time
	lastUse map[Conn]sim.Time
}

func (p *refTimeout) touch(c Conn, now sim.Time) { p.lastUse[c] = now }

func (p *refTimeout) release(c Conn) { delete(p.lastUse, c) }

func (p *refTimeout) evictions(now sim.Time, held []uint64) []Conn {
	var out []Conn
	for c, last := range p.lastUse {
		if now-last >= p.timeout && bitmat.MaskTest(held, int(c.ID)) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// The parity sequences draw from a 12x12 grid of the table's ports, spread
// over its 70, so that calls revisit the same connections often; a
// self-pair is moved one column on.
func parityConn(a, b int) Conn {
	src, dst := a%12, b%12
	if dst == src {
		dst = (dst + 1) % 12
	}
	return conn(src*6, dst*6)
}

// checkTimeoutParity decodes data into a sequence of establish, use,
// release, held-mask and Evictions calls with non-decreasing times, applies
// it to Timeout and to refTimeout, and fails on the first Evictions result
// that differs.
func checkTimeoutParity(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	timeout := sim.Time(data[0]%100) + 1
	p := newTimeout(timeout)
	ref := &refTimeout{timeout: timeout, lastUse: map[Conn]sim.Time{}}
	held := heldSet()
	now := sim.Time(0)
	for i := 1; i+3 < len(data); i += 4 {
		op, a, b, dt := data[i], int(data[i+1]), int(data[i+2]), sim.Time(data[i+3]%32)
		c := parityConn(a, b)
		now += dt
		switch op % 8 {
		case 0, 1:
			p.OnEstablish(c, now)
			ref.touch(c, now)
			bitmat.MaskSet(held, int(c.ID))
		case 2, 3:
			p.OnUse(c, now)
			ref.touch(c, now)
		case 4:
			p.OnRelease(c)
			ref.release(c)
		case 5:
			held[c.ID>>6] ^= 1 << (uint(c.ID) & 63)
		case 6:
			if a&1 == 0 {
				clear(held)
			} else {
				copy(held, all)
			}
		case 7:
			got, want := p.Evictions(now, held), ref.evictions(now, held)
			if !slices.Equal(got, want) {
				t.Fatalf("at op %d (t=%v): Evictions = %v, reference %v", i, now, got, want)
			}
			if b&1 == 0 {
				// The tdm caller's loop: evict, then release.
				for _, c := range want {
					bitmat.MaskClear(held, int(c.ID))
					p.OnRelease(c)
					ref.release(c)
				}
			}
		}
		if p.Tracked() != len(ref.lastUse) {
			t.Fatalf("at op %d: Tracked = %d, reference %d", i, p.Tracked(), len(ref.lastUse))
		}
	}
}

func FuzzTimeoutParity(f *testing.F) {
	f.Add([]byte{10, 0, 1, 2, 0, 2, 1, 2, 20, 7, 0, 0, 31})
	f.Add([]byte{1, 0, 69, 69, 1, 0, 65, 3, 1, 7, 1, 1, 5, 4, 69, 69, 0, 7, 0, 0, 0})
	f.Fuzz(checkTimeoutParity)
}

// TestTimeoutParitySeeded runs the parity check over seeded random
// sequences, so plain go test covers what the fuzz target explores.
func TestTimeoutParitySeeded(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*2000+1)
		rng.Read(data)
		checkTimeoutParity(t, data)
	}
}

// timeoutSteadyState models the hybrid two-phase run between scheduling
// passes: 6,000 tracked connections at N=128, of which 5,900 belong to
// swapped-out preload groups (expired, not in B*), 80 are busy and 20 sit
// idle in B* (expired and nominated every pass, but left in place because
// their queues are not empty). sweep advances time by one pass, touches the
// busy ones and runs Evictions.
func timeoutSteadyState() (sweep func() []Conn) {
	const n, tracked, busy, idle = 128, 6000, 80, 20
	const timeout = sim.Time(500)
	full := topology.NewConnTable(n, func(src int, add func(dst int)) {
		for v := 0; v < n; v++ {
			if v != src {
				add(v)
			}
		}
	})
	p := NewTimeout(timeout)
	p.Start(full)
	held := make([]uint64, (full.Len()+63)/64)
	conns := make([]Conn, tracked)
	for k := range conns {
		src, dst := k%n, (k%n+k/n+1)%n
		conns[k] = Conn{Conn: topology.Conn{Src: src, Dst: dst}, ID: full.ID(src, dst)}
		p.OnEstablish(conns[k], 0)
	}
	hot := conns[tracked-busy-idle:]
	for _, c := range hot {
		bitmat.MaskSet(held, int(c.ID))
	}
	hot = hot[:busy]
	now := sim.Time(0)
	sweep = func() []Conn {
		now += timeout / 4
		for _, c := range hot {
			p.OnUse(c, now)
		}
		return p.Evictions(now, held)
	}
	for i := 0; i < 8; i++ {
		sweep()
	}
	if got := sweep(); len(got) != idle {
		panic("timeoutSteadyState: wrong nomination count")
	}
	return sweep
}

// TestTimeoutEvictionsZeroAlloc pins the steady-state sweep — touches of
// tracked connections plus Evictions — to zero allocations.
func TestTimeoutEvictionsZeroAlloc(t *testing.T) {
	sweep := timeoutSteadyState()
	if a := testing.AllocsPerRun(100, func() { sweep() }); a != 0 {
		t.Fatalf("steady-state sweep allocates %v times, want 0", a)
	}
}

func BenchmarkTimeoutEvictions(b *testing.B) {
	sweep := timeoutSteadyState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}

// TestTimeoutEvictionsInConnOrder walks connections through expire, reuse
// and release cycles in an order unrelated to their pairs and checks that
// every Evictions result lists exactly the expired held connections in
// (Src, Dst) order: id order is that order, so no sort is needed.
func TestTimeoutEvictionsInConnOrder(t *testing.T) {
	const timeout = 10
	p := newTimeout(timeout)
	conns := []Conn{conn(5, 0), conn(0, 9), conn(3, 4), conn(0, 2), conn(69, 68), conn(3, 1), conn(12, 40)}
	last := map[Conn]sim.Time{}
	now := sim.Time(0)
	check := func(what string) {
		t.Helper()
		got := p.Evictions(now, all)
		var want []Conn
		for _, c := range conns {
			if at, ok := last[c]; ok && now-at >= timeout {
				want = append(want, c)
			}
		}
		sortConns(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s at t=%v: Evictions = %v, want %v", what, now, got, want)
		}
	}
	for cycle := 0; cycle < 6; cycle++ {
		// Touch in a rotating order, so list order and pair order differ.
		for i := range conns {
			c := conns[(i*3+cycle)%len(conns)]
			p.OnUse(c, now)
			last[c] = now
			now += 2
		}
		check("after touches")
		now += timeout
		check("all expired")
		// Reuse every other connection, release every third.
		for i, c := range conns {
			switch {
			case i%3 == cycle%3:
				p.OnRelease(c)
				delete(last, c)
			case i%2 == 0:
				p.OnUse(c, now)
				last[c] = now
			}
		}
		check("after reuse and release")
		now += timeout
		check("reused expired again")
		for _, c := range conns {
			p.OnRelease(c)
			delete(last, c)
		}
		if p.Tracked() != 0 {
			t.Fatalf("cycle %d: %d tracked after releasing all", cycle, p.Tracked())
		}
	}
}
