package pmsnet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"pmsnet/internal/fault"
	"pmsnet/internal/trace"
)

// Hash returns a stable 64-bit fingerprint of every Config field that can
// influence a Report. Because runs are deterministic, (Config.Hash,
// Workload.Hash) identifies a simulation outcome exactly — it is the result
// cache key of the pmsd service and safe to persist: the encoding is
// FNV-1a over a tagged canonical serialization, not Go's per-process map or
// struct hashing, so equal configs hash equal across processes and restarts.
//
// Semantically equal configurations hash equal: defaults are applied first
// (K=0 hashes like the documented K=4), and an inactive fault plan hashes
// like no plan at all. Fields that never change the Report are excluded:
// Parallelism and Probe only affect how a run executes and what observes it,
// both proven bit-identical by the identity test suites.
func (c Config) Hash() uint64 {
	c = c.withDefaults()
	h := fnv.New64a()
	var buf [8]byte
	word := func(tag byte, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write([]byte{tag})
		h.Write(buf[:])
	}
	word('s', uint64(c.Switching))
	word('n', uint64(c.N))
	word('k', uint64(c.K))
	word('p', uint64(c.PreloadSlots))
	word('e', uint64(c.Eviction))
	word('t', uint64(c.EvictionTimeout.Nanoseconds()))
	word('h', c.EvictionThreshold)
	word('a', uint64(c.AmplifyBytes))
	word('f', uint64(c.Fabric))
	word('P', uint64(c.Planner))
	word('S', uint64(c.Scheduler))
	hashFaults(word, c.Faults)
	return h.Sum64()
}

// hashFaults feeds an active fault plan into the config hash. Inactive
// plans (nil or zero) inject nothing and leave runs bit-identical to
// fault-free ones, so they contribute nothing. The retry-timer defaults are
// applied so a zero RetryBase hashes like the documented default.
func hashFaults(word func(byte, uint64), p *fault.Plan) {
	if !p.Active() {
		return
	}
	word('F', uint64(p.Seed))
	word('B', uint64(p.LinkMTBF))
	word('R', uint64(p.LinkMTTR))
	word('C', floatBits(p.CorruptProb))
	word('Q', floatBits(p.RequestLossProb))
	word('G', floatBits(p.GrantLossProb))
	rb, rc := p.RetryBase, p.RetryCap
	if rb == 0 {
		rb = fault.DefaultRetryBase
	}
	if rc == 0 {
		rc = fault.DefaultRetryCap
	}
	word('b', uint64(rb))
	word('r', uint64(rc))
	word('L', uint64(len(p.Links)))
	for _, l := range p.Links {
		word('l', uint64(l.Port))
		word('@', uint64(l.At))
		word('d', uint64(l.For))
	}
	word('X', uint64(len(p.Crosspoints)))
	for _, x := range p.Crosspoints {
		word('i', uint64(x.In))
		word('o', uint64(x.Out))
		word('@', uint64(x.At))
	}
}

// floatBits maps a probability to its IEEE-754 bit pattern. Probabilities
// are validated into [0,1] before any hash is consulted, so the only
// bit-distinct equal values (-0 and +0) cannot both occur.
func floatBits(f float64) uint64 { return math.Float64bits(f) }

// Hash returns a stable 64-bit fingerprint of the workload: FNV-1a over its
// canonical PMSTRACE serialization, so two workloads hash equal exactly when
// WriteTrace would emit identical files — name, processor count, per-
// processor programs and static phases all included. The workload must be
// valid (every constructor-produced workload is); invalid workloads error.
func (w *Workload) Hash() (uint64, error) {
	if w == nil || w.w == nil {
		return 0, fmt.Errorf("pmsnet: nil workload")
	}
	h := fnv.New64a()
	if err := trace.Write(h, w.w); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}
