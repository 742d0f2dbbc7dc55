package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"time"

	"pmsnet"
)

// digest fingerprints the simulated outputs of one run: everything the
// simulation model decides, and nothing that only reflects how fast or by
// which execution path it ran. The scheduler's memo-cache and warm-start
// counters (CacheHits/CacheMisses/WarmHits/WarmMisses/DirtyRows) are left
// out on purpose, so removing or changing those execution-only knobs does
// not trip the correctness gate.
func digest(rep pmsnet.Report) string {
	s := rep.Sched
	p := rep.Plan
	text := fmt.Sprintf("msgs=%d bytes=%d makespan=%d eff=%s p50=%d p95=%d max=%d "+
		"passes=%d est=%d rel=%d evict=%d preloads=%d plan=%s/%d/%d/%d/%d",
		rep.Messages, rep.Bytes, int64(rep.Makespan),
		strconv.FormatFloat(rep.Efficiency, 'g', -1, 64),
		int64(rep.LatencyP50), int64(rep.LatencyP95), int64(rep.LatencyMax),
		s.Passes, s.Established, s.Released, s.Evictions, s.Preloads,
		p.Planner, p.Configs, p.Groups, p.ResidualConns, p.DrainSlots)
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

//go:embed expected.json
var expectedJSON []byte

// expected maps "workload/network/seed" to the committed digest.
var expected = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return m
}()

func digestKey(workload, network string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", workload, network, seed)
}

// Committed seed coverage: every run whose seed base lies in
// [0, pinnedBases) or equals heldOutBase has all its simulated outputs
// checked against expected.json. Runs at other bases fall back to the
// determinism and conservation checks alone and say so.
const (
	pinnedBases = 128
	heldOutBase = 1000
)

// checker applies the correctness gate to one workload's reports.
type checker struct {
	workload string
	// seen holds the first digest per key in this process, so repeated
	// simulations of one input must reproduce it exactly.
	seen           map[string]string
	pinned, merely int
}

func newChecker(workload string) *checker {
	return &checker{workload: workload, seen: map[string]string{}}
}

// check returns an error when the report disagrees with the committed digest,
// with an earlier run of the same input, or with the workload it simulated.
func (c *checker) check(network string, seed int64, wl *pmsnet.Workload, rep pmsnet.Report) error {
	if rep.Messages != wl.Messages() || rep.Bytes != wl.TotalBytes() {
		return fmt.Errorf("%s seed %d: delivered %d msgs / %d B, workload has %d / %d",
			network, seed, rep.Messages, rep.Bytes, wl.Messages(), wl.TotalBytes())
	}
	key := digestKey(c.workload, network, seed)
	d := digest(rep)
	if first, ok := c.seen[key]; ok {
		if d != first {
			return fmt.Errorf("%s: digest %s differs from the same input's earlier run %s", key, d, first)
		}
		return nil
	}
	c.seen[key] = d
	want, ok := expected[key]
	if !ok {
		c.merely++
		return nil
	}
	c.pinned++
	if d != want {
		return fmt.Errorf("%s: digest %s, expected %s", key, d, want)
	}
	return nil
}

func (c *checker) summary(o *outcome) {
	o.note("digests: %d inputs checked against expected.json, %d outside the committed seeds (determinism and conservation only)",
		c.pinned, c.merely)
}

// recordDigests regenerates the expected-digest table for every batch
// workload over the committed seed bases and writes it to path.
func recordDigests(path string) error {
	out := map[string]string{}
	for _, w := range batchWorkloads {
		seeds := map[int64]bool{}
		for b := int64(0); b < pinnedBases; b++ {
			for _, s := range w.seeds(b) {
				seeds[s] = true
			}
		}
		for _, s := range w.seeds(heldOutBase) {
			seeds[s] = true
		}
		start := time.Now()
		for seed := range seeds {
			wl, err := pmsnet.GenerateWorkload(w.spec, w.n, seed)
			if err != nil {
				return err
			}
			for _, nc := range w.nets {
				rep, err := pmsnet.Run(nc.cfg, wl)
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", w.name, nc.name, seed, err)
				}
				out[digestKey(w.name, nc.name, seed)] = digest(rep)
			}
		}
		fmt.Fprintf(os.Stderr, "recorded %s: %d seeds in %v\n", w.name, len(seeds), time.Since(start).Round(time.Millisecond))
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
