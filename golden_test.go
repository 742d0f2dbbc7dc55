package pmsnet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one Switching×workload pair of the bit-identity matrix. The
// golden file was captured at the branch point of the control-plane/fabric
// refactor; the refactor must not change any of these Reports.
type goldenCase struct {
	name string
	cfg  Config
	wl   func(t *testing.T) *Workload
}

func goldenWorkloads(t *testing.T) map[string]*Workload {
	t.Helper()
	analyzed := func(wl *Workload) *Workload {
		an, _, err := AnalyzeWorkload(wl)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	m := map[string]*Workload{
		"scatter":      ScatterWorkload(16, 256),
		"ordered-mesh": OrderedMesh(16, 128, 3),
		"random-mesh":  RandomMesh(16, 128, 6, 2),
		"all-to-all":   AllToAll(16, 64),
		"two-phase":    analyzed(TwoPhaseWorkload(16, 64, 3)),
	}
	// The post-seed workload families, pinned through the generator registry
	// at small parameters so the full switching matrix stays fast. Their spec
	// strings ride in the canonical serialization, so these pins also freeze
	// each family's generated program AND its spec vocabulary.
	for key, spec := range goldenFamilySpecs {
		wl, err := GenerateWorkload(spec, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		m[key] = wl
	}
	return m
}

var goldenFamilySpecs = map[string]string{
	"all-reduce-ring": "all-reduce",
	"all-reduce-tree": "all-reduce:algo=tree",
	"broadcast":       "broadcast:msgs=2",
	"gather":          "gather:msgs=2",
	"phased":          "phased:phases=2,msgs=4",
	"tiles":           "tiles",
	"bursty":          "bursty:msgs=10",
	"perm-churn":      "perm-churn:rounds=4,msgs=2",
	"incast":          "incast:msgs=8,background=4",
}

// legacyOrder lists the five seed workloads whose 40 pins predate the
// registry; testdata/golden_reports.json must never change, byte for byte.
var legacyOrder = []string{"scatter", "ordered-mesh", "random-mesh", "all-to-all", "two-phase"}

// familyOrder lists the registry-built families pinned separately in
// testdata/golden_family_reports.json.
var familyOrder = []string{
	"all-reduce-ring", "all-reduce-tree", "broadcast", "gather",
	"phased", "tiles", "bursty", "perm-churn", "incast",
}

// runGoldenMatrix produces one Report per (switching mode, workload) pair.
func runGoldenMatrix(t *testing.T, wls map[string]*Workload, order []string) map[string]Report {
	t.Helper()
	got := make(map[string]Report)
	for _, sw := range switchingValues {
		for _, wname := range order {
			wl := wls[wname]
			if sw == PreloadTDM || sw == HybridTDM {
				an, _, err := AnalyzeWorkload(wl)
				if err != nil {
					t.Fatal(err)
				}
				wl = an
			}
			cfg := Config{Switching: sw, N: 16, K: 4, PreloadSlots: 1}
			rep, err := Run(cfg, wl)
			if err != nil {
				t.Fatalf("%s/%s: %v", sw, wname, err)
			}
			got[fmt.Sprintf("%s/%s", sw, wname)] = rep
		}
	}
	return got
}

// checkGolden compares a run matrix against a golden file, rewriting the
// file under -update.
func checkGolden(t *testing.T, path string, got map[string]Report) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run GoldenReport -update`): %v", err)
	}
	// Decoding skips keys with no Report field, such as the Sched.CacheHits
	// and Sched.CacheMisses counters of the removed scheduling-pass cache,
	// so the committed files need no rewrite; every remaining field is
	// compared exactly.
	var want map[string]Report
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, run produced %d", len(want), len(got))
	}
	for name, wrep := range want {
		grep, ok := got[name]
		if !ok {
			t.Errorf("%s: case missing from run", name)
			continue
		}
		if grep != wrep {
			t.Errorf("%s: report drifted from seed\n got: %+v\nwant: %+v", name, grep, wrep)
		}
	}
}

// TestGoldenReportBitIdentity locks every pre-existing Switching mode to the
// Report it produced at the seed commit of the refactor. Any drift in event
// ordering, RNG draws or accounting shows up as a field-level diff here.
//
// These pins double as the Report-level sparse-vs-dense identity check: the
// golden files were captured on the dense request path, and the default
// execution path is now the sparse one, so any sparse-path divergence
// surfaces here field by field.
func TestGoldenReportBitIdentity(t *testing.T) {
	got := runGoldenMatrix(t, goldenWorkloads(t), legacyOrder)
	checkGolden(t, filepath.Join("testdata", "golden_reports.json"), got)
}

// TestGoldenFamilyReportBitIdentity pins the registry-built workload
// families over the same full switching matrix, in their own golden file so
// the seed pins above stay byte-identical forever.
func TestGoldenFamilyReportBitIdentity(t *testing.T) {
	got := runGoldenMatrix(t, goldenWorkloads(t), familyOrder)
	checkGolden(t, filepath.Join("testdata", "golden_family_reports.json"), got)
}
