package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pmsnet"
)

// TestWriteWorkloadRoundTrip writes every registry workload with
// writeWorkload and replays it through buildWorkload, the -write-workload and
// -workload paths: the replayed workload must hash equal to the generated
// one and simulate to the same report.
func TestWriteWorkloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := append([]string{"all-reduce:algo=tree"}, pmsnet.WorkloadNames()...)
	cfg := pmsnet.Config{Switching: pmsnet.DynamicTDM, N: 16}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			wl, err := pmsnet.GenerateWorkload(spec, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, strings.NewReplacer(":", "_", "=", "_").Replace(spec)+".pms")
			if err := writeWorkload(path, wl); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, err := buildWorkload(nil, path, 0, 0)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			want, err := wl.Hash()
			if err != nil {
				t.Fatal(err)
			}
			got, err := back.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("read-back hash %016x, generated %016x", got, want)
			}
			wantRep, err := pmsnet.Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := pmsnet.Run(cfg, back)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Errorf("replayed report differs from the generated run:\n got  %+v\n want %+v", gotRep, wantRep)
			}
		})
	}
}
