package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/flash"
)

// TestGoldenFlashStats pins every device's final FTL counters for each
// golden cell, one fixture per cell, in store.Devs order. The golden
// Results see only what the samples carry, so a drift in how garbage
// collection counts its work (Relocations, Erases) would pass them;
// this test does not let it.
//
// Regenerate (only when a deliberate behavioural change is made):
//
//	go test ./internal/core -run TestGoldenFlashStats -update-golden
func TestGoldenFlashStats(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			var stats []flash.Stats
			if _, err := run(spec, func(devs []blockdev.Host) {
				for _, d := range devs {
					sd, ok := d.(interface{ SSD() *flash.Device })
					if !ok {
						t.Fatalf("device %T is not a simulated drive", d)
					}
					stats = append(stats, sd.SSD().Stats())
				}
			}); err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(stats, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "flash_"+name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("final flash.Stats diverge from %s\ngot:  %s\nwant: %s", path, got, want)
			}
		})
	}
}
