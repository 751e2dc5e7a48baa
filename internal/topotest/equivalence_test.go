// Differential policy-equivalence suite: the digests in
// testdata/equivalence.json were generated from the pre-SPI chooser (the
// hard-coded minimal/adaptive switch), and every refactor since must
// reproduce them bit for bit — routes, unreachability errors, RNG stream
// positions, link statistics, and simulation clocks, across healthy and
// faulted fabrics. Each digest was also reproduced by the dense
// O(routers^2) route and link tables while they existed; their twin cells
// (the "/dense" leaf) are gone, and every cell name keeps the "/compact"
// leaf of the one table form left. Refresh (only when a behavior change is
// intended and understood) with:
//
//	UPDATE_EQUIV=1 go test ./internal/topotest -run TestPolicyEquivalence
//
// This file is an external test package on purpose: package topotest must
// keep importing only topology (routing's internal tests import it), so
// the harness — which needs routing, core, and faults — lives out here and
// in internal/topotest/policytest.
package topotest_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest/policytest"
	"dragonfly/internal/trace"
)

const equivFile = "testdata/equivalence.json"

// equivSeed fixes every stream in the suite; changing it invalidates the
// committed digests.
const equivSeed = 11

// tableForm is the leaf of every cell name: the route and link tables'
// one form.
const tableForm = "compact"

// routeCells enumerates the chooser-level grid: preset x mechanism x
// healthy/faulted, plus the gateway-policy ablations the
// SPI also absorbed.
func routeCells() map[string]func(t *testing.T) string {
	cells := map[string]func(t *testing.T) string{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			for _, frac := range []float64{0, 0.15} {
				preset, mech, frac := preset, mech, frac
				name := fmt.Sprintf("route/%s/%s/fault=%.2f/%s", preset, mech, frac, tableForm)
				cells[name] = func(t *testing.T) string {
					ic := buildPreset(t, preset)
					return policytest.RouteDigest(t, ic, policytest.RouteSpec{
						Mech:   mech,
						Seed:   equivSeed,
						Salt:   3,
						Faults: frac,
					})
				}
			}
		}
	}
	for _, gw := range []routing.GatewayPolicy{routing.GatewayNearest, routing.GatewayRandom} {
		gw := gw
		name := fmt.Sprintf("route/mini/min/gateway=%d/%s", gw, tableForm)
		cells[name] = func(t *testing.T) string {
			ic := buildPreset(t, "mini")
			return policytest.RouteDigest(t, ic, policytest.RouteSpec{
				Mech: routing.Minimal,
				Opts: routing.Options{Gateway: gw},
				Seed: equivSeed,
				Salt: 3,
			})
		}
	}
	return cells
}

// simCells enumerates full-simulation cells: preset x placement x
// mechanism x healthy/faulted, each a small crystal-router
// replay whose Result (clocks, events, comm times, link stats, drops) is
// digested whole.
func simCells() map[string]func(t *testing.T) string {
	cells := map[string]func(t *testing.T) string{}
	for _, preset := range []string{"mini", "dfplus-mini"} {
		for _, place := range []placement.Policy{placement.Contiguous, placement.RandomNode} {
			for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
				for _, frac := range []float64{0, 0.15} {
					preset, place, mech, frac := preset, place, mech, frac
					name := fmt.Sprintf("sim/%s/%s-%s/fault=%.2f/%s", preset, place, mech, frac, tableForm)
					cells[name] = func(t *testing.T) string {
						return policytest.SimDigest(t, simConfig(t, preset, place, mech, frac))
					}
				}
			}
		}
	}
	return cells
}

func buildPreset(t *testing.T, preset string) topology.Interconnect {
	t.Helper()
	m, err := topology.Preset(preset)
	if err != nil {
		t.Fatalf("preset %s: %v", preset, err)
	}
	ic, err := m.Build()
	if err != nil {
		t.Fatalf("build %s: %v", preset, err)
	}
	return ic
}

func simConfig(t *testing.T, preset string, place placement.Policy, mech routing.Mechanism, frac float64) core.Config {
	t.Helper()
	m, err := topology.Preset(preset)
	if err != nil {
		t.Fatalf("preset %s: %v", preset, err)
	}
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 8 * trace.KB})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	cfg := core.Config{
		Topology:       m,
		Params:         network.DefaultParams(),
		Placement:      place,
		Routing:        mech,
		Trace:          tr,
		Seed:           equivSeed,
		WatchdogEvents: 10_000_000_000,
	}
	if frac > 0 {
		cfg.Faults = &faults.Spec{GlobalFrac: frac, Seed: equivSeed + 1}
	}
	return cfg
}

// TestPolicyEquivalence compares every cell's digest against the committed
// pre-SPI snapshot.
func TestPolicyEquivalence(t *testing.T) {
	cells := routeCells()
	for name, f := range simCells() {
		cells[name] = f
	}

	if os.Getenv("UPDATE_EQUIV") != "" {
		got := map[string]string{}
		for name, f := range cells {
			got[name] = f(t)
		}
		writeEquiv(t, got)
		t.Logf("equivalence: wrote %d cell digests to %s", len(got), equivFile)
		return
	}

	want := readEquiv(t)
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no committed digest (run UPDATE_EQUIV=1 and review the diff)", name)
		}
	}
	for name := range want {
		if _, ok := cells[name]; !ok {
			t.Errorf("%s: committed digest has no matching cell (stale %s?)", name, equivFile)
		}
	}
	for _, name := range names {
		name := name
		f := cells[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := want[name]
			if !ok {
				t.Skip("no committed digest")
			}
			if got := f(t); got != w {
				t.Errorf("digest %s, want %s — behavior diverged from the pre-SPI chooser", got, w)
			}
		})
	}
}

func readEquiv(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(equivFile)
	if err != nil {
		t.Fatalf("read %s (generate with UPDATE_EQUIV=1): %v", equivFile, err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", equivFile, err)
	}
	return want
}

func writeEquiv(t *testing.T, digests map[string]string) {
	t.Helper()
	data, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(equivFile), 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := os.WriteFile(equivFile, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", equivFile, err)
	}
}
