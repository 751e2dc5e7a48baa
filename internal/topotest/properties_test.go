package topotest_test

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
	"dragonfly/internal/trace"
)

// saltCong is a deterministic pseudo-random congestion oracle: it gives the
// adaptive policy non-trivial, reproducible backlog readings so the property
// tests exercise the Valiant and misroute branches on every machine, not
// just minimal paths.
type saltCong struct{ salt int64 }

func (c saltCong) OutputBacklog(from, to topology.RouterID) int64 {
	h := uint64(c.salt)*0x9e3779b97f4a7c15 + uint64(from)*0xbf58476d1ce4e5b9 + uint64(to)*0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	return int64(h % (1 << 20))
}

// TestRouteValidEveryMachine: on every registered machine, both mechanisms
// route randomly sampled node pairs over physical links with contiguous
// hops, monotone VC classes (the deadlock-freedom witness), bounded length,
// and within the 2-global-hop VC budget. This is the SPI's core routing
// contract: any new Interconnect must pass unchanged.
func TestRouteValidEveryMachine(t *testing.T) {
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			mech := mech
			t.Run(mech.String(), func(t *testing.T) {
				rng := des.NewRNG(7, "topotest").Stream("route")
				ch := routing.NewChooser(ic, mech, rng.Stream("chooser"), saltCong{salt: 11})
				n := ic.NumNodes()
				for i := 0; i < 400; i++ {
					src := topology.NodeID(rng.Intn(n))
					dst := topology.NodeID(rng.Intn(n))
					if src == dst {
						dst = topology.NodeID((int(dst) + 1) % n)
					}
					p := ch.Route(src, dst)
					rs, rd := ic.RouterOfNode(src), ic.RouterOfNode(dst)
					if err := routing.Validate(ic, rs, rd, p); err != nil {
						t.Fatalf("%s %v %d->%d: invalid route: %v\npath: %+v",
							ic.Name(), mech, src, dst, err, p.Hops)
					}
					// Worst case is Valiant through a third group; anything
					// longer means the builder wandered.
					if len(p.Hops) > 10 {
						t.Fatalf("route %d->%d has %d hops: %+v", src, dst, len(p.Hops), p.Hops)
					}
					if g := p.GlobalHops(); g > routing.NumGlobalVC {
						t.Fatalf("route %d->%d crosses %d global links (VC classes allow %d)",
							src, dst, g, routing.NumGlobalVC)
					}
				}
			})
		}
	})
}

// TestPlacementPartitionsEveryMachine: each of the five policies yields
// distinct in-range nodes on every machine, with Remaining the exact
// complement — the contract the background-traffic carve-out relies on.
func TestPlacementPartitionsEveryMachine(t *testing.T) {
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		rng := des.NewRNG(3, "topotest").Stream("placement")
		size := ic.NumNodes() / 3
		if size < 1 {
			size = 1
		}
		for _, pol := range placement.All() {
			nodes, err := placement.Allocate(ic, pol, size, rng)
			if err != nil {
				t.Fatalf("%s: Allocate(%v, %d): %v", ic.Name(), pol, size, err)
			}
			if len(nodes) != size {
				t.Fatalf("%s: Allocate(%v, %d) returned %d nodes", ic.Name(), pol, size, len(nodes))
			}
			seen := make(map[topology.NodeID]bool, size)
			for _, nd := range nodes {
				if int(nd) < 0 || int(nd) >= ic.NumNodes() {
					t.Fatalf("%s: %v allocated out-of-range node %d", ic.Name(), pol, nd)
				}
				if seen[nd] {
					t.Fatalf("%s: %v allocated node %d twice", ic.Name(), pol, nd)
				}
				seen[nd] = true
			}
			rest := placement.Remaining(ic, nodes)
			if len(rest)+len(nodes) != ic.NumNodes() {
				t.Fatalf("%s: %v: %d allocated + %d remaining != %d nodes",
					ic.Name(), pol, len(nodes), len(rest), ic.NumNodes())
			}
			for _, nd := range rest {
				if seen[nd] {
					t.Fatalf("%s: %v: node %d both allocated and remaining", ic.Name(), pol, nd)
				}
			}
		}
	})
}

// TestAuditCleanEveryMachine replays a small crystal-router job on every
// registered machine under both mechanisms with the runtime invariant
// auditor attached: credit conservation, byte/packet conservation, VC-class
// monotonicity, time monotonicity, and per-NIC FIFO injection must hold on
// every event, and the run must complete. core.Run fails on any violation.
func TestAuditCleanEveryMachine(t *testing.T) {
	tr, err := trace.CR(trace.CRConfig{Ranks: 16, MessageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	topotest.Each(t, func(t *testing.T, m topology.Machine, ic topology.Interconnect) {
		for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
			res, err := core.Run(core.Config{
				Topology:  m,
				Params:    network.DefaultParams(),
				Placement: placement.RandomNode,
				Routing:   mech,
				Trace:     tr,
				Seed:      5,
				Audit:     true,
			})
			if err != nil {
				t.Fatalf("%s %v: %v", m.Label(), mech, err)
			}
			if !res.Completed {
				t.Fatalf("%s %v: run did not complete", m.Label(), mech)
			}
			if res.Audit == nil || len(res.Audit.Violations) != 0 {
				t.Fatalf("%s %v: audit summary missing or dirty: %+v", m.Label(), mech, res.Audit)
			}
		}
	})
}

// TestNonIsomorphicMachineAuditedBurst runs a crystal-router burst on a
// machine whose groups are not isomorphic, so the chooser and the fabric
// both take their per-group tables, under the invariant auditor and the
// stall watchdog, healthy and with faulted global links. Every run must
// complete with a clean audit.
func TestNonIsomorphicMachineAuditedBurst(t *testing.T) {
	tr, err := trace.CR(trace.CRConfig{Ranks: 32, MessageBytes: 16 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		for _, fs := range []*faults.Spec{nil, {GlobalFrac: 0.15, LocalFrac: 0.05, Seed: 3}} {
			res, err := core.Run(core.Config{
				Topology:       topotest.NonIsomorphicMini{},
				Params:         network.DefaultParams(),
				Placement:      placement.RandomNode,
				Routing:        mech,
				Trace:          tr,
				Seed:           9,
				Faults:         fs,
				Audit:          true,
				WatchdogEvents: 1_000_000,
			})
			if err != nil {
				t.Fatalf("%v faults=%v: %v", mech, fs, err)
			}
			if !res.Completed {
				t.Fatalf("%v faults=%v: run did not complete", mech, fs)
			}
			if res.Audit == nil || len(res.Audit.Violations) != 0 {
				t.Fatalf("%v faults=%v: audit summary missing or dirty: %+v", mech, fs, res.Audit)
			}
		}
	}
}
