package network

// Link-index suite: the fabric's router-pair lookup must return exactly the
// links the wiring creates, in creation order, on isomorphic machines (one
// shared slot table) and on a machine whose groups deviate (per-group slot
// tables); and fixed traffic loads must reproduce their pinned outcomes.

import (
	"fmt"
	"hash/fnv"
	"path"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/routing"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// runTraffic drives a fixed random load through a fresh fabric and returns
// its observable outcome: every link's stats plus the engine's event count
// and final clock.
func runTraffic(t *testing.T, topo topology.Interconnect, p Params) ([]LinkStat, uint64, des.Time) {
	t.Helper()
	eng := des.New()
	f, err := New(eng, topo, p, routing.Adaptive, des.NewRNG(1, "eq"))
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(2, "eq-load")
	for m := 0; m < 400; m++ {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		f.Send(src, dst, int64(rng.IntnRange(1, 64<<10)), nil, nil)
	}
	eng.Run()
	f.FinishStats()
	return f.LinkStats(), eng.Processed(), eng.Now()
}

// trafficDigest is an FNV-64a digest of runTraffic's outcome.
func trafficDigest(stats []LinkStat, events uint64, clock des.Time) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %v\n", events, clock)
	for _, s := range stats {
		fmt.Fprintf(h, "%d %d %d %d %t %d %d %d\n", s.Kind, s.From, s.To, s.Node, s.Eject, s.Bytes, s.Packets, s.SatTime)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedTraffic are runTraffic's digests on each mini machine, healthy and
// with a quarter of the global links (and a few locals) dead, recorded when
// the dense O(routers^2) link index and the compact one both still existed
// and were proven link-for-link identical on these loads.
var pinnedTraffic = map[string]string{
	"mini/healthy":        "66b0df29d9137065",
	"mini/faulted":        "16af5ead9ed7af1f",
	"dfplus-mini/healthy": "34693586b98908ad",
	"dfplus-mini/faulted": "3c08bd715f6c6730",
}

// trafficCheck runs the fixed load under p and compares its digest with the
// pinned one for this machine and health state.
func trafficCheck(t *testing.T, topo topology.Interconnect, p Params, health string) {
	t.Helper()
	key := path.Base(t.Name()) + "/" + health
	if got := trafficDigest(runTraffic(t, topo, p)); got != pinnedTraffic[key] {
		t.Errorf("%s: traffic digest %s, pinned %s", key, got, pinnedTraffic[key])
	}
}

// TestCompactIndexIdenticalSimulation: the fixed load on each mini machine
// must reproduce, link for link and event for event, the outcome the dense
// link index produced, as pinned.
func TestCompactIndexIdenticalSimulation(t *testing.T) {
	topotest.EachSmall(t, func(t *testing.T, _ topology.Machine, topo topology.Interconnect) {
		trafficCheck(t, topo, DefaultParams(), "healthy")
	})
}

// TestCompactIndexIdenticalSimulationFaulted repeats the check with a quarter
// of the global links and a few locals dead, exercising RefreshHealth and the
// drop paths.
func TestCompactIndexIdenticalSimulationFaulted(t *testing.T) {
	topotest.EachSmall(t, func(t *testing.T, _ topology.Machine, topo topology.Interconnect) {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.05, Seed: 7}, topo)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.Route.Health = set
		trafficCheck(t, topo, p, "faulted")
	})
}

// wiredPairs lists, per ordered router pair, the IDs of the links the fabric
// must create for it: terminal links come first (two per node), then each
// router's LocalNeighbors in router order, then both directions of each
// GlobalConn in order.
func wiredPairs(topo topology.Interconnect) map[[2]topology.RouterID][]int {
	want := map[[2]topology.RouterID][]int{}
	id := 2 * topo.NumNodes()
	add := func(a, b topology.RouterID) {
		want[[2]topology.RouterID{a, b}] = append(want[[2]topology.RouterID{a, b}], id)
		id++
	}
	for r := 0; r < topo.NumRouters(); r++ {
		for _, to := range topo.LocalNeighbors(topology.RouterID(r)) {
			add(topology.RouterID(r), to)
		}
	}
	for _, c := range topo.GlobalConns() {
		add(c.A, c.B)
		add(c.B, c.A)
	}
	return want
}

// TestPairLinksMatchWiring checks the raw lookup on every router pair: the
// links pairLinks returns are exactly the ones the wiring created for the
// pair, in creation order (pickLink's tie break depends on the order), and
// non-adjacent pairs get none. The non-isomorphic machine exercises the
// per-group slot tables.
func TestPairLinksMatchWiring(t *testing.T) {
	check := func(t *testing.T, topo topology.Interconnect, wantShared bool) {
		f, err := New(des.New(), topo, DefaultParams(), routing.Minimal, des.NewRNG(1, "pl"))
		if err != nil {
			t.Fatal(err)
		}
		if shared := f.slotStride == 0; shared != wantShared {
			t.Fatalf("shared slot table = %t, want %t", shared, wantShared)
		}
		want := wiredPairs(topo)
		nR := topo.NumRouters()
		for a := 0; a < nR; a++ {
			for b := 0; b < nR; b++ {
				got := f.pairLinks(topology.RouterID(a), topology.RouterID(b))
				w := want[[2]topology.RouterID{topology.RouterID(a), topology.RouterID(b)}]
				if len(got) != len(w) {
					t.Fatalf("pair %d->%d: %d links, want %d", a, b, len(got), len(w))
				}
				for i, l := range got {
					if l.id != w[i] || int(l.from) != a || int(l.to) != b {
						t.Fatalf("pair %d->%d slot %d: link %d (%d->%d), want link %d",
							a, b, i, l.id, l.from, l.to, w[i])
					}
				}
			}
		}
	}
	topotest.EachSmall(t, func(t *testing.T, _ topology.Machine, topo topology.Interconnect) {
		check(t, topo, true)
	})
	t.Run("nonisomorphic", func(t *testing.T) {
		check(t, topotest.NonIsomorphic{Dragonfly: topotest.Mini(t)}, false)
	})
}
