package routing

// Route-table suite: the chooser's one table form (shared intra-group
// template or per-group fallback, lazily sharded gateway candidates,
// memoized path map) must reproduce the committed routes on every machine,
// build identically at any worker count, fall back correctly on machines
// whose groups are not isomorphic, and stay allocation-free once warm.

import (
	"fmt"
	"hash/fnv"
	"path"
	"testing"

	"dragonfly/internal/des"
	"dragonfly/internal/faults"
	"dragonfly/internal/par"
	"dragonfly/internal/topology"
	"dragonfly/internal/topotest"
)

// saltedCong is a deterministic non-trivial congestion oracle so the adaptive
// scoring actually discriminates between candidates.
type saltedCong struct{}

func (saltedCong) OutputBacklog(from, to topology.RouterID) int64 {
	return int64((uint64(from)*2654435761 + uint64(to)*40503) % 9001)
}

// routeAll drives ch over a fixed deterministic pair sample, returning the
// hop sequences (copied out of any shared/arena storage).
func routeAll(t *testing.T, topo topology.Interconnect, ch *Chooser, n int) [][]Hop {
	t.Helper()
	rng := des.NewRNG(77, "cmp-pairs")
	out := make([][]Hop, 0, n)
	for len(out) < n {
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		p, err := ch.TryRoute(s, d)
		if err != nil {
			out = append(out, []Hop{{From: -1}}) // mark unreachable pairs
			continue
		}
		out = append(out, append([]Hop(nil), p.Hops...))
		ch.Release(p)
	}
	return out
}

func sameHops(a, b [][]Hop) (int, bool) {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return i, false
			}
		}
	}
	return 0, true
}

// hopsDigest is an FNV-64a digest of a route sequence.
func hopsDigest(routes [][]Hop) string {
	h := fnv.New64a()
	for _, r := range routes {
		for _, x := range r {
			fmt.Fprintf(h, "%d %d %d %d,", x.From, x.To, x.Kind, x.VC)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedRoutes are the digests of routeAll's samples, recorded when the
// dense O(routers^2) tables and the compact ones both still existed and
// were proven route-for-route identical on every cell below. Keys are
// machine/mechanism/gateway policy (healthy) or machine/mechanism/faulted.
var pinnedRoutes = map[string]string{
	"theta/min/gw=0": "4b1f9ac1ee31c240", "theta/min/gw=1": "62d751b1698f63ff", "theta/min/gw=2": "b8dd891483770195",
	"theta/adp/gw=0": "26ebe3eb3b189e77", "theta/adp/gw=1": "7051a9192d681bf7", "theta/adp/gw=2": "0d339a1ae693bffa",
	"theta/min/faulted": "346bf0dd30a75405", "theta/adp/faulted": "765d145cc08a22b9",
	"mini/min/gw=0": "9279bca229ce0676", "mini/min/gw=1": "1f7dd2ffea0087c8", "mini/min/gw=2": "6c7f3fad776462e4",
	"mini/adp/gw=0": "338a85dc46a2dbc0", "mini/adp/gw=1": "1f7dd2ffea0087c8", "mini/adp/gw=2": "cd7fe824da43c801",
	"mini/min/faulted": "d5cbd3ea45f0bac8", "mini/adp/faulted": "005525165a47e9ea",
	"dfplus/min/gw=0": "bf8baaf0b9589ce3", "dfplus/min/gw=1": "bf8baaf0b9589ce3", "dfplus/min/gw=2": "bf8baaf0b9589ce3",
	"dfplus/adp/gw=0": "ddeba1cd4924865b", "dfplus/adp/gw=1": "ddeba1cd4924865b", "dfplus/adp/gw=2": "ddeba1cd4924865b",
	"dfplus/min/faulted": "05bd2b0629ed4203", "dfplus/adp/faulted": "d727f89ed969d0c9",
	"dfplus-mini/min/gw=0": "cc0c84c947d6d860", "dfplus-mini/min/gw=1": "cc0c84c947d6d860", "dfplus-mini/min/gw=2": "cc0c84c947d6d860",
	"dfplus-mini/adp/gw=0": "788f35272f83ee48", "dfplus-mini/adp/gw=1": "788f35272f83ee48", "dfplus-mini/adp/gw=2": "788f35272f83ee48",
	"dfplus-mini/min/faulted": "992a8c746c8d27d0", "dfplus-mini/adp/faulted": "36af25fac9e60d4c",
}

// routeCheck compares a route sample with its pinned digest.
func routeCheck(t *testing.T, key string, got [][]Hop) {
	t.Helper()
	if d := hopsDigest(got); d != pinnedRoutes[key] {
		t.Errorf("%s: route digest %s, pinned %s", key, d, pinnedRoutes[key])
	}
}

// TestCompactRoutesIdenticalToDense: on every machine, mechanism, and gateway
// policy, the chooser must emit exactly the routes the dense tables emitted,
// as pinned. The samples interleave cached and rebuilt pairs, so any change
// in which pairs the path memo serves (and hence in RNG stream consumption)
// desynchronizes every later route and fails loudly here.
func TestCompactRoutesIdenticalToDense(t *testing.T) {
	topotest.Each(t, func(t *testing.T, _ topology.Machine, topo topology.Interconnect) {
		name := path.Base(t.Name())
		for _, mech := range []Mechanism{Minimal, Adaptive} {
			for _, gw := range []GatewayPolicy{GatewaySpread, GatewayNearest, GatewayRandom} {
				ch := NewChooserOpts(topo, mech, des.NewRNG(11, "eq"), saltedCong{}, Options{Gateway: gw})
				routeCheck(t, fmt.Sprintf("%s/%v/gw=%d", name, mech, gw), routeAll(t, topo, ch, 400))
			}
		}
	})
}

// TestCompactFaultRoutesIdenticalToDense repeats the check with a quarter of
// the global links and a few locals dead, exercising the health-aware
// gateway and detour paths.
func TestCompactFaultRoutesIdenticalToDense(t *testing.T) {
	topotest.Each(t, func(t *testing.T, _ topology.Machine, topo topology.Interconnect) {
		set, err := faults.Resolve(&faults.Spec{GlobalFrac: 0.25, LocalFrac: 0.05, Seed: 7}, topo)
		if err != nil {
			t.Fatal(err)
		}
		name := path.Base(t.Name())
		for _, mech := range []Mechanism{Minimal, Adaptive} {
			ch := NewChooserOpts(topo, mech, des.NewRNG(13, "feq"), saltedCong{}, Options{Health: set})
			routeCheck(t, fmt.Sprintf("%s/%v/faulted", name, mech), routeAll(t, topo, ch, 300))
		}
	})
}

// TestCompactWorkerCountInvariance: chooser construction is sharded across
// the par pool; the routes it produces must not depend on the worker count.
func TestCompactWorkerCountInvariance(t *testing.T) {
	topo := topotest.Mini(t)
	build := func(w int) [][]Hop {
		prev := par.SetWorkers(w)
		defer par.SetWorkers(prev)
		ch := NewChooserOpts(topo, Adaptive, des.NewRNG(3, "wrk"), saltedCong{}, Options{})
		return routeAll(t, topo, ch, 300)
	}
	want := build(1)
	for _, w := range []int{2, 3, 8} {
		if i, ok := sameHops(want, build(w)); !ok {
			t.Fatalf("workers=%d: route %d differs from single-worker build", w, i)
		}
	}
}

// TestCompactFallsBackOnNonIsomorphicGroups: a machine whose groups deviate
// gets per-group next-hop tables, and its routes must validate against the
// machine's own LocalNextHop.
func TestCompactFallsBackOnNonIsomorphicGroups(t *testing.T) {
	topo := topotest.NonIsomorphic{Dragonfly: topotest.Mini(t)}
	ch := NewChooserOpts(topo, Minimal, des.NewRNG(5, "ni"), nil, Options{})
	if ch.nextStride == 0 {
		t.Fatal("non-isomorphic machine still got the shared template")
	}
	for i := 0; i < 400; i++ {
		rng := des.NewRNG(int64(i), "ni-pair")
		s := topology.NodeID(rng.Intn(topo.NumNodes()))
		d := topology.NodeID(rng.Intn(topo.NumNodes()))
		p := ch.Route(s, d)
		rs, rd := topo.RouterOfNode(s), topo.RouterOfNode(d)
		if err := Validate(topo, rs, rd, p); err != nil {
			t.Fatalf("fallback route %d->%d: %v", s, d, err)
		}
		ch.Release(p)
	}
}

// TestCompactMemoSteadyStateAllocFree: once the pair working set has been
// touched, further routes through the memoized tables must not allocate — the
// map-read guarantee the 0 allocs/op gate relies on.
func TestCompactMemoSteadyStateAllocFree(t *testing.T) {
	topo := topotest.Mini(t)
	ch := NewChooserOpts(topo, Minimal, des.NewRNG(21, "al"), nil, Options{})
	rng := des.NewRNG(22, "al-pairs")
	const pairs = 512
	srcs := make([]topology.NodeID, pairs)
	dsts := make([]topology.NodeID, pairs)
	for i := range srcs {
		srcs[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
		dsts[i] = topology.NodeID(rng.Intn(topo.NumNodes()))
	}
	warm := func() {
		for i := range srcs {
			ch.Release(ch.Route(srcs[i], dsts[i]))
		}
	}
	warm()
	if avg := testing.AllocsPerRun(20, warm); avg > 0 {
		t.Fatalf("steady-state routing allocates %.1f per sweep, want 0", avg)
	}
}
