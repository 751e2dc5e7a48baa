// Package topotest provides the shared machine constructors the simulator's
// test suites build on, replacing the per-package theta()/MustNew(Mini())
// boilerplate, plus Each — an iterator over every registered machine preset
// for cross-topology property tests. It imports only package topology, so
// every layer's tests (routing, placement, network, ...) can use it without
// import cycles.
package topotest

import (
	"testing"

	"dragonfly/internal/topology"
)

// Theta returns the paper's wired XC40 machine (9 groups x 6x16 x 4 nodes).
func Theta(tb testing.TB) *topology.Dragonfly {
	tb.Helper()
	return topology.MustNew(topology.Theta())
}

// Mini returns the small wired XC40 machine used by fast tests.
func Mini(tb testing.TB) *topology.Dragonfly {
	tb.Helper()
	return topology.MustNew(topology.Mini())
}

// Plus returns the wired 1296-node Dragonfly+ machine.
func Plus(tb testing.TB) *topology.DragonflyPlus {
	tb.Helper()
	return mustPlus(tb, topology.Plus())
}

// PlusMini returns the small wired Dragonfly+ machine used by fast tests.
func PlusMini(tb testing.TB) *topology.DragonflyPlus {
	tb.Helper()
	return mustPlus(tb, topology.PlusMini())
}

func mustPlus(tb testing.TB, cfg topology.PlusConfig) *topology.DragonflyPlus {
	tb.Helper()
	t, err := topology.NewPlus(cfg)
	if err != nil {
		tb.Fatalf("topotest: %v", err)
	}
	return t
}

// Each runs f as a subtest per registered machine preset (theta, mini,
// dfplus, dfplus-mini), building the machine fresh for each. Properties
// asserted under Each hold for every interconnect the simulator ships.
func Each(t *testing.T, f func(t *testing.T, m topology.Machine, ic topology.Interconnect)) {
	for _, name := range topology.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatalf("topotest: %v", err)
			}
			ic, err := m.Build()
			if err != nil {
				t.Fatalf("topotest: build %s: %v", name, err)
			}
			f(t, m, ic)
		})
	}
}

// EachSmall is Each restricted to the mini machines — for per-node-pair
// sweeps and full simulation runs that would be slow at full scale.
func EachSmall(t *testing.T, f func(t *testing.T, m topology.Machine, ic topology.Interconnect)) {
	for _, name := range []string{"mini", "dfplus-mini"} {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := topology.Preset(name)
			if err != nil {
				t.Fatalf("topotest: %v", err)
			}
			ic, err := m.Build()
			if err != nil {
				t.Fatalf("topotest: build %s: %v", name, err)
			}
			f(t, m, ic)
		})
	}
}

// NonIsomorphic wraps a Dragonfly and breaks group isomorphism in group 1:
// its canonical local route takes the column hop before the row hop, and
// its routers list their local neighbors in reverse order. No shipped
// machine deviates like this, so it is the only way to drive the routing
// and fabric tables down their per-group path (topology.NewLocalTemplate
// refuses it). Both deviations are still valid dragonfly wiring.
type NonIsomorphic struct{ *topology.Dragonfly }

func (m NonIsomorphic) LocalNextHop(cur, dst topology.RouterID) topology.RouterID {
	if m.GroupOfRouter(cur) == 1 && cur != dst {
		cc, cd := m.RouterCoord(cur), m.RouterCoord(dst)
		if cc.Row != cd.Row {
			return m.RouterAt(cc.Group, cd.Row, cc.Col)
		}
		return dst
	}
	return m.Dragonfly.LocalNextHop(cur, dst)
}

func (m NonIsomorphic) LocalNeighbors(r topology.RouterID) []topology.RouterID {
	nbrs := m.Dragonfly.LocalNeighbors(r)
	if m.GroupOfRouter(r) != 1 {
		return nbrs
	}
	rev := make([]topology.RouterID, len(nbrs))
	for i, v := range nbrs {
		rev[len(nbrs)-1-i] = v
	}
	return rev
}

// NonIsomorphicMini is the topology.Machine that builds NonIsomorphic over
// the mini machine, for full simulations through core.Run.
type NonIsomorphicMini struct{}

func (NonIsomorphicMini) Build() (topology.Interconnect, error) {
	d, err := topology.New(topology.Mini())
	if err != nil {
		return nil, err
	}
	return NonIsomorphic{d}, nil
}

func (NonIsomorphicMini) Label() string { return "nonisomorphic-" + topology.Mini().Label() }
