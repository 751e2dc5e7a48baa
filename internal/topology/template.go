package topology

import (
	"fmt"

	"dragonfly/internal/par"
)

// Group-isomorphism templates. Every dragonfly variant this repository ships
// wires all groups identically up to the global-port assignment: the local
// next-hop function and the local neighbor lists of group g are those of
// group 0 shifted by g*RoutersPerGroup. Consumers that resolve intra-group
// tables (the routing chooser's next-hop walk, the fabric's router-pair link
// index) can therefore keep one rpg x rpg template instead of G of them — the
// "shared intra-group template" half of the table compression (see DESIGN.md
// "Memory discipline & table compression").
//
// Isomorphism is verified, not assumed: NewLocalTemplate compares every
// group against the group-0 template (sharded across the par worker pool)
// and reports !ok on the first deviation, in which case consumers keep one
// rpg x rpg table per group. A future interconnect with heterogeneous groups
// is therefore still correct — it just pays O(routers x rpg) memory.

// LocalTemplate is the group-0 intra-group structure of a group-isomorphic
// machine, expressed in local router indices (0..RPG-1).
type LocalTemplate struct {
	// RPG is the per-group router count.
	RPG int
	// Next[i*RPG+j] is the local index of the router after i on the
	// canonical minimal route i -> j (LocalNextHop shifted to group 0);
	// Next[i*RPG+i] == i.
	Next []int32
	// NeighborOff/NeighborFlat encode the local neighbor lists:
	// NeighborFlat[NeighborOff[i]:NeighborOff[i+1]] are the local indices
	// joined to i by local links, in LocalNeighbors order.
	NeighborOff  []int32
	NeighborFlat []int32
}

// Neighbors returns the local neighbor indices of local router i.
func (t *LocalTemplate) Neighbors(i int) []int32 {
	return t.NeighborFlat[t.NeighborOff[i]:t.NeighborOff[i+1]]
}

// NewLocalTemplate extracts the group-0 template of ic and verifies that
// every other group is isomorphic to it (identical next-hop function and
// neighbor lists, shifted by the group base). Verification is sharded by
// group across the par worker pool; its cost is O(routers x routersPerGroup),
// linear in machine size for a fixed group shape. ok is false when any group
// deviates — consumers must then fall back to per-group tables.
func NewLocalTemplate(ic Interconnect) (tmpl *LocalTemplate, ok bool) {
	groups := ic.NumGroups()
	if groups == 0 || ic.NumRouters()%groups != 0 {
		return nil, false
	}
	rpg := ic.NumRouters() / groups
	t := &LocalTemplate{
		RPG:         rpg,
		Next:        make([]int32, rpg*rpg),
		NeighborOff: make([]int32, rpg+1),
	}
	for i := 0; i < rpg; i++ {
		for j := 0; j < rpg; j++ {
			t.Next[i*rpg+j] = int32(ic.LocalNextHop(RouterID(i), RouterID(j)))
			if t.Next[i*rpg+j] < 0 || t.Next[i*rpg+j] >= int32(rpg) {
				return nil, false // next hop escapes the group: no template
			}
		}
		nbrs := ic.LocalNeighbors(RouterID(i))
		t.NeighborOff[i+1] = t.NeighborOff[i] + int32(len(nbrs))
		for _, v := range nbrs {
			if int(v) >= rpg {
				return nil, false
			}
			t.NeighborFlat = append(t.NeighborFlat, int32(v))
		}
	}

	// Verify groups 1..G-1 against the template in parallel; uniform flags
	// are per-group slots, so the writes are disjoint and the outcome is
	// worker-count independent.
	uniform := make([]bool, groups)
	uniform[0] = true
	par.ForChunks(groups-1, func(lo, hi int) {
		for g := lo + 1; g < hi+1; g++ {
			uniform[g] = groupMatchesTemplate(ic, t, g)
		}
	})
	for _, u := range uniform {
		if !u {
			return nil, false
		}
	}
	return t, true
}

// groupMatchesTemplate reports whether group g's local structure equals the
// group-0 template shifted by its base router.
func groupMatchesTemplate(ic Interconnect, t *LocalTemplate, g int) bool {
	rpg := t.RPG
	base := g * rpg
	for i := 0; i < rpg; i++ {
		for j := 0; j < rpg; j++ {
			want := RouterID(base) + RouterID(t.Next[i*rpg+j])
			if ic.LocalNextHop(RouterID(base+i), RouterID(base+j)) != want {
				return false
			}
		}
		nbrs := ic.LocalNeighbors(RouterID(base + i))
		tn := t.Neighbors(i)
		if len(nbrs) != len(tn) {
			return false
		}
		for k, v := range nbrs {
			if int(v) != base+int(tn[k]) {
				return false
			}
		}
	}
	return true
}

// --- synthetic big-machine shapes ------------------------------------------

// ScaleConfig synthesizes a buildable machine of the given family with at
// least the requested router count, for the scale benchmarks and the
// scale-smoke validation (the -routers / -scale-shape flags). The group shape
// is fixed per family — XC40 keeps Theta's 6x16 grid, Dragonfly+ a 24-leaf /
// 12-spine group — and the group count grows; global ports per router scale
// so the canonical round-robin wiring still reaches every group pair
// (Gateways(a,b) non-empty, the SPI contract). One node per leaf keeps the
// node-side arrays proportional to routers, not a multiple of them.
func ScaleConfig(family string, routers int) (Machine, error) {
	if routers < 1 {
		return nil, fmt.Errorf("topology: scale shape needs routers >= 1, got %d", routers)
	}
	switch family {
	case "df", "dragonfly":
		const rows, cols = 6, 16
		rpg := rows * cols
		groups := (routers + rpg - 1) / rpg
		if groups < 2 {
			groups = 2
		}
		// Port budget: routers*G ports per group must cover the G-1 peer
		// groups. Theta's 10 ports/router reach 961 groups (92k routers);
		// beyond that the ports grow with the machine.
		ports := 10
		if need := (groups - 1 + rpg - 1) / rpg; ports < need {
			ports = need
		}
		return Config{
			Groups:               groups,
			Rows:                 rows,
			Cols:                 cols,
			NodesPerRouter:       1,
			GlobalPortsPerRouter: ports,
			ChassisPerCabinet:    3,
		}, nil
	case "dfplus", "dragonfly+":
		const leaves, spines = 24, 12
		rpg := leaves + spines
		groups := (routers + rpg - 1) / rpg
		if groups < 2 {
			groups = 2
		}
		ports := 2
		if need := (groups - 1 + spines - 1) / spines; ports < need {
			ports = need
		}
		return PlusConfig{
			Groups:              groups,
			Leaves:              leaves,
			Spines:              spines,
			NodesPerLeaf:        1,
			GlobalPortsPerSpine: ports,
			LeavesPerChassis:    4,
			ChassisPerCabinet:   3,
		}, nil
	}
	return nil, fmt.Errorf("topology: unknown scale family %q (want df or dfplus)", family)
}
