package dragonfly_test

import (
	"fmt"

	"dragonfly"
)

// ExampleRun simulates the crystal router on the small machine under
// random-node placement with minimal routing and reports completion.
func ExampleRun() {
	tr, err := dragonfly.CRTrace(dragonfly.CRConfig{Ranks: 32, MessageBytes: 16 * 1024})
	if err != nil {
		panic(err)
	}
	cfg := dragonfly.MiniConfig(tr, dragonfly.Cell{
		Placement: dragonfly.RandomNode,
		Routing:   dragonfly.Minimal,
	}, 1)
	res, err := dragonfly.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("completed:", res.Completed)
	fmt.Println("ranks measured:", len(res.CommTimes))
	// Output:
	// completed: true
	// ranks measured: 32
}

// ExampleRun_coRun co-runs two applications sharing the machine: the
// config's own job (AMG) plus one further job listed in CoRun.
func ExampleRun_coRun() {
	amg, _ := dragonfly.AMGTrace(dragonfly.AMGConfig{
		X: 3, Y: 3, Z: 3, Cycles: 1, Levels: 2, PeakBytes: 8 * 1024,
	})
	cr, _ := dragonfly.CRTrace(dragonfly.CRConfig{Ranks: 16, MessageBytes: 16 * 1024})
	cfg := dragonfly.MiniConfig(amg, dragonfly.Cell{
		Placement: dragonfly.Contiguous,
		Routing:   dragonfly.Adaptive,
	}, 1)
	cfg.CoRun = []dragonfly.JobSpec{
		{Name: "CR", Trace: cr, Placement: dragonfly.RandomNode},
	}
	res, err := dragonfly.Run(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("all jobs completed:", res.Completed)
	fmt.Println("co-run jobs:", len(res.CoRun))
	// Output:
	// all jobs completed: true
	// co-run jobs: 1
}

// ExampleCell_Name shows the paper's Table I naming scheme.
func ExampleCell_Name() {
	cell := dragonfly.Cell{Placement: dragonfly.RandomChassis, Routing: dragonfly.Adaptive}
	fmt.Println(cell.Name())
	// Output: chas-adp
}

// ExampleNewTopology prints the paper's machine inventory (Figure 1).
func ExampleNewTopology() {
	topo, err := dragonfly.NewTopology(dragonfly.Theta())
	if err != nil {
		panic(err)
	}
	fmt.Println(topo.NumGroups(), "groups,", topo.NumRouters(), "routers,", topo.NumNodes(), "nodes")
	// Output: 9 groups, 864 routers, 3456 nodes
}
