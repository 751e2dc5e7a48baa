// Co-run: two real applications sharing the machine — the "bully" scenario
// of the authors' prior work that motivates this paper's interference study.
// A light, bursty AMG solver co-runs with a heavy crystal router; the AMG
// job's slowdown depends strongly on how both jobs are placed.
package main

import (
	"fmt"
	"log"

	"dragonfly"
)

func main() {
	amg, err := dragonfly.AMGTrace(dragonfly.AMGConfig{
		X: 3, Y: 3, Z: 3, Cycles: 3, Levels: 4, PeakBytes: 10 * 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	cr, err := dragonfly.CRTrace(dragonfly.CRConfig{Ranks: 32, MessageBytes: 256 * 1024})
	if err != nil {
		log.Fatal(err)
	}

	// The AMG victim is each config's own job; the CR bully joins it as a
	// co-run job placed from the nodes AMG left free.
	cell := func(p dragonfly.PlacementPolicy) dragonfly.Config {
		return dragonfly.Config{
			Topology:  dragonfly.MiniTopology(),
			Params:    dragonfly.DefaultParams(),
			Placement: p,
			Routing:   dragonfly.Adaptive,
			Trace:     amg,
			Seed:      7,
		}
	}

	ref, err := dragonfly.Run(cell(dragonfly.Contiguous))
	if err != nil {
		log.Fatal(err)
	}
	baseline := ref.MaxCommTime()
	fmt.Printf("AMG alone: %v\n\n", baseline)

	fmt.Printf("%-32s  %-12s  %s\n", "co-run placement (AMG / CR)", "AMG time", "slowdown")
	for _, pair := range []struct {
		amg, cr dragonfly.PlacementPolicy
	}{
		{dragonfly.Contiguous, dragonfly.Contiguous},
		{dragonfly.Contiguous, dragonfly.RandomNode},
		{dragonfly.RandomNode, dragonfly.RandomNode},
	} {
		cfg := cell(pair.amg)
		cfg.CoRun = []dragonfly.JobSpec{{Name: "CR", Trace: cr, Placement: pair.cr}}
		res, err := dragonfly.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if !res.Completed {
			log.Fatal("co-run did not complete")
		}
		amgTime := res.MaxCommTime()
		fmt.Printf("%-32s  %-12v  %.2fx\n",
			fmt.Sprintf("%v / %v", pair.amg, pair.cr),
			amgTime, float64(amgTime)/float64(baseline))
	}
	fmt.Println()
	fmt.Println("scattering both jobs interleaves their traffic on shared links; keeping")
	fmt.Println("the sensitive job contiguous isolates it from the bully (paper Sec. IV-C).")
}
