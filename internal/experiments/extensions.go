package experiments

import (
	"fmt"

	"dragonfly/internal/core"
	"dragonfly/internal/mapping"
	"dragonfly/internal/network"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/trace"
)

// Extension experiments beyond the paper's figures: the task-mapping study
// its future-work section names (xmap), and a real-trace co-run
// interference study in the spirit of the authors' prior "bully" work
// (xmulti).

// ExtensionIDs lists the extension experiments.
func ExtensionIDs() []string { return []string{"xmap", "xmulti", "figr", "figq", "figa", "figf"} }

// XMap studies task mapping (the paper's stated future work): AMG — the
// neighbor-heavy application — on a random-router allocation under every
// mapping policy. Locality-restoring mappings should recover part of the
// contiguous placement's advantage.
func (r *Runner) XMap() (*Report, error) {
	rep := &Report{
		ID:    "xmap",
		Title: "Task mapping study (extension; paper Sec. VI future work)",
		Notes: []string{"AMG on a random-router allocation, adaptive routing"},
	}
	t := Table{
		Title:   "AMG communication time and locality by task mapping",
		Columns: []string{"mapping", "median_ms", "max_ms", "mean_hops"},
	}
	tr, err := r.AppTrace("AMG")
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, pol := range mapping.All() {
		cfgs = append(cfgs, core.Config{
			Topology:       r.Machine(),
			Params:         network.DefaultParams(),
			Placement:      placement.RandomRouter,
			Routing:        routing.Adaptive,
			Mapping:        pol,
			Trace:          tr,
			Seed:           r.opts.Seed,
			Faults:         r.opts.Faults,
			WatchdogEvents: defaultWatchdogEvents,
		})
	}
	results, err := r.runBatch(cfgs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		pol := mapping.All()[i]
		if !res.Completed {
			return nil, fmt.Errorf("experiments: xmap %v did not complete", pol)
		}
		r.progressf("ran AMG mapping=%-13s simtime=%v events=%d", pol, res.Duration, res.Events)
		box := stats.BoxOf(res.CommTimesMs())
		t.Rows = append(t.Rows, []string{
			pol.String(), fmtF(box.Median), fmtF(box.Max), fmtF(stats.Mean(res.AvgHops)),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return r.finish(rep)
}

// XMulti studies inter-job interference with real traces: a light AMG
// victim co-running with a heavy CR bully under different placement
// pairings, compared with AMG running alone.
func (r *Runner) XMulti() (*Report, error) {
	rep := &Report{
		ID:    "xmulti",
		Title: "Multijob co-run interference (extension; cf. the authors' prior bully study)",
	}
	amg, err := r.AppTrace("AMG")
	if err != nil {
		return nil, err
	}
	cr, err := r.xmultiBully()
	if err != nil {
		return nil, err
	}

	// runCo runs AMG under the victim placement, with the CR bully as a
	// co-run job when one is given.
	runCo := func(victim placement.Policy, coRun []core.JobSpec) (*core.Result, error) {
		res, err := core.Run(core.Config{
			Topology:  r.Machine(),
			Params:    network.DefaultParams(),
			Placement: victim,
			Routing:   routing.Adaptive,
			Trace:     amg,
			Seed:      r.opts.Seed,
			CoRun:     coRun,
		})
		if err != nil {
			return nil, err
		}
		if !res.Completed {
			return nil, fmt.Errorf("experiments: xmulti co-run did not complete")
		}
		return res, nil
	}

	alone, err := runCo(placement.Contiguous, nil)
	if err != nil {
		return nil, err
	}
	baseline := alone.MaxCommTime()
	r.progressf("ran AMG alone: %v", baseline)

	t := Table{
		Title:   fmt.Sprintf("AMG slowdown co-running with CR (AMG alone: %.4g ms)", baseline.Milliseconds()),
		Columns: []string{"amg_placement", "cr_placement", "amg_max_ms", "slowdown", "cr_max_ms"},
	}
	for _, pair := range []struct{ victim, bully placement.Policy }{
		{placement.Contiguous, placement.Contiguous},
		{placement.Contiguous, placement.RandomNode},
		{placement.RandomNode, placement.RandomNode},
		{placement.RandomCabinet, placement.RandomNode},
	} {
		res, err := runCo(pair.victim, []core.JobSpec{{Name: "CR", Trace: cr, Placement: pair.bully}})
		if err != nil {
			return nil, err
		}
		amgMax := res.MaxCommTime()
		r.progressf("ran co-run %v/%v: AMG %v", pair.victim, pair.bully, amgMax)
		t.Rows = append(t.Rows, []string{
			pair.victim.String(), pair.bully.String(),
			fmtF(amgMax.Milliseconds()),
			fmt.Sprintf("%.2fx", float64(amgMax)/float64(baseline)),
			fmtF(res.CoRun[0].MaxCommTime().Milliseconds()),
		})
	}
	rep.Tables = append(rep.Tables, t)
	return r.finish(rep)
}

// xmultiBully returns the heavy CR co-runner sized to the scale.
func (r *Runner) xmultiBully() (*trace.Trace, error) {
	if r.opts.Scale == ScalePaper {
		return trace.CR(trace.CRConfig{Ranks: 1000, MessageBytes: 380 * trace.KB})
	}
	return trace.CR(trace.CRConfig{Ranks: 48, MessageBytes: 128 * trace.KB})
}
