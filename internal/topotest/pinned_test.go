package topotest_test

import (
	"testing"

	"dragonfly/internal/core"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/topotest/policytest"
	"dragonfly/internal/trace"
)

// TestPooledCellsMatchPinned pins audited crystal-router cells on the mini
// machine, one per route-construction path the allocation pools touch:
// minimal (the path cache), adaptive (candidate scratch, Valiant draws,
// arena recycling of losing candidates) and qadaptive (the same, plus the
// Q-table's decision sequence). The digests were recorded when the
// packet/credit pools and the route cache could still be switched off, and
// pooled and unpooled runs were proven identical on every cell.
func TestPooledCellsMatchPinned(t *testing.T) {
	tr, err := trace.CR(trace.CRConfig{Ranks: 32, MessageBytes: 16 * trace.KB})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cell core.Cell
		want string
	}{
		{core.Cell{Placement: placement.RandomNode, Routing: routing.Minimal}, "fb905fb3181fb457"},
		{core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}, "f7dc4dce35d25cc7"},
		{core.Cell{Placement: placement.Contiguous, Routing: routing.Adaptive}, "f382ac5c837a723e"},
		{core.Cell{Placement: placement.RandomNode, Routing: routing.QAdaptive}, "2e7c075d62c79a8d"},
	} {
		cfg := core.MiniConfig(tr, c.cell, 11)
		cfg.Audit = true
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.cell.Name(), err)
		}
		if res.Audit == nil || len(res.Audit.Violations) != 0 {
			t.Errorf("%s: audit summary missing or dirty: %+v", c.cell.Name(), res.Audit)
		}
		if got := policytest.ResultDigest(res); got != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.cell.Name(), got, c.want)
		}
	}
}
