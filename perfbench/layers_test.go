package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"json decoding under Store.Get is farm", []string{
			"encoding/json.(*decodeState).literalStore",
			"encoding/json.(*decodeState).array",
			"encoding/json.Unmarshal",
			"dragonfly/internal/farm.(*Store).Get",
			"dragonfly/internal/farm.(*Farm).runCell",
			"dragonfly/internal/farm.(*Farm).Run",
			"main.farmRun",
			"main.main",
		}, "farm"},
		{"chooser construction under network.New is routing.build", []string{
			"runtime.mallocgc",
			"dragonfly/internal/routing.(*Chooser).buildTables",
			"dragonfly/internal/routing.NewChooserOpts",
			"dragonfly/internal/network.New",
			"dragonfly/internal/core.Run",
			"main.main",
		}, "routing.build"},
		{"fabric index under network.New is network.build", []string{
			"dragonfly/internal/topology.(*Dragonfly).Neighbors",
			"dragonfly/internal/network.New.func2",
			"dragonfly/internal/par.Do.func1",
			"runtime.goexit",
		}, "network.build"},
		{"GC worker is runtime.gc", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker",
			"runtime.goexit",
		}, "runtime.gc"},
		{"allocation in the event loop is des", []string{
			"runtime.mallocgc",
			"dragonfly/internal/des.(*Engine).Step",
			"dragonfly/internal/core.Run",
		}, "des"},
		{"benchmark code is bench", []string{
			"hash/fnv.(*sum64a).Write",
			"main.digestOf",
			"main.main",
		}, "bench"},
		{"a lookalike name is no constructor", []string{
			"dragonfly/internal/network.Newer",
		}, "network"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestDecodeProfile decodes a real CPU profile of this process and finds the
// busy function on the sampled stacks.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, counts, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, st := range stacks {
		total += counts[i]
		for _, fn := range st {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += counts[i]
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin, want most", inSpin, total)
	}
}
