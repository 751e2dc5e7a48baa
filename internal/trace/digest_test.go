package trace

import (
	"sync"
	"testing"
)

func digestTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := CR(CRConfig{Ranks: 16, MessageBytes: 4 * KB})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestDigestDeterministic(t *testing.T) {
	a, b := digestTrace(t), digestTrace(t)
	if a.Digest() != b.Digest() {
		t.Fatalf("identical traces digest differently: %x vs %x", a.Digest(), b.Digest())
	}
}

// TestDigestSensitivity flips every component of a single op plus the trace
// metadata, and requires each change to move the digest: the content digest
// is the application's identity in the on-disk result cache, so a blind spot
// here is a wrong-result cache hit there.
func TestDigestSensitivity(t *testing.T) {
	base := digestTrace(t)
	want := base.Digest()

	mutate := func(name string, f func(tr *Trace)) {
		tr := digestTrace(t)
		f(tr)
		if tr.Digest() == want {
			t.Errorf("%s does not perturb the digest", name)
		}
	}
	mutate("app name", func(tr *Trace) { tr.App = "cr2" })
	mutate("dropped rank", func(tr *Trace) { tr.Ranks = tr.Ranks[:len(tr.Ranks)-1] })
	mutate("op kind", func(tr *Trace) { tr.Ranks[0][0].Kind = OpWaitAll })
	mutate("op peer", func(tr *Trace) { tr.Ranks[0][0].Peer++ })
	mutate("op bytes", func(tr *Trace) { tr.Ranks[0][0].Bytes++ })
	mutate("op tag", func(tr *Trace) { tr.Ranks[0][0].Tag++ })
	mutate("dropped op", func(tr *Trace) { tr.Ranks[0] = tr.Ranks[0][:len(tr.Ranks[0])-1] })
}

// TestMemosConcurrent: a trace shared by parallel sweep workers is digested
// and lowered from several goroutines at once; every caller must see the
// same digest and the same lowered graph.
func TestMemosConcurrent(t *testing.T) {
	tr := digestTrace(t)
	want := digestTrace(t).Digest()
	const workers = 8
	graphs := make([]*Graph, workers)
	digests := make([]uint64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = tr.Digest()
			graphs[i] = tr.Graph()
		}(i)
	}
	wg.Wait()
	for i := range graphs {
		if digests[i] != want {
			t.Errorf("worker %d: digest %x, want %x", i, digests[i], want)
		}
		if graphs[i] != graphs[0] {
			t.Errorf("worker %d got a different lowered graph", i)
		}
	}
}
