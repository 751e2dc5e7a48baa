package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// renderReport runs one experiment on a fresh runner at the given worker
// count and returns the rendered text plus every CSV file's bytes.
func renderReport(t *testing.T, id string, parallel int) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: parallel, DataDir: dir})
	rep, err := r.Run(id)
	if err != nil {
		t.Fatalf("%s parallel=%d: %v", id, parallel, err)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	csvs := map[string]string{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(matches)
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		csvs[filepath.Base(m)] = string(data)
	}
	if len(csvs) == 0 {
		t.Fatalf("%s produced no CSVs", id)
	}
	return buf.String(), csvs
}

// The tentpole contract: the parallel sweep executor's reports — rendered
// tables and CSV bytes — are byte-identical to the strictly sequential run,
// for every worker count.
func TestParallelReportsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig3 and fig8 several times")
	}
	workerCounts := []int{2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, id := range []string{"fig3", "fig8"} {
		seqText, seqCSV := renderReport(t, id, 1)
		for _, workers := range workerCounts {
			parText, parCSV := renderReport(t, id, workers)
			if parText != seqText {
				t.Errorf("%s: parallel=%d report text differs from sequential:\n%s",
					id, workers, firstDiff(seqText, parText))
			}
			if len(parCSV) != len(seqCSV) {
				t.Fatalf("%s: parallel=%d wrote %d CSVs, sequential %d", id, workers, len(parCSV), len(seqCSV))
			}
			for name, want := range seqCSV {
				if got, ok := parCSV[name]; !ok {
					t.Errorf("%s: parallel=%d missing CSV %s", id, workers, name)
				} else if got != want {
					t.Errorf("%s: parallel=%d CSV %s differs from sequential", id, workers, name)
				}
			}
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "length mismatch"
}

// The cache's single-flight contract directly: hammer one cell from many
// goroutines and require one cache entry and one shared result.
func TestResultCacheSingleFlight(t *testing.T) {
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1})
	cells := isolatedGrid("CR")[:2]
	const goroutines = 8
	results := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rq := cells[g%len(cells)]
			res, err := r.resultFor(rq.app, rq.cell, rq.msgScale, rq.bg)
			if err != nil {
				results[g] = err
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	r.mu.Lock()
	n := len(r.cache)
	r.mu.Unlock()
	if n != len(cells) {
		t.Fatalf("cache holds %d entries, want %d (single flight per cell)", n, len(cells))
	}
	for g := 2; g < goroutines; g++ {
		if results[g] != results[g%len(cells)] {
			t.Fatalf("goroutine %d got a different result object than its cell's first runner: %v", g, results[g])
		}
	}
}

// Progress output must stay line-atomic under parallel workers: every line
// is complete and well-formed.
func TestParallelProgressLinesNotInterleaved(t *testing.T) {
	var buf syncBuffer
	r := NewRunner(Options{Scale: ScaleQuick, Seed: 1, Parallel: 4, Progress: &buf})
	if _, err := r.Figure3(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("progress lines = %d, want 30 (3 apps x 10 cells)", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ran ") || !strings.Contains(line, "events=") {
			t.Fatalf("malformed (interleaved?) progress line: %q", line)
		}
	}
}

// syncBuffer makes the test's own reads race-safe; the Runner already
// serializes its writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
