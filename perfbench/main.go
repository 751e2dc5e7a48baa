// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload over and over for a fixed time, checks every result it produces,
// and prints one JSON object of metrics as the last line of standard output.
//
//	perfbench --workload paper-local --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// every other pass under the CPU profiler and prints the per-layer metrics.
// README.md describes the workloads, the metrics and what "steady" means.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is dfsweep's default seed, the one the committed paper results
// and the pinned digests were produced with. Other seeds check completion.
const defaultSeed = 1

// benchWorkload is one set of inputs the benchmark runs. setup builds what
// a pass runs, recording its spans in p.
type benchWorkload struct {
	name  string
	setup func(b *bench, p *pass) (*prepared, error)
}

// Set-up takes from a quarter of a millisecond (farm-small-jobs) to ~0.1 s
// (paper-local), so after its last pass a plain run times further set-ups
// until it has at least minSetups samples, its own passes' included, and
// minSetupTime of further ones, or maxSpareSetups further ones; setup_s is
// the median of every set-up the run timed. They come after the last pass
// because every set-up leaves its lowered traces live (README.md, "Known
// defect"), and a timed pass should carry no set-ups but the passes'.
const (
	minSetups      = 12
	minSetupTime   = 300 * time.Millisecond
	maxSpareSetups = 1000
)

var workloads = []benchWorkload{
	{"paper-local", paperLocal},
	{"paper-balanced-bg", paperBalanced},
	{"farm-small-jobs", farmSmallJobs},
}

//go:embed pinned.json
var pinnedJSON []byte

// bench holds what every pass of a run shares.
type bench struct {
	seed int64
	tmp  string // private directory for farm stores, removed at exit

	pinned map[string]map[string]digest // workload -> cell -> digest
	// pinning, when non-nil, records digests instead of checking them.
	pinning map[string]map[string]digest
	// fig3 holds the committed paper-scale cont-min rows, app -> cells.
	fig3 map[string][]string
}

// output is the JSON object printed as the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed; the pinned output checks apply at the default")
	seconds := flag.Int("seconds", 30, "measure for this many seconds (whole passes; at least one)")
	traceFlag := flag.Int("trace", 0, "1 profiles every other pass and prints the per-layer metrics")
	pin := flag.String("pin", "", "run one default-seed pass of each pinned workload, write their digests to this file, and exit")
	flag.Parse()

	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	// An interrupted run still removes its farm store (~112 MB a pass).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		os.RemoveAll(tmp)
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()

	b := &bench{seed: *seed, tmp: tmp}
	if err := json.Unmarshal(pinnedJSON, &b.pinned); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinned.json:", err)
		return 1
	}
	if *pin != "" {
		if err := b.writePinned(*pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if w.name == "paper-local" {
		if b.fig3, err = loadFig3(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	out, err := measure(b, w, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure runs whole passes of w while another one, and the spare set-ups
// after the last, are expected to end within dur, and reduces them to
// metrics. A traced run alternates plain and profiled passes, so the
// difference of their medians is the tracing overhead.
func measure(b *bench, w *benchWorkload, dur time.Duration, traced bool) (*output, error) {
	minPasses := 1
	if traced {
		minPasses = 2
	}
	var plain, profiled []*pass
	var cpu layerProfile
	var took []float64   // seconds per pass
	var setups []float64 // seconds per set-up
	// The live heap after the collection that starts each pass: what the
	// set-ups before it left behind for good, one per pass.
	var live []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds()+quantile(took, 0.5)+spareEstimate(setups, traced) <= dur.Seconds(); i++ {
		passStart := time.Now()
		prof := traced && i%2 == 1
		// Start every pass from a collected heap returned to the OS, so one
		// pass's garbage and freed pages are not billed to the next and the
		// pass's own peak RSS can be read.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		live = append(live, float64(before.HeapAlloc)/(1<<20))
		var buf bytes.Buffer
		if prof {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
		}
		p := newPass()
		t0 := time.Now()
		job, err := w.setup(b, p)
		if err != nil {
			if prof {
				pprof.StopCPUProfile()
			}
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		p.setup = time.Since(t0)
		err = job.run(p)
		p.wall = time.Since(t0)
		peak, peakErr := peakRSSMB()
		p.peakRSSMB = peak
		if prof {
			pprof.StopCPUProfile()
			// Spans of work the pass does only inside the program are timed
			// here, outside its wall time and profile, so profiled and plain
			// passes do the same work.
			if err == nil && job.probe != nil {
				err = job.probe(p)
			}
		}
		if job.cleanup != nil {
			job.cleanup()
		}
		// Flush what the pass left for the kernel to write back (metadata
		// of the removed farm store), so the disk is idle when the next
		// pass starts.
		syscall.Sync()
		if err == nil {
			err = peakErr
		}
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, i+1, err)
		}
		took = append(took, time.Since(passStart).Seconds())
		setups = append(setups, p.setup.Seconds())
		if prof {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			p.gcCycles = float64(after.NumGC - before.NumGC)
			p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			if err := cpu.add(buf.Bytes()); err != nil {
				return nil, fmt.Errorf("read CPU profile: %w", err)
			}
			profiled = append(profiled, p)
		} else {
			plain = append(plain, p)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wall %.3fs setup %.3fs cold %.3fs warm %.3fs peak %.1fMiB live %.1fMiB failed %d/%d profiled=%v\n",
			w.name, i+1, p.wall.Seconds(), p.setup.Seconds(), p.cold.Seconds(), p.warm.Seconds(), p.peakRSSMB, live[i], p.failed, p.attempted, prof)
	}

	out := &output{Metrics: map[string]metric{}}
	for _, p := range append(append([]*pass(nil), plain...), profiled...) {
		out.Attempted += p.attempted
		out.Failed += p.failed
	}
	out.Correct = out.Failed == 0
	if traced {
		layerMetrics(out.Metrics, plain, profiled, &cpu)
		last := len(live) - 1
		out.Metrics["runtime.retained_mb_per_setup"] = metric{(live[last] - live[0]) / float64(last), "MiB"}
		return out, nil
	}
	spare, err := spareSetups(b, w, len(setups))
	if err != nil {
		return nil, err
	}
	endToEndMetrics(out.Metrics, plain, append(setups, spare...))
	return out, nil
}

// endToEndMetrics reduces the plain passes and the timed set-ups to the
// gated metrics.
func endToEndMetrics(m map[string]metric, ps []*pass, setups []float64) {
	m["wall_s"] = metric{medianOf(ps, func(p *pass) float64 { return p.wall.Seconds() }), "s"}
	m["setup_s"] = metric{quantile(setups, 0.5), "s"}
	m["cold_s"] = metric{medianOf(ps, func(p *pass) float64 { return p.cold.Seconds() }), "s"}
	m["warm_s"] = metric{medianOf(ps, func(p *pass) float64 { return p.warm.Seconds() }), "s"}
	m["sim_events_per_s"] = metric{medianOf(ps, func(p *pass) float64 {
		return float64(p.events) / p.simTime.Seconds()
	}), "1/s"}
	// Only the first pass runs in a fresh process, as a command-line run
	// does. Later passes start with every trace earlier set-ups lowered
	// still live (the program memoizes lowered graphs and trace digests per
	// trace pointer and never evicts them), so their peak grows with the
	// pass count; runtime.retained_mb_per_setup reports that growth.
	m["peak_rss_mb"] = metric{ps[0].peakRSSMB, "MiB"}
}

// layerMetrics reduces a traced run: CPU shares from the profiled passes,
// counts and spans from them too, and the tracing overhead against the
// plain passes.
func layerMetrics(m map[string]metric, plain, profiled []*pass, cpu *layerProfile) {
	for _, l := range reportedLayers {
		m[l.metric] = metric{cpu.share(l.layer), "share"}
	}
	m["other.cpu_share"] = metric{cpu.otherShare(), "share"}
	m["profile.samples"] = metric{float64(cpu.total), "count"}

	med := func(f func(p *pass) float64) float64 { return medianOf(profiled, f) }
	span := func(name string) float64 { return med(func(p *pass) float64 { return p.spans[name].Seconds() }) }
	m["des.events"] = metric{med(func(p *pass) float64 { return float64(p.events) }), "count"}
	m["network.packets"] = metric{med(func(p *pass) float64 { return float64(p.packets) }), "count"}
	m["network.mib"] = metric{med(func(p *pass) float64 { return p.mib }), "MiB"}
	m["network.sat_ms"] = metric{med(func(p *pass) float64 { return p.satMs }), "ms"}
	m["routing.avg_hops"] = metric{med(func(p *pass) float64 { return mean(p.hops) }), "hops"}
	m["workload.max_comm_us"] = metric{med(func(p *pass) float64 { return p.maxCommUs }), "us"}
	m["farm.record_kb"] = metric{med(func(p *pass) float64 { return p.recordKB }), "KiB"}
	m["farm.encode_ms"] = metric{1e3 * span("farm.encode"), "ms"}
	m["farm.corpus_ms"] = metric{1e3 * span("farm.corpus"), "ms"}
	var hits, misses []float64
	for _, p := range profiled {
		hits = append(hits, p.hitMs...)
		misses = append(misses, p.missMs...)
	}
	m["farm.hit_p50_ms"] = metric{quantile(hits, 0.5), "ms"}
	m["farm.hit_p75_ms"] = metric{quantile(hits, 0.75), "ms"}
	m["farm.miss_p50_ms"] = metric{quantile(misses, 0.5), "ms"}
	m["farm.miss_p75_ms"] = metric{quantile(misses, 0.75), "ms"}
	m["trace.gen_s"] = metric{span("trace.gen"), "s"}
	m["experiments.cell_config_s"] = metric{span("experiments.cell_config"), "s"}
	for _, cell := range spannedCells {
		m["core.run_s."+cell] = metric{span("core.run." + cell), "s"}
	}
	m["runtime.gc_cycles"] = metric{med(func(p *pass) float64 { return p.gcCycles }), "count"}
	m["runtime.alloc_mb"] = metric{med(func(p *pass) float64 { return p.allocMB }), "MiB"}
	m["tracing.overhead_s"] = metric{med(func(p *pass) float64 { return p.wall.Seconds() }) -
		medianOf(plain, func(p *pass) float64 { return p.wall.Seconds() }), "s"}
}

// spareEstimate is how long the spare set-ups after the last pass are
// expected to take, given the passes' set-up times so far.
func spareEstimate(setups []float64, traced bool) float64 {
	if traced {
		return 0
	}
	return minSetupTime.Seconds() + float64(minSetups)*quantile(setups, 0.5)
}

// spareSetups times further set-ups of w after a run's last pass, which
// timed have set-ups of their own, until there are minSetups samples in all
// and minSetupTime of further ones, or maxSpareSetups further ones. It
// returns the further samples in seconds.
func spareSetups(b *bench, w *benchWorkload, have int) ([]float64, error) {
	// The passes' set-ups start from a collected heap; so do these.
	debug.FreeOSMemory()
	var samples []float64
	for total := time.Duration(0); len(samples) < maxSpareSetups && (have+len(samples) < minSetups || total < minSetupTime); {
		t := time.Now()
		job, err := w.setup(b, newPass())
		if err != nil {
			return nil, err
		}
		d := time.Since(t)
		if job.cleanup != nil {
			job.cleanup()
		}
		samples = append(samples, d.Seconds())
		total += d
	}
	return samples, nil
}

// spannedCells names the cells whose core.Run time the traced run reports;
// each belongs to one paper workload and reads 0 on the others.
var spannedCells = []string{"CR-cont-min", "AMG-cont-min", "CR-rand-adp-uniform"}

// resetPeakRSS sets the kernel's peak-RSS mark (VmHWM) to the current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak RSS since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func medianOf(ps []*pass, f func(p *pass) float64) float64 {
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = f(p)
	}
	return quantile(vals, 0.5)
}

// quantile interpolates linearly between order statistics; 0 when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// writePinned runs one default-seed pass of every workload checked against
// pinned digests and writes what it saw to path.
func (b *bench) writePinned(path string) error {
	if b.seed != defaultSeed {
		return errors.New("-pin records the default seed only")
	}
	b.pinning = map[string]map[string]digest{}
	for i := range workloads {
		if workloads[i].name == "paper-local" {
			continue // checked against the committed fig3 rows instead
		}
		if _, err := measure(b, &workloads[i], 0, false); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(b.pinning, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), append(data, '\n'), 0o644)
}
