package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"dragonfly/internal/core"
	"dragonfly/internal/des"
	"dragonfly/internal/experiments"
	"dragonfly/internal/farm"
	"dragonfly/internal/placement"
	"dragonfly/internal/routing"
	"dragonfly/internal/stats"
	"dragonfly/internal/topology"
	"dragonfly/internal/workload"
)

// pass is what one pass of a workload measured. Set-up is everything before
// the first core.Run or Farm.Run. cold is set-up plus producing the pass's
// results from nothing; warm is producing them again with everything
// reusable reused: the filled store for the farm, and for the paper cells
// the built configs (core.Run keeps no results, so warm re-simulates).
type pass struct {
	wall, setup, cold, warm time.Duration
	peakRSSMB               float64       // peak RSS during the pass
	events                  uint64        // simulated events
	simTime                 time.Duration // host time that produced them
	attempted, failed       int
	failedOps               map[string]bool

	// Per-layer figures, reported by traced runs.
	spans     map[string]time.Duration
	packets   int64   // router-to-router packets (local and global links)
	mib       float64 // router-to-router traffic
	satMs     float64 // router-to-router saturation time, simulated
	hops      []float64
	maxCommUs float64 // slowest rank over the pass's cells, simulated
	recordKB  float64
	hitMs     []float64
	missMs    []float64
	gcCycles  float64
	allocMB   float64
}

func newPass() *pass {
	return &pass{spans: map[string]time.Duration{}, failedOps: map[string]bool{}}
}

// span adds the time since start to the named span.
func (p *pass) span(name string, start time.Time) { p.spans[name] += time.Since(start) }

// fail records a failed operation with its reason; an operation that fails
// several checks counts once.
func (p *pass) fail(op string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", op, err)
	if !p.failedOps[op] {
		p.failedOps[op] = true
		p.failed++
	}
}

// observe adds one cell's result to the pass's layer figures.
func (p *pass) observe(res *core.Result) {
	p.events += res.Events
	for _, l := range res.Links {
		if l.Kind == routing.Local || l.Kind == routing.Global {
			p.packets += l.Packets
			p.mib += float64(l.Bytes) / (1 << 20)
			p.satMs += float64(l.SatTime) / float64(des.Millisecond)
		}
	}
	p.hops = append(p.hops, mean(res.AvgHops))
	if us := float64(res.MaxCommTime()) / float64(des.Microsecond); us > p.maxCommUs {
		p.maxCommUs = us
	}
}

// cellConfig builds one cell exactly as the paper's figures do, spanning
// trace generation (with the graph lowering replay needs) and config
// building separately.
func (p *pass) cellConfig(r *experiments.Runner, app string, cell core.Cell, bg *workload.BackgroundConfig) (core.Config, error) {
	t := time.Now()
	tr, err := r.AppTrace(app)
	if err != nil {
		return core.Config{}, err
	}
	tr.Graph()
	p.span("trace.gen", t)
	t = time.Now()
	cfg, err := r.CellConfig(app, cell, 1, bg)
	p.span("experiments.cell_config", t)
	return cfg, err
}

// simulate runs one paper cell with core.Run, as fig3/fig9 do.
func (p *pass) simulate(label string, cfg core.Config) (*core.Result, error) {
	p.attempted++
	t := time.Now()
	res, err := core.Run(cfg)
	d := time.Since(t)
	p.simTime += d
	p.spans["core.run."+label] += d
	if err != nil {
		return nil, err
	}
	p.observe(res)
	return res, nil
}

// prepared is a workload after set-up: run produces and checks one pass's
// results, probe (optional) times spans of a profiled pass after it ends,
// and cleanup removes what set-up created.
type prepared struct {
	run     func(p *pass) error
	probe   func(p *pass) error
	cleanup func()
}

// paperLocal is the paper's "localize" end: the Fig. 3 CR and AMG cont-min
// cells on Theta at paper scale, no background.
func paperLocal(b *bench, p *pass) (*prepared, error) {
	r := experiments.NewRunner(experiments.Options{Scale: experiments.ScalePaper, Seed: b.seed, Parallel: 1})
	cell := core.Cell{Placement: placement.Contiguous, Routing: routing.Minimal}
	apps := []string{"CR", "AMG"}
	cfgs := make([]core.Config, len(apps))
	for i, app := range apps {
		cfg, err := p.cellConfig(r, app, cell, nil)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return &prepared{run: func(p *pass) error {
		for i, app := range apps {
			label := app + "-" + cell.Name()
			res, err := p.simulate(label, cfgs[i])
			if err == nil {
				err = completed(res)
			}
			if err == nil && b.seed == defaultSeed {
				err = b.checkFig3(app, res)
			}
			if err != nil {
				p.fail(label, err)
			}
		}
		p.cold = p.setup + p.simTime
		p.warm = p.simTime
		return nil
	}}, nil
}

// paperBalanced is the "balance" end under interference: the Fig. 9 CR
// rand-adp cell with the paper's uniform-random background, bounded in
// simulated time as CellConfig sets it.
func paperBalanced(b *bench, p *pass) (*prepared, error) {
	r := experiments.NewRunner(experiments.Options{Scale: experiments.ScalePaper, Seed: b.seed, Parallel: 1})
	bg, err := r.Background(workload.UniformRandom, "CR")
	if err != nil {
		return nil, err
	}
	cell := core.Cell{Placement: placement.RandomNode, Routing: routing.Adaptive}
	cfg, err := p.cellConfig(r, "CR", cell, bg)
	if err != nil {
		return nil, err
	}
	return &prepared{run: func(p *pass) error {
		label := "CR-" + cell.Name() + "-uniform"
		res, err := p.simulate(label, cfg)
		if err == nil {
			err = completed(res)
		}
		if err == nil {
			err = b.checkPinned("paper-balanced-bg", label, res)
		}
		if err != nil {
			p.fail(label, err)
		}
		p.cold = p.setup + p.simTime
		p.warm = p.simTime
		return nil
	}}, nil
}

// farmSeeds is the number of seeds each farm cell runs under.
const farmSeeds = 4

// farmSmallJobs sweeps the 64-rank CR trace on Theta over 5 placements x
// {min, adp} x 4 seeds through the farm into a fresh store: a cold pass,
// then a warm pass, each followed by the training corpus.
func farmSmallJobs(b *bench, p *pass) (*prepared, error) {
	// The quick scale's CR trace is the 64-rank CRConfig{Ranks: 64,
	// MessageBytes: 24 KiB}; the machine override puts it on Theta.
	r := experiments.NewRunner(experiments.Options{
		Scale: experiments.ScaleQuick, Machine: topology.Theta(), Seed: b.seed, Parallel: 1,
	})
	var cfgs []core.Config
	var labels []string
	for _, mech := range []routing.Mechanism{routing.Minimal, routing.Adaptive} {
		for _, pol := range placement.All() {
			cell := core.Cell{Placement: pol, Routing: mech}
			for k := 0; k < farmSeeds; k++ {
				cfg, err := p.cellConfig(r, "CR", cell, nil)
				if err != nil {
					return nil, err
				}
				cfg.Seed = b.seed + int64(k)
				cfgs = append(cfgs, cfg)
				labels = append(labels, fmt.Sprintf("CR-%s-seed+%d", cell.Name(), k))
			}
		}
	}
	dir, err := os.MkdirTemp(b.tmp, "farm-")
	if err != nil {
		return nil, err
	}
	store, err := farm.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &prepared{
		run: func(p *pass) error {
			return b.farmPasses(p, store, cfgs, labels)
		},
		probe: func(p *pass) error {
			// The farm addresses every cell inside Run; this times the
			// same encoding from outside, after the pass, so its cost shows
			// as a span. The cold pass has memoized the trace's digest,
			// which takes ~0.01 ms more when computed afresh.
			t := time.Now()
			for _, cfg := range cfgs {
				if _, err := farm.Address(cfg); err != nil {
					return err
				}
			}
			p.span("farm.encode", t)
			return nil
		},
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

// farmPasses runs the cold and the warm pass over a fresh store and checks
// both.
func (b *bench) farmPasses(p *pass, store *farm.Store, cfgs []core.Config, labels []string) error {
	cold, err := p.farmRun(store, cfgs, labels, false)
	if err != nil {
		return err
	}
	p.simTime = cold.wall
	p.cold = p.setup + cold.wall
	for i, res := range cold.results {
		if res == nil {
			continue // farmRun counted it
		}
		p.observe(res)
		err := completed(res)
		if err == nil {
			err = b.checkPinned("farm-small-jobs", labels[i], res)
		}
		if err != nil {
			p.fail("cold "+labels[i], err)
		}
	}

	// The warm pass starts from a collected heap returned to the OS, as a
	// resumed sweep in a new process would.
	debug.FreeOSMemory()
	warm, err := p.farmRun(store, cfgs, labels, true)
	if err != nil {
		return err
	}
	p.warm = warm.wall
	if !bytes.Equal(cold.corpus, warm.corpus) {
		for i := range cfgs {
			if cold.results[i] == nil || warm.results[i] == nil {
				continue
			}
			c, errC := farm.CorpusRow(cfgs[i], cold.results[i])
			w, errW := farm.CorpusRow(cfgs[i], warm.results[i])
			if errC != nil || errW != nil || fmt.Sprint(c) != fmt.Sprint(w) {
				p.fail("warm "+labels[i], fmt.Errorf("warm corpus row differs from the cold one"))
			}
		}
	}
	p.recordKB, err = meanFileKB(filepath.Join(store.Root(), "objects"))
	return err
}

// farmOutcome is one Farm.Run over the sweep plus its corpus.
type farmOutcome struct {
	results []*core.Result
	wall    time.Duration
	corpus  []byte
}

// farmRun runs the sweep through a new Farm and writes its corpus. Every
// cold cell must simulate and every warm cell must be a store hit, so a warm
// pass shows Hits == len(cfgs) and Misses == 0.
func (p *pass) farmRun(store *farm.Store, cfgs []core.Config, labels []string, warm bool) (*farmOutcome, error) {
	elapsed := make([]time.Duration, len(cfgs))
	hit := make([]bool, len(cfgs))
	f := farm.New(store, farm.Options{Parallel: 1, Progress: func(ev farm.Progress) {
		elapsed[ev.Index], hit[ev.Index] = ev.Elapsed, ev.Hit
	}})
	out := &farmOutcome{}
	t := time.Now()
	// Run's error repeats the first failed cell's, which the loop below
	// counts with the rest.
	out.results, _, _ = f.Run(cfgs)
	out.wall = time.Since(t)

	phase := "cold "
	if warm {
		phase = "warm "
	}
	for i := range cfgs {
		p.attempted++
		ms := float64(elapsed[i]) / float64(time.Millisecond)
		if warm {
			p.hitMs = append(p.hitMs, ms)
		} else {
			p.missMs = append(p.missMs, ms)
		}
		switch {
		case out.results[i] == nil:
			p.fail(phase+labels[i], fmt.Errorf("no result"))
		case warm && !hit[i]:
			p.fail(phase+labels[i], fmt.Errorf("re-simulated instead of replaying from the store"))
		case !warm && hit[i]:
			p.fail(phase+labels[i], fmt.Errorf("hit in a fresh store"))
		}
	}

	var buf bytes.Buffer
	t = time.Now()
	if _, _, err := farm.WriteCorpus(&buf, cfgs, out.results); err != nil {
		return nil, err
	}
	p.span("farm.corpus", t)
	out.corpus = buf.Bytes()
	return out, nil
}

// meanFileKB is the mean size of the regular files under dir.
func meanFileKB(dir string) (float64, error) {
	var total int64
	var n int
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		n++
		return nil
	})
	if n == 0 {
		return 0, err
	}
	return float64(total) / float64(n) / 1024, err
}

// completed checks what every seed must give: the run finished, dropped
// nothing, and routed every message.
func completed(res *core.Result) error {
	switch {
	case !res.Completed:
		return fmt.Errorf("did not complete (stopped at %v simulated)", res.Duration)
	case res.DroppedPackets != 0:
		return fmt.Errorf("dropped %d packets", res.DroppedPackets)
	case res.RouteErr != nil:
		return fmt.Errorf("routing failed: %v", res.RouteErr)
	}
	return nil
}

// digest pins one simulated result: its event count, simulated duration,
// and checksums of the per-rank comm times and per-link statistics.
type digest struct {
	Events   uint64 `json:"events"`
	Duration int64  `json:"duration_ns"`
	Comm     string `json:"comm_fnv64a"`
	Links    string `json:"links_fnv64a"`
}

func digestOf(res *core.Result) digest {
	comm := fnv.New64a()
	for _, t := range res.CommTimes {
		fmt.Fprintf(comm, "%d,", int64(t))
	}
	links := fnv.New64a()
	for _, l := range res.Links {
		fmt.Fprintf(links, "%d:%d>%d:%d:%d:%d;", l.Kind, l.From, l.To, l.Bytes, l.Packets, int64(l.SatTime))
	}
	return digest{
		Events:   res.Events,
		Duration: int64(res.Duration),
		Comm:     fmt.Sprintf("%016x", comm.Sum64()),
		Links:    fmt.Sprintf("%016x", links.Sum64()),
	}
}

// checkPinned compares a default-seed result with its pinned digest; other
// seeds have none. While pinning it records the digest instead.
func (b *bench) checkPinned(wl, cell string, res *core.Result) error {
	if b.seed != defaultSeed {
		return nil
	}
	got := digestOf(res)
	if b.pinning != nil {
		if b.pinning[wl] == nil {
			b.pinning[wl] = map[string]digest{}
		}
		b.pinning[wl][cell] = got
		return nil
	}
	want, ok := b.pinned[wl][cell]
	if !ok {
		return fmt.Errorf("no pinned digest for %s/%s", wl, cell)
	}
	if got != want {
		return fmt.Errorf("digest %+v, pinned %+v", got, want)
	}
	return nil
}

// fig3Files are the committed paper-scale Fig. 3 tables, read relative to
// the root of the checkout.
var fig3Files = map[string]string{
	"CR":  "results/paper/fig3_cr_communication_time_distribution_ms.csv",
	"AMG": "results/paper/fig3_amg_communication_time_distribution_ms.csv",
}

// loadFig3 reads the cont-min row (min, q1, median, q3, max) of each
// committed Fig. 3 table.
func loadFig3() (map[string][]string, error) {
	rows := map[string][]string{}
	for app, path := range fig3Files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, rec := range recs {
			if len(rec) == 6 && rec[0] == "cont-min" {
				rows[app] = rec[1:]
			}
		}
		if rows[app] == nil {
			return nil, fmt.Errorf("%s: no cont-min row", path)
		}
	}
	return rows, nil
}

// checkFig3 compares the per-rank comm-time five-number summary with the
// committed row at its printed precision (the report's %.4g).
func (b *bench) checkFig3(app string, res *core.Result) error {
	box := stats.BoxOf(res.CommTimesMs())
	got := []string{}
	for _, v := range []float64{box.Min, box.Q1, box.Median, box.Q3, box.Max} {
		got = append(got, fmt.Sprintf("%.4g", v))
	}
	if fmt.Sprint(got) != fmt.Sprint(b.fig3[app]) {
		return fmt.Errorf("comm-time summary %v ms, committed fig3 row %v", got, b.fig3[app])
	}
	return nil
}
