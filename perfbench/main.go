// Command perfbench is the repository benchmark: one command that runs a
// named workload against the CryptoDrop stack, checks every verdict against
// a reference, and prints its metrics by name with their units.
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json and perfbench/meta.json):
//
//	table1   the paper's Table I condition through experiments.Runner.RunSample
//	ingest   cdserver-shaped wire traffic from closed-loop client streams
//	desktop  a protected workstation: 30 benign apps, then three specimens per class
//	         (run by hand; BENCHMARK.json declares table1 and ingest)
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the workload untraced and traced (the overhead
// ratios) and then times each layer's public functions on the workload's
// own inputs (the per-layer metrics). Inputs are generated from --seed
// before the timed phase; set-up is repeated and reported as a median.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's scratch files (checkpoints, tenant config).
	dir string
	// ref is the directory holding the verdict references.
	ref string
	// size is "paper" for the benchmark proper or "tiny" for the smoke test.
	size string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports with tracing
// off, in output order. Per-workload meanings are in meta.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"samples_per_s", "1/s"},
	{"sample_geomean_ms", "ms"},
	{"sample_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"verdict_geomean_ms", "ms"},
	{"verdict_p90_ms", "ms"},
	{"detect_latency_ms", "ms"},
	{"detection_rate", "ratio"},
	{"files_lost_median", "count"},
}

// workload is one benchmark workload after set-up.
type workload interface {
	// run drives the workload's load for at least d (whole rounds or
	// sessions) and returns what it measured. traced switches on the
	// program's existing tracing for the overhead comparison.
	run(d time.Duration, traced bool) (*runStats, error)
	// probe times each layer's public functions on the workload's inputs.
	probe() (map[string]float64, error)
	// close releases listeners, goroutines and scratch files.
	close()
}

// setups builds each workload from the options.
var setups = map[string]func(options) (workload, error){
	"table1":  setupTable1,
	"ingest":  setupIngest,
	"desktop": setupDesktop,
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

func main() {
	o := options{size: "paper"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: table1, ingest or desktop")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.dir, "dir", ".bench_build/run", "scratch directory")
	fs.StringVar(&o.ref, "ref", "perfbench/reference", "verdict reference directory")
	writeRef := fs.Bool("write-reference", false, "regenerate the Table I verdict reference and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	if *writeRef {
		if err := writeReference(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runBenchmark(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBenchmark sets the workload up, runs it and assembles the result.
func runBenchmark(o options) (*result, error) {
	setup, ok := setups[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.RemoveAll(o.dir); err != nil {
		return nil, fmt.Errorf("clean scratch dir: %w", err)
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(o.dir)

	var w workload
	setupTimes := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if w, err = setup(o); err != nil {
			return nil, fmt.Errorf("set up %s: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer w.close()
	runtime.GC()

	d := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metric)}
	if !o.trace {
		rss := startRSSSampler()
		st, err := w.run(d, false)
		peak := rss.stop()
		if err != nil {
			return nil, err
		}
		st.report(o.workload, "untraced")
		e2e := st.endToEnd()
		e2e["setup_s"] = median(setupTimes)
		e2e["rss_peak_mb"] = peak
		for _, m := range endToEnd {
			v, ok := e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("metric %s not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		res.tally(st)
		return res, nil
	}

	// Traced run: the same load untraced, then traced, for the overhead
	// ratios, then the per-layer probes.
	base, err := w.run(d/2, false)
	if err != nil {
		return nil, err
	}
	base.report(o.workload, "untraced")
	traced, err := w.run(d/2, true)
	if err != nil {
		return nil, err
	}
	traced.report(o.workload, "traced")
	layers, err := w.probe()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	be, te := base.endToEnd(), traced.endToEnd()
	for _, m := range endToEnd {
		if b, ok := be[m.name]; ok && b != 0 {
			layers["trace_overhead."+m.name] = te[m.name] / b
		}
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.tally(base)
	res.tally(traced)
	return res, nil
}

// tally folds a run's accounting into the result.
func (r *result) tally(st *runStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// runStats is what one timed run measured.
type runStats struct {
	// busy is the measured time: the wall time of the load, less the
	// benchmark's own verification work.
	busy time.Duration
	// units are the verdict units completed (samples, sessions, programs);
	// unitLat maps each input (specimen, session template, program) to the
	// latencies of its runs in milliseconds.
	units   int
	unitLat map[int][]float64
	// ops counts operations and verdictLat their op-to-verdict latencies.
	ops        int64
	verdictLat []time.Duration
	// rounds, when the workload runs in sequential rounds, holds each
	// round's measured time, verdict units and ops.
	rounds []round
	// detectLatMs and filesLost are the workload's medians.
	detectLatMs float64
	filesLost   float64
	// ransom counts ransomware runs, detected those flagged.
	ransom, detected int
	// attempted and failed are the verdict accounting; mismatches name
	// each failure.
	attempted, failed int64
	mismatches        []string
}

// round is one sequential round of a run.
type round struct {
	work  time.Duration
	units int
	ops   int64
	// verdictLat are the round's op-to-verdict latencies.
	verdictLat []time.Duration
}

// fail records one failed operation with its identity.
func (st *runStats) fail(format string, args ...any) {
	st.failed++
	st.mismatches = append(st.mismatches, fmt.Sprintf(format, args...))
}

// endToEnd derives the run's end-to-end metrics (setup and memory aside).
func (st *runStats) endToEnd() map[string]float64 {
	secs := st.busy.Seconds()
	samplesPerS, opsPerS := float64(st.units)/secs, float64(st.ops)/secs
	tail := percentile(msOf(st.verdictLat), 0.90)
	if len(st.rounds) > 0 {
		// Every round runs the same programs, so each is a full sample of
		// the load: take the median round, and one slow moment of the
		// shared machine slows one round, not the figure.
		var sps, ops, tails []float64
		for _, r := range st.rounds {
			sps = append(sps, float64(r.units)/r.work.Seconds())
			ops = append(ops, float64(r.ops)/r.work.Seconds())
			tails = append(tails, percentile(msOf(r.verdictLat), 0.90))
		}
		samplesPerS, opsPerS, tail = median(sps), median(ops), median(tails)
	}
	m := map[string]float64{
		"samples_per_s":      samplesPerS,
		"sample_geomean_ms":  geomean(inputMedians(st.unitLat)),
		"sample_p90_ms":      percentile(inputMedians(st.unitLat), 0.90),
		"ops_per_s":          opsPerS,
		"verdict_geomean_ms": geomean(msOf(st.verdictLat)),
		"verdict_p90_ms":     tail,
		"detect_latency_ms":  st.detectLatMs,
		"files_lost_median":  st.filesLost,
	}
	if st.ransom > 0 {
		m["detection_rate"] = float64(st.detected) / float64(st.ransom)
	}
	return m
}

// report prints the run's sample counts, tail coverage and mismatches as
// informational lines ahead of the result.
func (st *runStats) report(workload, phase string) {
	fmt.Printf("# %s %s: busy %.2fs, %d units, %d ops, %d/%d ransomware detected\n",
		workload, phase, st.busy.Seconds(), st.units, st.ops, st.detected, st.ransom)
	fmt.Printf("#   sample latencies: %d inputs, each reported as the median of its runs\n",
		len(st.unitLat))
	fmt.Printf("#   verdict latencies: n=%d, highest percentile with >=10 beyond: %s, reported: p90 (meta.json)\n",
		len(st.verdictLat), tailName(len(st.verdictLat)))
	for _, m := range st.mismatches {
		fmt.Printf("MISMATCH %s %s\n", workload, m)
	}
}

// tailName names the highest of p90/p99/p99.9 with at least ten samples
// beyond it.
func tailName(n int) string {
	switch {
	case n >= 10000:
		return "p99.9"
	case n >= 1000:
		return "p99"
	case n >= 100:
		return "p90"
	}
	return "none"
}

// percentile returns the q-quantile (nearest rank) of xs; xs is sorted in
// place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median of xs (the two middle values averaged for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return xs
}

// medianDur is median over durations, in milliseconds.
func medianDur(ds []time.Duration) float64 { return median(msOf(ds)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// passCounter hands out work indices 0, 1, 2, ... to a run's workers,
// cycling over n inputs. Once the deadline has passed it stops at the end
// of the current pass, so every run does whole passes over its inputs and
// its statistics never depend on how far a partial pass got.
type passCounter struct {
	n        int64
	deadline time.Time
	next     atomic.Int64
	stop     atomic.Int64
}

func newPassCounter(n int, d time.Duration) *passCounter {
	p := &passCounter{n: int64(n), deadline: time.Now().Add(d)}
	p.stop.Store(math.MaxInt64)
	return p
}

// take returns the next index and whether the worker should run it.
func (p *passCounter) take() (int, bool) {
	i := p.next.Add(1) - 1
	if !time.Now().Before(p.deadline) {
		p.stop.CompareAndSwap(math.MaxInt64, (i+p.n-1)/p.n*p.n)
	}
	return int(i), i < p.stop.Load()
}

// addUnit records one verdict unit's latency under its input.
func (st *runStats) addUnit(input int, d time.Duration) {
	if st.unitLat == nil {
		st.unitLat = make(map[int][]float64)
	}
	st.units++
	st.unitLat[input] = append(st.unitLat[input], ms(d))
}

// geomean is the geometric mean of xs: the typical latency. Op latencies
// spread over three decades (opens take a microsecond, closes that measure
// a file a millisecond), and a desktop round's programs run from
// milliseconds to seconds, so the median falls where the distribution is
// thin and jumps with small shifts in the mix; the geometric mean weighs
// every op or input alike and moves smoothly. A zero reading (clock
// granularity) counts as one nanosecond.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(max(x, 1e-6))
	}
	return math.Exp(sum / float64(len(xs)))
}

// inputMedians returns each input's median over its runs. Inputs differ (a
// desktop round runs 39 different programs), so a percentile of pooled
// runs falls on the border between two inputs, where it jumps; over
// per-input medians it is one input's typical latency, and a median over
// them is robust to how many times each input ran and to which runs a slow
// moment hit.
func inputMedians(byInput map[int][]float64) []float64 {
	meds := make([]float64, 0, len(byInput))
	for _, xs := range byInput {
		meds = append(meds, median(xs))
	}
	return meds
}
