package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
)

// The corpus and roster are the paper reproduction's defaults (cdbench
// -seed 2016); the workload seed only chooses which specimens run.
const (
	corpusSeed = 2016
	rosterSeed = 2016
)

// sampleEvery sets the table1 subset's proportional allocation: each
// family×class stratum of the roster contributes one specimen per
// sampleEvery it holds (rounded), and at least one, so the subset keeps
// the roster's family mix while covering every family and class.
const sampleEvery = 10

// table1Spec is the corpus for the table1 workload at each size.
func table1Spec(size string) corpus.Spec {
	if size == "tiny" {
		return corpus.Spec{Seed: corpusSeed, Files: 300, Dirs: 30, SizeScale: 0.1}
	}
	return corpus.Spec{Seed: corpusSeed, Files: corpus.DefaultFiles, Dirs: corpus.DefaultDirs, SizeScale: 1}
}

// refEntry is one specimen's reference verdict on the table1 corpus.
type refEntry struct {
	Detected  bool `json:"detected"`
	FilesLost int  `json:"filesLost"`
}

// referenceFile holds the Table I reference for each size.
func referenceFile(dir string) string { return filepath.Join(dir, "table1.json") }

// loadReference reads the reference for size.
func loadReference(dir, size string) (map[string]refEntry, error) {
	data, err := os.ReadFile(referenceFile(dir))
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var all map[string]map[string]refEntry
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("parse reference: %w", err)
	}
	ref, ok := all[size]
	if !ok {
		return nil, fmt.Errorf("reference has no %q section", size)
	}
	return ref, nil
}

// writeReference runs the whole 492-specimen roster at both sizes with
// detection only and writes each specimen's verdict and files lost.
func writeReference(o options) error {
	all := make(map[string]map[string]refEntry)
	roster := ransomware.Roster(rosterSeed)
	for _, size := range []string{"paper", "tiny"} {
		r, err := experiments.NewRunner(table1Spec(size))
		if err != nil {
			return err
		}
		outs, err := r.RunRosterParallel(roster, runtime.NumCPU(), nil)
		if err != nil {
			return err
		}
		ref := make(map[string]refEntry, len(outs))
		for _, out := range outs {
			ref[out.Sample.ID] = refEntry{Detected: out.Detected, FilesLost: out.FilesLost}
		}
		all[size] = ref
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.ref, 0o755); err != nil {
		return err
	}
	return os.WriteFile(referenceFile(o.ref), append(data, '\n'), 0o644)
}

// stratifiedSubset draws a proportional stratified subset of the roster,
// the specimens within each stratum chosen with the roster seed, in roster
// order. It is fixed, so every run measures the same specimens: with a
// subset drawn by the workload seed, the ops in a pass changed by up to 15%
// from seed to seed, and ops_per_s and the verdict latencies with them.
func stratifiedSubset(roster []ransomware.Sample) []ransomware.Sample {
	rng := rand.New(rand.NewSource(rosterSeed))
	strata := make(map[string][]int)
	var keys []string
	for i, s := range roster {
		k := s.Profile.Family + "/" + s.Profile.Class.String()
		if _, ok := strata[k]; !ok {
			keys = append(keys, k)
		}
		strata[k] = append(strata[k], i)
	}
	var picked []int
	for _, k := range keys {
		idx := strata[k]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := max(1, (len(idx)+sampleEvery/2)/sampleEvery)
		picked = append(picked, idx[:n]...)
	}
	sort.Ints(picked)
	out := make([]ransomware.Sample, len(picked))
	for i, p := range picked {
		out[i] = roster[p]
	}
	return out
}

// table1 runs the stratified subset through Runner.RunSample on nproc
// workers, cycling through it until the time is up.
type table1 struct {
	o      options
	runner *experiments.Runner
	subset []ransomware.Sample
	// order is the seeded order in which each pass runs the subset.
	order []int
	ref   map[string]refEntry
	// clock is the top filter timing every intercepted op.
	clock *opClock
	// traced switches each worker's span tracer on in the monitors it runs.
	traced atomic.Bool
	// workers maps a worker goroutine to its state. The monitor scores and
	// measures synchronously on the goroutine that issued the op, and the
	// runner builds each monitor on the worker's goroutine, so the
	// detection callback and the tracer option find the worker's own state
	// and need no lock.
	workers sync.Map // goroutine id -> *table1Worker
	// spans are the last traced run's spans, one slice per worker: every
	// monitor's spans share one lane, so each worker records into a tracer
	// of its own.
	spans [][]telemetry.Span
}

// table1Worker is one worker goroutine's state.
type table1Worker struct {
	// detectedAt is the detection time of the specimen it is running.
	detectedAt time.Time
	// tracer records its monitors' spans in a traced run.
	tracer *cryptodrop.SpanTracer
}

func setupTable1(o options) (workload, error) {
	ref, err := loadReference(o.ref, o.size)
	if err != nil {
		return nil, err
	}
	t := &table1{o: o, ref: ref, clock: newOpClock()}
	runner, err := experiments.NewRunner(table1Spec(o.size),
		cryptodrop.WithDetectionHandler(t.onDetection), t.tracerOption())
	if err != nil {
		return nil, err
	}
	runner.SetTraceRecorder(t.clock)
	t.runner = runner
	t.subset = stratifiedSubset(ransomware.Roster(rosterSeed))
	t.order = rand.New(rand.NewSource(o.seed)).Perm(len(t.subset))
	for _, s := range t.subset {
		if _, ok := ref[s.ID]; !ok {
			return nil, fmt.Errorf("no reference verdict for %s", s.ID)
		}
	}
	return t, nil
}

// tracerOption attaches the calling worker's span tracer while a traced
// run is on, so one Runner (whose options are fixed when its corpus is
// built) serves both untraced and traced phases. cryptodrop.Option's
// argument type is unexported, hence the reflection.
func (t *table1) tracerOption() cryptodrop.Option {
	var opt cryptodrop.Option
	return reflect.MakeFunc(reflect.TypeOf(opt), func(args []reflect.Value) []reflect.Value {
		if !t.traced.Load() {
			return nil
		}
		if v, ok := t.workers.Load(goroutineID()); ok {
			reflect.ValueOf(cryptodrop.WithSpanTracer(v.(*table1Worker).tracer)).Call(args)
		}
		return nil
	}).Interface().(cryptodrop.Option)
}

// onDetection records the detection time for the calling worker.
func (t *table1) onDetection(cryptodrop.Detection) {
	if v, ok := t.workers.Load(goroutineID()); ok {
		if w := v.(*table1Worker); w.detectedAt.IsZero() {
			w.detectedAt = time.Now()
		}
	}
}

// goroutineID parses the calling goroutine's ID from its stack header
// ("goroutine 17 [running]:"). Only the detection callback and worker
// start-up call it.
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// table1Run is one completed specimen run.
type table1Run struct {
	idx       int
	wall      time.Duration
	detectLat time.Duration
	detected  bool
	filesLost int
	err       error
}

func (t *table1) run(d time.Duration, traced bool) (*runStats, error) {
	t.traced.Store(traced)
	defer t.traced.Store(false)
	t.clock.take()
	workers := runtime.NumCPU()
	var mu sync.Mutex
	var runs []table1Run
	states := make([]*table1Worker, workers)
	for w := range states {
		states[w] = &table1Worker{}
		if traced {
			states[w].tracer = cryptodrop.NewSpanTracer(0, 1)
		}
	}
	start := time.Now()
	pc := newPassCounter(len(t.subset), d)
	var wg sync.WaitGroup
	for _, ws := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gid := goroutineID()
			t.workers.Store(gid, ws)
			defer t.workers.Delete(gid)
			for {
				i, ok := pc.take()
				if !ok {
					return
				}
				k := t.order[i%len(t.subset)]
				s := t.subset[k]
				ws.detectedAt = time.Time{}
				t0 := time.Now()
				out, err := t.runner.RunSample(s)
				r := table1Run{idx: k, wall: time.Since(t0), err: err,
					detected: out.Detected, filesLost: out.FilesLost}
				if !ws.detectedAt.IsZero() {
					r.detectLat = ws.detectedAt.Sub(t0)
				}
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := &runStats{busy: time.Since(start), verdictLat: t.clock.take()}
	if traced {
		t.spans = t.spans[:0]
		for _, ws := range states {
			t.spans = append(t.spans, ws.tracer.Spans())
		}
	}
	st.ops = int64(len(st.verdictLat))

	// Runs are whole passes over the subset; the first run of each specimen
	// gives its files lost, so the median weighs every specimen once.
	lostOf := make(map[int]int)
	detect := make(map[int][]float64)
	for _, r := range runs {
		st.attempted++
		s := t.subset[r.idx]
		if r.err != nil {
			st.fail("sample %s: %v", s.ID, r.err)
			continue
		}
		st.addUnit(r.idx, r.wall)
		st.ransom++
		if r.detected {
			st.detected++
		}
		if want := t.ref[s.ID]; r.detected != want.Detected || r.filesLost != want.FilesLost {
			st.fail("sample %s: detected=%t filesLost=%d, reference detected=%t filesLost=%d",
				s.ID, r.detected, r.filesLost, want.Detected, want.FilesLost)
		}
		if _, ok := lostOf[r.idx]; !ok {
			lostOf[r.idx] = r.filesLost
		}
		if r.detectLat > 0 {
			detect[r.idx] = append(detect[r.idx], ms(r.detectLat))
		}
	}
	var lost []float64
	for _, n := range lostOf {
		lost = append(lost, float64(n))
	}
	st.filesLost = median(lost)
	st.detectLatMs = median(inputMedians(detect))
	return st, nil
}

func (t *table1) probe() (map[string]float64, error) {
	pool, err := poolFromRunner(t.runner, poolFiles)
	if err != nil {
		return nil, err
	}
	p := &probe{
		runner:   t.runner,
		sample:   t.subset[0],
		programs: []program{sampleProgram(t.subset[0])},
		sessions: generateSessions(pool, t.o.seed, probeSessions),
		spans:    t.spans,
		dir:      t.o.dir,
	}
	defer t.runner.SetTraceRecorder(t.clock)
	return p.run()
}

func (t *table1) close() {}
