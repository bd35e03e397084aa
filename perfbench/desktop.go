package main

import (
	"fmt"
	"runtime"
	"time"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
)

// desktopSpec is the quick-scale corpus of the desktop workload.
func desktopSpec(size string) corpus.Spec {
	if size == "tiny" {
		return corpus.Spec{Seed: corpusSeed, Files: 800, Dirs: 80, SizeScale: 0.05}
	}
	return corpus.Spec{Seed: corpusSeed, Files: 800, Dirs: 80, SizeScale: 0.3}
}

// desktop runs rounds on a protected workstation: each round is a fresh
// clone under a monitor with enforcement on and recovery armed, where the
// 30 benign applications run as separate processes and then
// specimensPerClass specimens of each class run, each detected and rolled
// back before the next. The specimen that goes first rotates from round to
// round, so every specimen runs in several places; the seed picks the
// first round's order, and the inputs are otherwise fixed.
type desktop struct {
	o       options
	runner  *experiments.Runner
	apps    []program
	samples []ransomware.Sample // classes interleaved: A, B, C, A, B, C, ...
	first   int                 // the specimen that goes first in round 0
	// spans are the last traced run's spans.
	spans []telemetry.Span
}

func setupDesktop(o options) (workload, error) {
	runner, err := experiments.NewRunner(desktopSpec(o.size))
	if err != nil {
		return nil, err
	}
	d := &desktop{o: o, runner: runner}
	for _, w := range benign.All() {
		d.apps = append(d.apps, appProgram(w))
	}
	byClass := make([][]ransomware.Sample, len(classFamilies))
	for c := range classFamilies {
		byClass[c] = classSamples(c, specimensPerClass)
	}
	for k := 0; k < specimensPerClass; k++ {
		for c := range classFamilies {
			d.samples = append(d.samples, byClass[c][k])
		}
	}
	d.first = int(uint64(o.seed) % uint64(len(d.samples)))
	return d, nil
}

// specimensPerClass is how many specimens of each class a desktop round
// runs. Each detects within a few milliseconds, so a round needs several
// for detect_latency_ms to settle; they add little to a round's time.
const specimensPerClass = 3

// round returns the programs of round i in run order, and for each its
// input: its place in the apps, or len(apps) plus the specimen's place.
func (d *desktop) round(i int) ([]program, []int) {
	progs := append([]program(nil), d.apps...)
	inputs := make([]int, 0, len(d.apps)+len(d.samples))
	for j := range d.apps {
		inputs = append(inputs, j)
	}
	for k := range d.samples {
		c := (d.first + i + k) % len(d.samples)
		progs = append(progs, sampleProgram(d.samples[c]))
		inputs = append(inputs, len(d.apps)+c)
	}
	return progs, inputs
}

func (d *desktop) run(dur time.Duration, traced bool) (*runStats, error) {
	st := &runStats{}
	clock := newOpClock()
	mo := machineOpts{monitored: true, clock: clock}
	if traced {
		mo.tracer = cryptodrop.NewSpanTracer(0, 1)
	}
	// Keyed by input: per-specimen medians, then the median over
	// specimens.
	detect := make(map[int][]float64)
	damaged := make(map[int][]float64)
	// A warm-up round, unmeasured and unchecked: the first round of a
	// process runs slower.
	progs, _ := d.round(len(d.samples) - 1)
	if _, err := runRound(d.runner, progs, mo); err != nil {
		return nil, err
	}
	clock.take()
	for i := 0; st.busy < dur || i == 0; i++ {
		progs, inputs := d.round(i)
		// Every round starts on a collected heap, outside the measured
		// time, so a collection the last round left due does not land in
		// this one by chance.
		runtime.GC()
		rr, err := runRound(d.runner, progs, mo)
		if err != nil {
			return nil, err
		}
		st.busy += rr.work
		st.ops += rr.ops
		lat := clock.take()
		st.rounds = append(st.rounds, round{rr.work, len(progs), rr.ops, lat})
		st.verdictLat = append(st.verdictLat, lat...)
		for j, out := range rr.outcomes {
			checkProgram(st, fmt.Sprintf("round %d", i), out)
			in := inputs[j]
			st.addUnit(in, out.wall)
			if out.ransom {
				st.ransom++
				if out.detected {
					st.detected++
					detect[in] = append(detect[in], ms(out.detectLat))
					damaged[in] = append(damaged[in], float64(out.damaged))
				}
			}
		}
	}
	st.detectLatMs = median(inputMedians(detect))
	st.filesLost = median(inputMedians(damaged))
	if traced {
		d.spans = mo.tracer.Spans()
	}
	return st, nil
}

// checkProgram counts one program run and records any way it differs from
// the reference: an error, a verdict other than expected, a failed
// rollback, or a file lost after recovery.
func checkProgram(st *runStats, where string, out programOutcome) {
	st.attempted++
	switch {
	case out.err != nil:
		st.fail("%s app %s: %v", where, out.name, out.err)
	case out.detected != out.expectDetect:
		st.fail("%s app %s: detected=%t, reference %t", where, out.name, out.detected, out.expectDetect)
	case out.rollbackFailures > 0:
		st.fail("%s app %s: %d pre-images failed to roll back", where, out.name, out.rollbackFailures)
	case out.lostAfter > 0:
		st.fail("%s app %s: %d files lost after recovery", where, out.name, out.lostAfter)
	}
}

func (d *desktop) probe() (map[string]float64, error) {
	pool, err := poolFromRunner(d.runner, poolFiles)
	if err != nil {
		return nil, err
	}
	progs, _ := d.round(0)
	p := &probe{
		runner:   d.runner,
		sample:   d.samples[d.first],
		programs: progs,
		sessions: generateSessions(pool, d.o.seed, probeSessions),
		spans:    [][]telemetry.Span{d.spans},
		dir:      d.o.dir,
	}
	return p.run()
}

func (d *desktop) close() {}
