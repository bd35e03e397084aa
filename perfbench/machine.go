package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/vfs"
)

// program is one process run on a protected machine: a benign application
// or a ransomware specimen.
type program struct {
	name   string
	ransom bool
	// expectDetect is the reference verdict.
	expectDetect bool
	run          func(fs *vfs.FS, procs *proc.Table, pid int, root string) error
}

func sampleProgram(s ransomware.Sample) program {
	return program{name: s.ID, ransom: true, expectDetect: true,
		run: func(fs *vfs.FS, procs *proc.Table, pid int, root string) error {
			_, err := s.Run(fs, pid, root, func() bool { return procs.Suspended(pid) })
			return err
		}}
}

func appProgram(w benign.Workload) program {
	return program{name: w.Name, expectDetect: w.ExpectDetection,
		run: func(fs *vfs.FS, _ *proc.Table, pid int, root string) error {
			if err := w.Run(fs, pid, root); err != nil && !errors.Is(err, cryptodrop.ErrSuspended) {
				return err
			}
			return nil
		}}
}

// machineOpts shape one round on a protected machine.
type machineOpts struct {
	// monitored attaches the monitor (enforcement on, recovery armed).
	monitored bool
	// tracer, when set, is the monitor's span tracer.
	tracer *cryptodrop.SpanTracer
	// clock times every op at the top altitude.
	clock *opClock
	// brackets, when set, splits each op into filter, backend and engine
	// intervals.
	brackets *brackets
}

// programOutcome is one program's result in a round.
type programOutcome struct {
	program
	wall     time.Duration
	detected bool
	err      error
	// detectLat is the time from the program's start to its detection.
	detectLat time.Duration
	// rollback is the time from detection to the program's return: the
	// recovery the detection triggered plus the unwinding of one op.
	rollback time.Duration
	// damaged counts files the recovery had to restore or recreate;
	// rollbackFailures the pre-images it could not write back.
	damaged, rollbackFailures int
	// lostAfter counts files whose content before the program is gone
	// after it and its recovery (ransomware only).
	lostAfter int
}

// roundResult is one round: every program in order on one fresh clone.
type roundResult struct {
	// work is the round's wall time less the benchmark's hashing.
	work     time.Duration
	outcomes []programOutcome
	ops      int64
	versions cryptodrop.VersionStoreStats
}

// runRound runs progs one after another, each as its own process, on a
// fresh clone of the runner's corpus.
func runRound(r *experiments.Runner, progs []program, mo machineOpts) (roundResult, error) {
	var rr roundResult
	root := r.Manifest().Root
	start := time.Now()
	var verify time.Duration
	fs := r.CloneFS()
	procs := proc.NewTable()
	var mon *cryptodrop.Monitor
	var vs *cryptodrop.VersionStore
	detected := make(map[int]time.Time)
	if mo.monitored {
		vs = cryptodrop.NewVersionStore(0)
		opts := []cryptodrop.Option{
			cryptodrop.WithRoot(root),
			cryptodrop.WithRecovery(vs),
			cryptodrop.WithDetectionHandler(func(d cryptodrop.Detection) { detected[d.PID] = time.Now() }),
		}
		if mo.tracer != nil {
			opts = append(opts, cryptodrop.WithSpanTracer(mo.tracer))
		}
		var err error
		if mon, err = cryptodrop.NewMonitor(fs, procs, opts...); err != nil {
			return rr, fmt.Errorf("monitor: %w", err)
		}
		if mo.clock != nil {
			if err := mon.Chain().Attach(altitudeTop, mo.clock); err != nil {
				return rr, err
			}
		}
		if b := mo.brackets; b != nil {
			if err := mon.Chain().Attach(altitudeTop+1, b.top()); err != nil {
				return rr, err
			}
			if err := mon.Chain().Attach(altitudeBottom, b.bottom()); err != nil {
				return rr, err
			}
		}
	}
	opsBefore := countOps(fs)
	pids := make([]int, len(progs))
	var before map[[32]byte]bool
	for i, p := range progs {
		if p.ransom {
			t := time.Now()
			before = contentHashes(fs)
			// Collect the garbage the round has left, the benchmark's own
			// hashing included, so a collection it would trigger does not
			// land in the specimen's detection latency by chance.
			runtime.GC()
			verify += time.Since(t)
		}
		pid := procs.Spawn(p.name)
		pids[i] = pid
		t0 := time.Now()
		err := p.run(fs, procs, pid, root)
		out := programOutcome{program: p, wall: time.Since(t0), err: err}
		if at, ok := detected[pid]; ok {
			out.detectLat = at.Sub(t0)
			out.rollback = t0.Add(out.wall).Sub(at)
		}
		if mon != nil {
			if rep, ok := mon.Report(pid); ok {
				out.detected = rep.Detected
			}
		}
		if p.ransom {
			t := time.Now()
			out.lostAfter = lostSince(before, fs)
			verify += time.Since(t)
		}
		rr.outcomes = append(rr.outcomes, out)
	}
	if mon != nil {
		for _, rec := range mon.Recoveries() {
			for i := range rr.outcomes {
				if pids[i] == rec.Group {
					rr.outcomes[i].damaged += rec.FilesRestored + rec.FilesRecreated
					rr.outcomes[i].rollbackFailures += rec.Failures
				}
			}
		}
		rr.versions = vs.Stats()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_, err := mon.Shutdown(ctx)
		cancel()
		if err != nil {
			return rr, fmt.Errorf("monitor shutdown: %w", err)
		}
	}
	rr.ops = countOps(fs) - opsBefore
	rr.work = time.Since(start) - verify
	return rr, nil
}

// countOps is the number of filesystem operations fs has completed.
func countOps(fs *vfs.FS) int64 {
	var n int64
	for k := vfs.OpCreate; k <= vfs.OpRename; k++ {
		n += fs.OpCount(k)
	}
	return n
}

// contentHashes hashes every file on fs.
func contentHashes(fs *vfs.FS) map[[32]byte]bool {
	out := make(map[[32]byte]bool)
	_ = fs.Walk("/", func(info vfs.FileInfo) error {
		if info.IsDir {
			return nil
		}
		if content, err := fs.ReadFileRaw(info.Path); err == nil {
			out[sha256.Sum256(content)] = true
		}
		return nil
	})
	return out
}

// lostSince counts contents in before that no file on fs holds any more —
// the paper's SHA-256 verification of files lost.
func lostSince(before map[[32]byte]bool, fs *vfs.FS) int {
	after := contentHashes(fs)
	lost := 0
	for h := range before {
		if !after[h] {
			lost++
		}
	}
	return lost
}
