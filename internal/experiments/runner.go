// Package experiments is the evaluation harness: it reruns every experiment
// of the paper's §V — Table I, Figures 3–6, the union-indicator analysis,
// the small-file rerun and the benign false-positive sweep — against the
// synthetic corpus, the simulated sample roster and the CryptoDrop monitor,
// and renders the same tables and series the paper reports.
package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/filter"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// Runner executes samples and workloads against clones of one corpus, so
// every run starts from an identical victim machine — the paper's
// revert-to-snapshot methodology (§V-A).
type Runner struct {
	base     *vfs.FS
	manifest *corpus.Manifest
	// baseHash maps each base file ID to its manifest SHA-256, so the
	// files-lost check hashes only what a sample changed.
	baseHash map[uint64][32]byte
	opts     []cryptodrop.Option
	// recorder, when set, is attached to the filter chain of every run
	// (forensic trace capture). Not safe to combine with parallel runs.
	recorder filter.Filter
	// tel/flight, when set, are shared across every run: all monitors
	// record into the one registry, so a live /metrics endpoint sees the
	// whole roster accumulate. Flight-recorder groups are per-run PIDs, so
	// traces from a shared recorder interleave across runs — use
	// EnableTelemetrySummaries for per-run attribution.
	tel    *telemetry.Registry
	flight *telemetry.FlightRecorder
	// perRunTelemetry gives every run a private registry and flight
	// recorder and folds a TelemetrySummary into its outcome.
	perRunTelemetry bool
	// recovery arms every subsequent run with a fresh unbounded version
	// store and the detect-then-recover coordinator, and folds the
	// rollback outcomes into SampleOutcome.Recoveries.
	recovery bool
}

// SetTraceRecorder attaches a filter (typically a trace.Recorder) to every
// subsequent run's chain at a high altitude.
func (r *Runner) SetTraceRecorder(f filter.Filter) { r.recorder = f }

// SetTelemetry shares one registry (and optional flight recorder) across
// every subsequent run, so a live endpoint (telemetry.Serve) can watch the
// roster's aggregate counters and histograms as it executes. Either argument
// may be nil.
func (r *Runner) SetTelemetry(reg *telemetry.Registry, fr *telemetry.FlightRecorder) {
	r.tel = reg
	r.flight = fr
}

// EnableTelemetrySummaries attaches a fresh registry and flight recorder to
// every subsequent run and records a per-run TelemetrySummary (indicator
// mix, measurement latency quantiles, detection trace) on its outcome.
// Takes precedence over SetTelemetry: per-run instruments are private by
// design, so PID-keyed flight-recorder traces cannot collide across runs.
func (r *Runner) EnableTelemetrySummaries() { r.perRunTelemetry = true }

// EnableRecovery arms every subsequent run with detect-then-recover: each
// sample gets a private, unbounded version store, so when the monitor
// convicts the sample its pre-images roll back before the run returns.
// FilesLost on the outcome then measures loss AFTER recovery; the per-group
// rollback accounting lands in SampleOutcome.Recoveries.
func (r *Runner) EnableRecovery() { r.recovery = true }

// NewRunner builds the corpus once per spec. opts are applied to every
// monitor the runner creates.
func NewRunner(spec corpus.Spec, opts ...cryptodrop.Option) (*Runner, error) {
	fs := vfs.New()
	m, err := corpus.Build(fs, spec)
	if err != nil {
		return nil, fmt.Errorf("experiments: build corpus: %w", err)
	}
	return newRunnerOn(fs, m, opts...)
}

// newRunnerOn builds a runner over a populated base filesystem and its
// manifest, mapping each manifest file's ID to its recorded hash (Stat
// only; nothing is hashed here).
func newRunnerOn(base *vfs.FS, m *corpus.Manifest, opts ...cryptodrop.Option) (*Runner, error) {
	baseHash := make(map[uint64][32]byte, len(m.Entries))
	for _, e := range m.Entries {
		info, err := base.Stat(e.Path)
		if err != nil {
			return nil, fmt.Errorf("experiments: stat corpus file: %w", err)
		}
		baseHash[info.FileID] = e.SHA256
	}
	return &Runner{base: base, manifest: m, baseHash: baseHash, opts: opts}, nil
}

// Manifest returns the corpus manifest.
func (r *Runner) Manifest() *corpus.Manifest { return r.manifest }

// CloneFS returns a fresh copy-on-write clone of the pristine corpus
// filesystem (for tree rendering and custom runs).
func (r *Runner) CloneFS() *vfs.FS { return r.base.Clone() }

// SampleOutcome is the result of one sample run.
type SampleOutcome struct {
	// Sample is the specimen that ran.
	Sample ransomware.Sample
	// Detected reports whether CryptoDrop flagged the sample.
	Detected bool
	// FilesLost counts corpus files whose original content no longer
	// exists anywhere on disk — the paper's SHA-256 verification (§V-A).
	// Only files the sample changed are hashed: a file still sharing the
	// pristine corpus's copy-on-write storage keeps its manifest hash, and
	// any file whose storage cannot be decided is hashed (see
	// countFilesLost).
	FilesLost int
	// DetectionOp is the engine's protected-operation index when the sample
	// was detected (Detection.OpIndex), or 0 if it never was.
	DetectionOp int64
	// Union reports whether union indication fired for the sample.
	Union bool
	// Score is the reputation score at the end of the run.
	Score float64
	// Report is the full scoreboard snapshot.
	Report cryptodrop.ProcessReport
	// Run is the sample's own accounting.
	Run ransomware.RunResult
	// Telemetry is the run's metrics summary; set only when the runner has
	// EnableTelemetrySummaries on.
	Telemetry *TelemetrySummary
	// Recoveries are the rollback outcomes for the run; set only when the
	// runner has EnableRecovery on. With recovery armed, FilesLost counts
	// loss after rollback.
	Recoveries []cryptodrop.RecoveryOutcome
}

// RunSample executes one sample on a fresh clone of the corpus under a
// fresh monitor.
func (r *Runner) RunSample(s ransomware.Sample) (SampleOutcome, error) {
	out, _, err := r.runSample(s)
	return out, err
}

// runSample is RunSample, also returning the run's filesystem as the sample
// left it (after any rollback).
func (r *Runner) runSample(s ransomware.Sample) (SampleOutcome, *vfs.FS, error) {
	fs := r.base.Clone()
	procs := proc.NewTable()
	runOpts := []cryptodrop.Option{cryptodrop.WithRoot(r.manifest.Root)}
	reg, fr := r.tel, r.flight
	if r.perRunTelemetry {
		reg = telemetry.NewRegistry()
		fr = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	}
	if reg != nil {
		runOpts = append(runOpts, cryptodrop.WithTelemetry(reg))
	}
	if fr != nil {
		runOpts = append(runOpts, cryptodrop.WithFlightRecorder(fr))
	}
	if r.recovery {
		runOpts = append(runOpts, cryptodrop.WithRecovery(cryptodrop.NewVersionStore(0)))
	}
	mon, err := cryptodrop.NewMonitor(fs, procs, append(runOpts, r.opts...)...)
	if err != nil {
		return SampleOutcome{}, nil, fmt.Errorf("experiments: monitor: %w", err)
	}
	if r.recorder != nil {
		if err := mon.Chain().Attach(500000, r.recorder); err != nil {
			return SampleOutcome{}, nil, fmt.Errorf("experiments: attach recorder: %w", err)
		}
	}
	pid := procs.Spawn(s.ID)
	res, err := s.Run(fs, pid, r.manifest.Root, func() bool { return procs.Suspended(pid) })
	if err != nil {
		return SampleOutcome{}, nil, fmt.Errorf("experiments: run %s: %w", s.ID, err)
	}
	lost, err := r.countFilesLost(fs)
	if err != nil {
		return SampleOutcome{}, nil, fmt.Errorf("experiments: run %s: %w", s.ID, err)
	}
	out := SampleOutcome{
		Sample:    s,
		FilesLost: lost,
		Run:       res,
	}
	if r.recovery {
		out.Recoveries = mon.Recoveries()
	}
	if rep, ok := mon.Report(pid); ok {
		out.Report = rep
		out.Detected = rep.Detected
		out.Union = rep.Union
		out.Score = rep.Score
	}
	for _, d := range mon.Detections() {
		if d.PID == pid {
			out.DetectionOp = d.OpIndex
			break
		}
	}
	if r.perRunTelemetry {
		out.Telemetry = summarizeTelemetry(reg.Snapshot(), fr, pid)
	}
	return out, fs, nil
}

// countFilesLost verifies the manifest hashes: an original file survives if
// content with its hash still exists anywhere on disk (so an unencrypted
// file merely parked elsewhere by a suspended Class B sample, or a
// duplicate of a destroyed file's content, is not lost). A file that still
// shares the pristine corpus's copy-on-write storage for its ID
// (vfs.FS.VisitRaw, decided by storage identity, never by content) holds
// its manifest content, so its known hash is used unhashed. Every other
// file — written, truncated, restored, created, or on storage whose
// sharing cannot be decided — is hashed from its aliased bytes, so the
// shortcut is conservative and the count is exactly the full re-hash's.
func (r *Runner) countFilesLost(fs *vfs.FS) (int, error) {
	surviving := make(map[[32]byte]bool, len(r.baseHash))
	err := fs.VisitRaw(r.base, func(f vfs.RawFile) {
		if h, ok := r.baseHash[f.ID]; ok && f.Shared {
			surviving[h] = true
			return
		}
		surviving[sha256.Sum256(f.Content)] = true
	})
	if err != nil {
		return 0, fmt.Errorf("experiments: files lost: %w", err)
	}
	lost := 0
	for _, e := range r.manifest.Entries {
		if !surviving[e.SHA256] {
			lost++
		}
	}
	return lost, nil
}

// BenignOutcome is the result of one benign workload run.
type BenignOutcome struct {
	// Workload is the application that ran.
	Workload benign.Workload
	// Score is the final reputation score.
	Score float64
	// Detected reports whether the workload was flagged.
	Detected bool
	// Union reports whether union indication fired.
	Union bool
	// Report is the full scoreboard snapshot.
	Report cryptodrop.ProcessReport
}

// RunBenign executes a workload on a fresh corpus clone. Enforcement is
// disabled so the full final score is measured even past the threshold
// (the Fig. 6 sweep needs scores, not stops).
func (r *Runner) RunBenign(w benign.Workload) (BenignOutcome, error) {
	fs := r.base.Clone()
	procs := proc.NewTable()
	mon, err := cryptodrop.NewMonitor(fs, procs, append([]cryptodrop.Option{
		cryptodrop.WithRoot(r.manifest.Root),
		cryptodrop.WithoutEnforcement(),
	}, r.opts...)...)
	if err != nil {
		return BenignOutcome{}, fmt.Errorf("experiments: monitor: %w", err)
	}
	pid := procs.Spawn(w.Name)
	if err := w.Run(fs, pid, r.manifest.Root); err != nil && !errors.Is(err, cryptodrop.ErrSuspended) {
		return BenignOutcome{}, fmt.Errorf("experiments: run %s: %w", w.Name, err)
	}
	out := BenignOutcome{Workload: w}
	if rep, ok := mon.Report(pid); ok {
		out.Report = rep
		out.Score = rep.Score
		out.Detected = rep.Detected
		out.Union = rep.Union
	}
	return out, nil
}

// RunRoster executes every sample in the roster. Samples are independent —
// each runs against its own pristine corpus clone and monitor — so when no
// trace recorder is attached and no progress callback needs in-order
// delivery, the roster fans out across GOMAXPROCS workers. Outcomes are
// returned in roster order and are identical to the sequential path. With a
// progress callback or recorder attached, execution stays sequential and
// progress is invoked after each sample in order.
func (r *Runner) RunRoster(roster []ransomware.Sample, progress func(i int, out SampleOutcome)) ([]SampleOutcome, error) {
	if r.recorder == nil && progress == nil && len(roster) > 1 {
		if w := runtime.GOMAXPROCS(0); w > 1 {
			return r.RunRosterParallel(roster, w, nil)
		}
	}
	return r.runRosterSeq(roster, progress)
}

func (r *Runner) runRosterSeq(roster []ransomware.Sample, progress func(i int, out SampleOutcome)) ([]SampleOutcome, error) {
	outcomes := make([]SampleOutcome, 0, len(roster))
	for i, s := range roster {
		out, err := r.RunSample(s)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, out)
		if progress != nil {
			progress(i, out)
		}
	}
	return outcomes, nil
}

// RunRosterParallel executes the roster across workers goroutines. Each
// sample still runs against its own pristine corpus clone, so results are
// identical to RunRoster (order preserved); the progress callback is
// serialised. workers ≤ 1 falls back to the sequential path.
func (r *Runner) RunRosterParallel(roster []ransomware.Sample, workers int, progress func(i int, out SampleOutcome)) ([]SampleOutcome, error) {
	if workers <= 1 {
		return r.runRosterSeq(roster, progress)
	}
	outcomes := make([]SampleOutcome, len(roster))
	errs := make([]error, len(roster))
	next := make(chan int)
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out, err := r.RunSample(roster[i])
				if err != nil {
					errs[i] = err
					continue
				}
				outcomes[i] = out
				if progress != nil {
					progressMu.Lock()
					progress(i, out)
					progressMu.Unlock()
				}
			}
		}()
	}
	for i := range roster {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}
