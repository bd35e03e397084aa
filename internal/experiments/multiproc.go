package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cryptodrop"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
)

// MultiProcRow is one worker-count configuration's outcome under both
// scoring modes.
type MultiProcRow struct {
	// Workers is the number of child processes the attack rotated over.
	Workers int
	// PerProcessLost is files lost with per-process scoring.
	PerProcessLost int
	// PerProcessDetected reports any detection under per-process scoring.
	PerProcessDetected bool
	// FamilyLost is files lost with family-aggregated scoring.
	FamilyLost int
	// FamilyDetected reports detection under family scoring.
	FamilyDetected bool
}

// MultiProcResult is the score-dilution experiment: a dropper spawns N
// workers and spreads the attack across them. Per-process scoring dilutes
// each worker's reputation N-fold; family scoring (the paper's "process or
// family of processes", §IV-A) is immune.
type MultiProcResult struct {
	// Rows are per-worker-count outcomes.
	Rows []MultiProcRow
	// CorpusSize is the number of victim files available.
	CorpusSize int
}

// RunMultiProcessExperiment runs a Class A specimen spread over each worker
// count, under per-process and family scoring.
func RunMultiProcessExperiment(spec corpus.Spec, rosterSeed int64, workerCounts []int) (MultiProcResult, error) {
	var sample ransomware.Sample
	for _, s := range ransomware.Roster(rosterSeed) {
		if s.Profile.Family == "Filecoder" && s.Profile.Class == ransomware.ClassA {
			sample = s
			break
		}
	}
	if sample.ID == "" {
		return MultiProcResult{}, fmt.Errorf("experiments: no Filecoder Class A sample")
	}
	base, err := NewRunner(spec)
	if err != nil {
		return MultiProcResult{}, err
	}
	res := MultiProcResult{CorpusSize: len(base.Manifest().Entries)}

	run := func(workers int, family bool) (lost int, detected bool, err error) {
		fs := base.CloneFS()
		procs := proc.NewTable()
		opts := []cryptodrop.Option{cryptodrop.WithRoot(base.Manifest().Root)}
		if family {
			opts = append(opts, cryptodrop.WithFamilyScoring())
		}
		mon, err := cryptodrop.NewMonitor(fs, procs, opts...)
		if err != nil {
			return 0, false, err
		}
		dropper := procs.Spawn(sample.ID + "-dropper")
		pids := make([]int, workers)
		for i := range pids {
			pids[i] = procs.SpawnChild(fmt.Sprintf("worker%d.exe", i), dropper)
		}
		if _, err := sample.RunAsFamily(fs, pids, base.Manifest().Root, procs.Suspended); err != nil {
			return 0, false, err
		}
		lost, err = base.countFilesLost(fs)
		return lost, len(mon.Detections()) > 0, err
	}

	for _, workers := range workerCounts {
		row := MultiProcRow{Workers: workers}
		if row.PerProcessLost, row.PerProcessDetected, err = run(workers, false); err != nil {
			return res, err
		}
		if row.FamilyLost, row.FamilyDetected, err = run(workers, true); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the comparison table.
func (r MultiProcResult) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Workers\tPer-process scoring\tFamily scoring\t(corpus: %d files)\n", r.CorpusSize)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t\n", row.Workers,
			describeOutcome(row.PerProcessLost, row.PerProcessDetected),
			describeOutcome(row.FamilyLost, row.FamilyDetected))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "\nSpreading the attack over N workers dilutes each per-process score\nN-fold; aggregating the scoreboard by process family restores detection.")
	return err
}

func describeOutcome(lost int, detected bool) string {
	if detected {
		return fmt.Sprintf("detected, %d lost", lost)
	}
	return fmt.Sprintf("EVADED, %d lost", lost)
}
