// Command cdbench regenerates every table and figure of the paper's
// evaluation (§V) against the synthetic corpus and simulated sample roster:
//
//	cdbench -exp table1     Table I   — 492 samples by family/class, median files lost
//	cdbench -exp fig3       Figure 3  — cumulative % of samples detected vs files lost
//	cdbench -exp fig4       Figure 4  — directory traversal patterns (TeslaCrypt/CTB-Locker/GPcode)
//	cdbench -exp fig5       Figure 5  — file-extension attack frequency
//	cdbench -exp fig6       Figure 6  — benign false positives vs threshold
//	cdbench -exp union      §V-B2    — union-indicator effectiveness
//	cdbench -exp smallfile  §V-C     — CTB-Locker rerun without sub-512B files
//	cdbench -exp perf       §V-H     — per-operation latency overhead
//	cdbench -exp ablation   DESIGN.md — engine design-choice ablations
//	cdbench -exp evasion    §III-F   — indicator-evasion strategies
//	cdbench -exp curves     §V-F     — reputation-score trajectories
//	cdbench -exp multiproc  §IV-A    — multi-process score dilution vs family scoring
//	cdbench -exp recovery   §VII      — files lost before vs after versioned-backend rollback
//	cdbench -exp paper      one roster run feeding Table I/Fig 3/Fig 5/union + the rest
//	cdbench -exp all        everything above
//
// By default the full paper scale is used (5,099 files, 511 directories,
// 492 samples); -quick runs a reduced configuration. With -check,
// -exp table1 also diffs the rendered Table I against the recorded
// full-scale run in paper_run.txt (read from the working directory) and
// exits non-zero on drift.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cryptodrop"
	"cryptodrop/internal/benign"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/ransomware"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cdbench:", err)
		os.Exit(1)
	}
}

type config struct {
	exp     string
	seed    int64
	files   int
	dirs    int
	scale   float64
	samples int
	verbose bool
	dotOut  string
	quick   bool
	workers int
	jsonOut string
	check   bool
	// Measurement-optimisation knobs (DESIGN.md "Measurement tiers and
	// memoization"); applied to the roster-driven experiments (table1,
	// fig3, fig4, fig5, fig6, union, paper).
	cacheMB     int
	tier        string
	sampleKB    int
	incremental bool
	// Wire-ingest load-generator knobs (-exp wire, -serve, -remote).
	remote       string
	serveAddr    string
	wireSessions int
	wireOps      int
	wireBatch    int
	wireBytes    int
	wireIters    int
}

// monitorOpts translates the measurement-optimisation flags into monitor
// options for the experiment runners. A positive -measure-cache-mb builds
// one cache shared by every monitor in the run (the fleet-dedup
// configuration; the cache is safe for concurrent engines).
func (cfg config) monitorOpts() ([]cryptodrop.Option, error) {
	var opts []cryptodrop.Option
	if cfg.cacheMB > 0 {
		opts = append(opts, cryptodrop.WithMeasureCache(cryptodrop.NewMeasureCache(int64(cfg.cacheMB)<<20)))
	}
	switch cfg.tier {
	case "", "full":
	case "sampled":
		opts = append(opts, cryptodrop.WithSampledTier(cfg.sampleKB<<10))
	default:
		return nil, fmt.Errorf("unknown tier %q (want full or sampled)", cfg.tier)
	}
	if cfg.incremental {
		opts = append(opts, cryptodrop.WithIncrementalEntropy())
	}
	return opts, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("cdbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.exp, "exp", "all", "experiment: table1|fig3|fig4|fig5|fig6|union|smallfile|perf|ablation|evasion|recovery|paper|wire|all")
	fs.Int64Var(&cfg.seed, "seed", 2016, "master seed for corpus and roster")
	fs.IntVar(&cfg.files, "files", corpus.DefaultFiles, "corpus file count")
	fs.IntVar(&cfg.dirs, "dirs", corpus.DefaultDirs, "corpus directory count")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "corpus file-size scale")
	fs.IntVar(&cfg.samples, "samples", 0, "cap roster size (0 = full 492)")
	fs.BoolVar(&cfg.verbose, "v", false, "progress output")
	fs.StringVar(&cfg.dotOut, "dot", "", "also write Fig. 4 Graphviz files to this directory")
	fs.BoolVar(&cfg.quick, "quick", false, "reduced scale (800 files, 80 dirs, 1 sample per family/class)")
	fs.IntVar(&cfg.workers, "workers", runtime.NumCPU(), "parallel sample workers")
	fs.StringVar(&cfg.jsonOut, "json", "", "also export roster outcomes as JSON to this file")
	fs.BoolVar(&cfg.check, "check", false, "with -exp table1: diff Table I against paper_run.txt and fail on drift")
	fs.IntVar(&cfg.cacheMB, "measure-cache-mb", 0, "measurement memo cache shared across the run's monitors, in MiB (0 = off)")
	fs.StringVar(&cfg.tier, "tier", "full", "measurement tier: full, or sampled for the two-tier ladder")
	fs.IntVar(&cfg.sampleKB, "sample-kb", 0, "sampled-tier header sample size in KiB (0 = default 8)")
	fs.BoolVar(&cfg.incremental, "incremental", false, "maintain incremental per-file entropy histograms")
	fs.StringVar(&cfg.serveAddr, "serve", "", "run the wire-ingest service half on this address and block (two-process benchmarking)")
	fs.StringVar(&cfg.remote, "remote", "", "drive -exp wire against a running service at this base URL instead of an embedded one")
	fs.IntVar(&cfg.wireSessions, "wire-sessions", 256, "concurrent wire sessions per trial (-exp wire)")
	fs.IntVar(&cfg.wireOps, "wire-ops", 100, "ops streamed per session (-exp wire)")
	fs.IntVar(&cfg.wireBatch, "wire-batch", 8, "ops per frame/submit batch (-exp wire)")
	fs.IntVar(&cfg.wireBytes, "wire-bytes", 4096, "staged content bytes per op (-exp wire)")
	fs.IntVar(&cfg.wireIters, "wire-iters", 5, "interleaved A/B iterations (-exp wire)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.serveAddr != "" {
		return runServe(cfg.serveAddr)
	}
	if cfg.check && cfg.exp != "table1" {
		return fmt.Errorf("-check applies to -exp table1 only")
	}
	if cfg.quick {
		cfg.files, cfg.dirs, cfg.scale = 800, 80, 0.3
	}
	spec := corpus.Spec{Seed: cfg.seed, Files: cfg.files, Dirs: cfg.dirs, SizeScale: cfg.scale}
	roster := buildRoster(cfg)

	experimentsByName := map[string]func(config, corpus.Spec, []ransomware.Sample) error{
		"table1":    expTable1,
		"fig3":      expFig3,
		"fig4":      expFig4,
		"fig5":      expFig5,
		"fig6":      expFig6,
		"union":     expUnion,
		"smallfile": expSmallFile,
		"perf":      expPerf,
		"ablation":  expAblation,
		"evasion":   expEvasion,
		"multiproc": expMultiProc,
		"curves":    expCurves,
		"recovery":  expRecovery,
		"paper":     expPaper,
		"wire":      expWire,
	}
	if cfg.exp == "all" {
		for _, name := range []string{"table1", "fig3", "fig4", "fig5", "fig6", "union", "smallfile", "perf", "ablation", "evasion", "curves", "multiproc", "recovery"} {
			fmt.Printf("\n════════ %s ════════\n", name)
			if err := experimentsByName[name](cfg, spec, roster); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experimentsByName[cfg.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", cfg.exp)
	}
	return fn(cfg, spec, roster)
}

// buildRoster returns the evaluation roster per config.
func buildRoster(cfg config) []ransomware.Sample {
	roster := ransomware.Roster(cfg.seed)
	if cfg.quick && cfg.samples == 0 {
		seen := make(map[string]bool)
		var out []ransomware.Sample
		for _, s := range roster {
			key := s.Profile.Family + s.Profile.Class.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, s)
			}
		}
		return out
	}
	if cfg.samples > 0 && cfg.samples < len(roster) {
		return roster[:cfg.samples]
	}
	return roster
}

// runRoster executes the roster with optional progress output.
func runRoster(cfg config, spec corpus.Spec, roster []ransomware.Sample) ([]experiments.SampleOutcome, error) {
	opts, err := cfg.monitorOpts()
	if err != nil {
		return nil, err
	}
	r, err := experiments.NewRunner(spec, opts...)
	if err != nil {
		return nil, err
	}
	var progress func(int, experiments.SampleOutcome)
	if cfg.verbose {
		progress = func(i int, out experiments.SampleOutcome) {
			fmt.Fprintf(os.Stderr, "[%4d/%d] %-32s lost=%-4d union=%-5v score=%.1f\n",
				i+1, len(roster), out.Sample.ID, out.FilesLost, out.Union, out.Score)
		}
	}
	outcomes, err := r.RunRosterParallel(roster, cfg.workers, progress)
	if err != nil {
		return nil, err
	}
	if cfg.jsonOut != "" {
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := experiments.WriteOutcomesJSON(f, outcomes); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "outcomes exported to %s\n", cfg.jsonOut)
	}
	return outcomes, nil
}

// expPaper runs the roster once and renders every roster-derived artefact
// (Table I, Fig. 3, Fig. 5, union analysis) from the same outcomes, then
// the remaining experiments — the cheapest way to a full reproduction.
func expPaper(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	fmt.Println("\n════════ Table I ════════")
	if err := experiments.BuildTable1(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 3 ════════")
	if err := experiments.BuildFig3(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 5 ════════")
	if err := experiments.RenderFig5(os.Stdout, experiments.BuildFig5(outcomes)); err != nil {
		return err
	}
	fmt.Println("\n════════ Union indication (§V-B2) ════════")
	if err := experiments.BuildUnionStats(outcomes).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 4 ════════")
	if err := expFig4(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Figure 6 ════════")
	if err := expFig6(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Small-file rerun (§V-C) ════════")
	if err := expSmallFile(cfg, spec, roster); err != nil {
		return err
	}
	fmt.Println("\n════════ Performance (§V-H) ════════")
	return expPerf(cfg, spec, roster)
}

// expRecovery runs the detect-then-recover comparison: the roster twice,
// detection-only vs versioned-backend rollback, rendering median files lost
// before and after recovery per family and behavioural class.
func expRecovery(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	opts, err := cfg.monitorOpts()
	if err != nil {
		return err
	}
	tbl, err := experiments.RunRecoveryExperiment(spec, roster, opts...)
	if err != nil {
		return err
	}
	return tbl.Render(os.Stdout)
}

// paperRunPath is the recorded full-scale run -check compares against,
// relative to the working directory.
const paperRunPath = "paper_run.txt"

func expTable1(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := experiments.BuildTable1(outcomes).Render(&buf); err != nil {
		return err
	}
	if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
		return err
	}
	if !cfg.check {
		return nil
	}
	ref, err := os.ReadFile(paperRunPath)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return checkTable1(buf.String(), string(ref))
}

// checkTable1 compares a rendered Table I with the "Table I" section of a
// recorded cdbench run, naming every row that differs.
func checkTable1(got, recorded string) error {
	const header = "════════ Table I ════════\n"
	i := strings.Index(recorded, header)
	if i < 0 {
		return fmt.Errorf("check: no Table I section in %s", paperRunPath)
	}
	want := recorded[i+len(header):]
	if j := strings.Index(want, "\n\n"); j >= 0 {
		want = want[:j+1]
	}
	if got == want {
		return nil
	}
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	var diff strings.Builder
	for k := 0; k < len(gl) || k < len(wl); k++ {
		var g, w string
		if k < len(gl) {
			g = gl[k]
		}
		if k < len(wl) {
			w = wl[k]
		}
		if g != w {
			fmt.Fprintf(&diff, "\n  got:  %s\n  want: %s", g, w)
		}
	}
	return fmt.Errorf("check: Table I drifted from %s:%s", paperRunPath, diff.String())
}

func expFig3(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.BuildFig3(outcomes).Render(os.Stdout)
}

func expFig4(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	opts, err := cfg.monitorOpts()
	if err != nil {
		return err
	}
	r, err := experiments.NewRunner(spec, opts...)
	if err != nil {
		return err
	}
	picks := []struct {
		family string
		class  ransomware.Class
	}{
		{"TeslaCrypt", ransomware.ClassA},
		{"CTB-Locker", ransomware.ClassB},
		{"GPcode", ransomware.ClassC},
	}
	for _, p := range picks {
		var sample *ransomware.Sample
		for i := range roster {
			if roster[i].Profile.Family == p.family && roster[i].Profile.Class == p.class {
				sample = &roster[i]
				break
			}
		}
		if sample == nil {
			// Fall back to the full roster (quick mode may lack the combo).
			full := ransomware.Roster(cfg.seed)
			for i := range full {
				if full[i].Profile.Family == p.family && full[i].Profile.Class == p.class {
					sample = &full[i]
					break
				}
			}
		}
		if sample == nil {
			return fmt.Errorf("no %s class %v sample", p.family, p.class)
		}
		out, err := r.RunSample(*sample)
		if err != nil {
			return err
		}
		tree, err := experiments.BuildFig4Tree(r.CloneFS(), r.Manifest().Root, out)
		if err != nil {
			return err
		}
		if err := tree.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if cfg.dotOut != "" {
			if err := writeDOT(cfg.dotOut, p.family, tree); err != nil {
				return err
			}
		}
	}
	return nil
}

func expFig5(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.RenderFig5(os.Stdout, experiments.BuildFig5(outcomes))
}

func expFig6(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	opts, err := cfg.monitorOpts()
	if err != nil {
		return err
	}
	r, err := experiments.NewRunner(spec, opts...)
	if err != nil {
		return err
	}
	var apps []experiments.BenignOutcome
	for _, w := range benign.Detailed() {
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "running %s...\n", w.Name)
		}
		out, err := r.RunBenign(w)
		if err != nil {
			return err
		}
		apps = append(apps, out)
	}
	thresholds := []float64{0, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250}
	return experiments.BuildFig6(apps, thresholds).Render(os.Stdout)
}

func expUnion(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	outcomes, err := runRoster(cfg, spec, roster)
	if err != nil {
		return err
	}
	return experiments.BuildUnionStats(outcomes).Render(os.Stdout)
}

func expSmallFile(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunSmallFileExperiment(spec, cfg.seed)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expPerf(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	perfSpec := spec
	if perfSpec.Files > 800 {
		perfSpec.Files, perfSpec.Dirs = 800, 80
	}
	res, err := experiments.RunPerf(perfSpec, 200)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expAblation(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	ablRoster := roster
	if !cfg.quick && cfg.samples == 0 && len(roster) > 100 {
		// Ablations rerun the roster seven times; subsample for tractability.
		var out []ransomware.Sample
		for i := 0; i < len(roster); i += 5 {
			out = append(out, roster[i])
		}
		ablRoster = out
		fmt.Printf("(ablations use a 1-in-5 subsample: %d samples)\n", len(ablRoster))
	}
	var progress func(string)
	if cfg.verbose {
		progress = func(v string) { fmt.Fprintf(os.Stderr, "ablation variant: %s\n", v) }
	}
	res, err := experiments.RunAblations(spec, ablRoster, progress)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expEvasion(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunEvasionExperiment(spec, cfg.seed)
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expMultiProc(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunMultiProcessExperiment(spec, cfg.seed, []int{1, 4, 16})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func expCurves(cfg config, spec corpus.Spec, roster []ransomware.Sample) error {
	res, err := experiments.RunScoreCurves(spec, cfg.seed,
		[]string{"TeslaCrypt", "CTB-Locker", "Xorist"},
		[]string{"Microsoft Word", "Microsoft Excel", "Adobe Lightroom"})
	if err != nil {
		return err
	}
	return res.Render(os.Stdout)
}

func writeDOT(dir, family string, tree experiments.Fig4Tree) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s/fig4_%s.dot", dir, family))
	if err != nil {
		return err
	}
	defer f.Close()
	return tree.RenderDOT(f)
}
