package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runExp drives the CLI entry point at a tiny scale.
func runExp(t *testing.T, exp string, extra ...string) {
	t.Helper()
	args := append([]string{
		"-exp", exp, "-files", "250", "-dirs", "30", "-scale", "0.25",
		"-samples", "6", "-workers", "2",
	}, extra...)
	if err := run(args); err != nil {
		t.Fatalf("cdbench -exp %s: %v", exp, err)
	}
}

func TestCLITable1(t *testing.T)    { runExp(t, "table1") }
func TestCLIFig3(t *testing.T)      { runExp(t, "fig3") }
func TestCLIFig5(t *testing.T)      { runExp(t, "fig5") }
func TestCLIUnion(t *testing.T)     { runExp(t, "union") }
func TestCLISmallFile(t *testing.T) { runExp(t, "smallfile") }
func TestCLIEvasion(t *testing.T)   { runExp(t, "evasion") }

func TestCLIFig4WritesDOT(t *testing.T) {
	dir := t.TempDir()
	runExp(t, "fig4", "-dot", dir)
}

func TestCLIPerf(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep")
	}
	runExp(t, "perf")
}

func TestCLIUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "nonsense"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestCLIBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestBuildRosterQuickDedupes(t *testing.T) {
	cfg := config{quick: true, seed: 1}
	roster := buildRoster(cfg)
	if len(roster) != 25 { // one per family/class combination
		t.Fatalf("quick roster = %d samples, want 25", len(roster))
	}
	cfg = config{seed: 1, samples: 10}
	if got := len(buildRoster(cfg)); got != 10 {
		t.Fatalf("capped roster = %d", got)
	}
	cfg = config{seed: 1}
	if got := len(buildRoster(cfg)); got != 492 {
		t.Fatalf("full roster = %d", got)
	}
}

// TestCheckTable1 pins the -check comparison: the Table I section of a
// recorded run matches itself and names each drifted row.
func TestCheckTable1(t *testing.T) {
	table := "Family  Median FL\nTeslaCrypt  8.0\nXorist  7.0\n"
	recorded := "\n════════ Table I ════════\n" + table + "\n════════ Figure 3 ════════\nfig\n"
	if err := checkTable1(table, recorded); err != nil {
		t.Fatalf("identical table: %v", err)
	}
	drifted := strings.Replace(table, "Xorist  7.0", "Xorist  9.0", 1)
	err := checkTable1(drifted, recorded)
	if err == nil || !strings.Contains(err.Error(), "got:  Xorist  9.0") || strings.Contains(err.Error(), "TeslaCrypt") {
		t.Fatalf("drifted table: err = %v", err)
	}
	if err := checkTable1(table, "no table here"); err == nil {
		t.Fatal("missing section accepted")
	}
}

// TestCLITable1Check drives -check end to end: a reduced run cannot match
// the recorded full-scale Table I, so it must fail loudly; -check on any
// other experiment is refused.
func TestCLITable1Check(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// -check reads paper_run.txt from the working directory: run from the
	// repository root.
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	err = run([]string{"-exp", "table1", "-files", "250", "-dirs", "30", "-scale", "0.25",
		"-samples", "6", "-workers", "2", "-check"})
	if err == nil || !strings.Contains(err.Error(), "Table I drifted") {
		t.Fatalf("reduced run passed -check: %v", err)
	}
	if err := run([]string{"-exp", "fig3", "-check"}); err == nil {
		t.Fatal("-check accepted for fig3")
	}
}
