package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// verdictRecord is one sample's pinned verdict in the quick-roster golden.
type verdictRecord struct {
	ID          string             `json:"id"`
	Detected    bool               `json:"detected"`
	FilesLost   int                `json:"filesLost"`
	DetectionOp int64              `json:"detectionOp"`
	Union       bool               `json:"union"`
	Indicators  map[string]float64 `json:"indicators"`
}

const quickRosterGolden = "testdata/quick_roster.golden.json"

// TestQuickRosterGolden pins every reduced-roster verdict — detected, files
// lost, the op index detection landed on, union indication and the
// per-indicator point totals — against a checked-in golden, so "verdicts
// unchanged" is mechanical and any drift names the samples that moved.
//
// Regenerate with: go test ./internal/experiments -run TestQuickRosterGolden -update
func TestQuickRosterGolden(t *testing.T) {
	r, err := NewRunner(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := r.RunRoster(reducedRoster(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]verdictRecord, len(outcomes))
	for i, o := range outcomes {
		got[i] = verdictRecord{
			ID:          o.Sample.ID,
			Detected:    o.Detected,
			FilesLost:   o.FilesLost,
			DetectionOp: o.DetectionOp,
			Union:       o.Union,
			Indicators:  make(map[string]float64, len(o.Report.IndicatorPoints)),
		}
		for ind, pts := range o.Report.IndicatorPoints {
			got[i].Indicators[ind.String()] = pts
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(quickRosterGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickRosterGolden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d samples)", quickRosterGolden, len(got))
		return
	}
	data, err := os.ReadFile(quickRosterGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []verdictRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByID := make(map[string]verdictRecord, len(want))
	for _, w := range want {
		wantByID[w.ID] = w
	}
	for _, g := range got {
		w, ok := wantByID[g.ID]
		if !ok {
			t.Errorf("%s: not in golden", g.ID)
			continue
		}
		delete(wantByID, g.ID)
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s moved:\n got  %s\n want %s", g.ID, gj, wj)
		}
	}
	for id := range wantByID {
		t.Errorf("%s: in golden but not run", id)
	}
}
