package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the verdicts match the reference and that every metric
// BENCHMARK.json names is printed with its unit. It runs the workloads
// BENCHMARK.json does not declare too (desktop), and checks that every
// declared one exists.
//
//	cd perfbench && go test -run TestSmoke .
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %s", w.Name)
		}
	}
	names := make([]string, 0, len(setups))
	for name := range setups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 0.5, trace: trace,
				dir: t.TempDir(), ref: "reference", size: "tiny"}
			res, err := runBenchmark(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json names %d",
					name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
