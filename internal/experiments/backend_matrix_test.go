package experiments

import (
	"reflect"
	"testing"

	"cryptodrop"
	"cryptodrop/internal/corpus"
	"cryptodrop/internal/proc"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// matrixResult is everything one full-stack run can observe: the final
// scoreboard, the detection stream, the flight-recorder trace and the
// paper's files-lost count.
type matrixResult struct {
	report cryptodrop.ProcessReport
	dets   []cryptodrop.Detection
	trace  telemetry.Trace
	lost   int
}

// TestBackendMatrixConformance pins storage-layer neutrality end to end: the
// same class A, B and C attacks run against (a) the default in-memory
// backend, (b) a local OS-directory backend, and (c) a mounted mix (memory
// root with the whole victim tree on a local mount) must produce bit-identical
// scoreboards, detections, flight-recorder traces and files-lost counts. The
// backend is below every seam the engine observes, so nothing may differ.
func TestBackendMatrixConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full corpus builds and attack runs")
	}
	spec := corpus.Spec{Seed: 2016, Files: 200, Dirs: 20, SizeScale: 0.25}
	classes := map[ransomware.Class]ransomware.Sample{}
	for _, s := range ransomware.Roster(spec.Seed) {
		if _, ok := classes[s.Profile.Class]; !ok {
			classes[s.Profile.Class] = s
		}
	}
	configs := []struct {
		name string
		fs   func(t *testing.T) *vfs.FS
	}{
		{"memory", func(t *testing.T) *vfs.FS { return vfs.New() }},
		{"local", func(t *testing.T) *vfs.FS { return vfs.NewWith(vfs.NewLocal(t.TempDir())) }},
		{"mounted", func(t *testing.T) *vfs.FS {
			fs := vfs.New()
			if err := fs.Mount("/Users/victim", vfs.NewLocal(t.TempDir())); err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	}
	runOn := func(t *testing.T, fs *vfs.FS, sample ransomware.Sample) matrixResult {
		m, err := corpus.Build(fs, spec)
		if err != nil {
			t.Fatal(err)
		}
		procs := proc.NewTable()
		fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
		mon, err := cryptodrop.NewMonitor(fs, procs,
			cryptodrop.WithRoot(m.Root), cryptodrop.WithFlightRecorder(fr))
		if err != nil {
			t.Fatal(err)
		}
		pid := procs.Spawn(sample.ID)
		if _, err := sample.Run(fs, pid, m.Root, func() bool { return procs.Suspended(pid) }); err != nil {
			t.Fatal(err)
		}
		rep, ok := mon.Report(pid)
		if !ok {
			t.Fatalf("no report for pid %d", pid)
		}
		return matrixResult{
			report: rep,
			dets:   mon.Detections(),
			trace:  fr.Trace(pid),
			lost:   fullHashLost(fs, m),
		}
	}
	for class, sample := range classes {
		sample := sample
		// Park Class B moves on the victim's own volume so every config keeps
		// the rename inside one mount — the mounted config would otherwise
		// reject a Documents -> /Windows/Temp rename with ErrCrossMount and
		// the op streams would diverge.
		sample.Profile.TempDir = "/Users/victim/tmp"
		t.Run(class.String(), func(t *testing.T) {
			var ref matrixResult
			for i, cfg := range configs {
				got := runOn(t, cfg.fs(t), sample)
				if len(got.dets) != 1 {
					t.Fatalf("%s: detections = %d, want 1", cfg.name, len(got.dets))
				}
				if len(got.trace.Events) == 0 {
					t.Fatalf("%s: empty flight trace", cfg.name)
				}
				if i == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(ref.report, got.report) {
					t.Errorf("scoreboard diverges on %s:\n memory: %+v\n %s: %+v",
						cfg.name, ref.report, cfg.name, got.report)
				}
				if !reflect.DeepEqual(ref.dets, got.dets) {
					t.Errorf("detections diverge on %s:\n memory: %+v\n %s: %+v",
						cfg.name, ref.dets, cfg.name, got.dets)
				}
				if !reflect.DeepEqual(ref.trace, got.trace) {
					t.Errorf("flight trace diverges on %s (memory %d events, %s %d events)",
						cfg.name, len(ref.trace.Events), cfg.name, len(got.trace.Events))
				}
				if ref.lost != got.lost {
					t.Errorf("files lost diverge on %s: memory %d, %s %d",
						cfg.name, ref.lost, cfg.name, got.lost)
				}
			}
		})
	}
}
