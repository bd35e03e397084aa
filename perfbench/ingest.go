package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cryptodrop/internal/corpus"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/host"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/server"
	"cryptodrop/internal/server/client"
	srvconfig "cryptodrop/internal/server/config"
	"cryptodrop/internal/telemetry"
)

const (
	// tenant and token name the service's one tenant.
	tenant = "bench"
	token  = "bench-token"
	// ingestSessions is how many distinct sessions are generated; the
	// producers cycle through them under fresh session names, so the same
	// content recurs across sessions as it does across a fleet. 16 of them
	// are ransomware, dealing each ransomware-pool file twice, and the 112
	// benign ones deal each benign-pool file twice.
	ingestSessions = 128
	// checkpointEvery is the durable host's checkpoint interval in ops.
	checkpointEvery = 256
)

// ingestSpec is the content corpus: paper-size files, fewer of them.
func ingestSpec(size string) corpus.Spec {
	if size == "tiny" {
		return corpus.Spec{Seed: corpusSeed, Files: 440, Dirs: 44, SizeScale: 0.05}
	}
	return corpus.Spec{Seed: corpusSeed, Files: 512, Dirs: 52, SizeScale: 1}
}

// service is one in-process cdserver over a durable host on loopback TCP.
type service struct {
	host    *host.Host
	srv     *server.Server
	http    *http.Server
	client  *client.Client
	ckptDir string
	reg     *telemetry.Registry
	served  chan struct{}
}

// startService starts a server whose host checkpoints into dir. With
// telemetry on, the server and host record into one registry.
func startService(dir string, withTelemetry bool) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service dir: %w", err)
	}
	cfgPath := filepath.Join(dir, "tenants.json")
	cfg := fmt.Sprintf(`{"tenants": [{"name": %q, "token": %q}]}`, tenant, token)
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		return nil, fmt.Errorf("write tenant config: %w", err)
	}
	loader, err := srvconfig.Load(cfgPath)
	if err != nil {
		return nil, err
	}
	s := &service{ckptDir: filepath.Join(dir, "checkpoints"), served: make(chan struct{})}
	if withTelemetry {
		s.reg = telemetry.NewRegistry()
	}
	s.host = host.New(host.Config{
		CheckpointDir:   s.ckptDir,
		CheckpointEvery: checkpointEvery,
		Telemetry:       s.reg,
	})
	s.srv = server.New(s.host, loader, server.Options{Telemetry: s.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	s.client = client.New("http://"+ln.Addr().String(), token)
	return s, nil
}

// stop closes the listener, waits for the serve loop and drains the host.
func (s *service) stop() {
	_ = s.http.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, _ = s.srv.Drain(ctx) // every session was closed already; nothing to report
}

// sessionResult is one completed session.
type sessionResult struct {
	gen       int
	name      string
	wall      time.Duration
	batchLat  []time.Duration
	detectLat time.Duration
	filesLost int
	detected  bool
	ops       int
	err       error
}

// runSession streams one generated session: Submit then Flush per batch,
// then closes it on the host (drain and final checkpoint) and removes its
// checkpoint files.
func (s *service) runSession(ctx context.Context, name string, g *genSession) sessionResult {
	r := sessionResult{name: name}
	t0 := time.Now()
	st, err := s.client.Open(ctx, name)
	if err != nil {
		r.err = fmt.Errorf("open: %w", err)
		return r
	}
	var first time.Time
	for b, batch := range g.batches {
		tb := time.Now()
		if b == 0 {
			first = tb
		}
		if err := st.Submit(ctx, batch...); err != nil {
			r.err = fmt.Errorf("batch %d refused after retries: %w", b, err)
			return r
		}
		ack, err := st.Flush(ctx)
		if err != nil {
			r.err = fmt.Errorf("batch %d flush: %w", b, err)
			return r
		}
		r.batchLat = append(r.batchLat, time.Since(tb))
		r.ops += len(batch)
		if ack.Detections > 0 && !r.detected {
			r.detected = true
			r.detectLat = time.Since(first)
			if g.ransom {
				r.filesLost = g.filesThrough[b]
			}
		}
	}
	id := tenant + "/" + name
	rep, err := s.host.CloseSession(ctx, id)
	r.wall = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("close: %w", err)
		return r
	}
	if len(rep.Detections) > 0 {
		r.detected = true
	}
	// Host session IDs containing '/' are stored under a hex file name.
	base := filepath.Join(s.ckptDir, fmt.Sprintf("x%x", id))
	_ = os.Remove(base + ".ckpt") // stale files of a closed session; absent is fine
	_ = os.Remove(base + ".wal")
	return r
}

// ingest drives nproc closed-loop client streams against the service.
type ingest struct {
	o        options
	runner   *experiments.Runner
	sample   ransomware.Sample
	sessions []genSession
	svc      *service
	// names numbers sessions across phases, so no name is reused.
	names atomic.Int64
}

func setupIngest(o options) (workload, error) {
	runner, err := experiments.NewRunner(ingestSpec(o.size))
	if err != nil {
		return nil, err
	}
	pool, err := poolFromRunner(runner, poolFiles)
	if err != nil {
		return nil, err
	}
	in := &ingest{o: o, runner: runner, sessions: generateSessions(pool, o.seed, ingestSessions)}
	in.sample = classSample(0)
	if in.svc, err = in.startWarm(o.dir, false); err != nil {
		return nil, err
	}
	return in, nil
}

// startWarm starts a service and warms its code paths, opening one pooled
// connection per producer with a throwaway benign session each, run
// concurrently.
func (in *ingest) startWarm(dir string, withTelemetry bool) (*service, error) {
	svc, err := startService(dir, withTelemetry)
	if err != nil {
		return nil, err
	}
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		g := &in.sessions[w%len(in.sessions)]
		if g.ransom {
			g = &in.sessions[(w+1)%len(in.sessions)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = svc.runSession(context.Background(), fmt.Sprintf("warmup-%d", w), g).err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			svc.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return svc, nil
}

func (in *ingest) run(d time.Duration, traced bool) (*runStats, error) {
	svc := in.svc
	if in.o.trace {
		// The overhead comparison runs each phase on a fresh warmed service,
		// so neither inherits the other's sessions, ledger or heap. The
		// engines the server builds take no span tracer, so the traced
		// phase switches on the server and host telemetry registries.
		phase := "untraced"
		if traced {
			phase = "traced"
		}
		var err error
		if svc, err = in.startWarm(filepath.Join(in.o.dir, phase), traced); err != nil {
			return nil, err
		}
		defer svc.stop()
	}
	ctx := context.Background()
	workers := runtime.NumCPU()
	var mu sync.Mutex
	var results []sessionResult
	start := time.Now()
	pc := newPassCounter(len(in.sessions), d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := pc.take()
				if !ok {
					return
				}
				n := in.names.Add(1) - 1
				gi := i % len(in.sessions)
				r := svc.runSession(ctx, fmt.Sprintf("s%07d", n), &in.sessions[gi])
				r.gen = gi
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := &runStats{busy: time.Since(start)}
	detect := make(map[int][]float64)
	var lost []float64
	for _, r := range results {
		g := &in.sessions[r.gen]
		st.attempted++
		if r.err != nil {
			st.fail("stream %s: %v", r.name, r.err)
			continue
		}
		st.addUnit(r.gen, r.wall)
		st.verdictLat = append(st.verdictLat, r.batchLat...)
		st.ops += int64(r.ops)
		switch {
		case g.ransom:
			st.ransom++
			if !r.detected {
				st.fail("stream %s: ransomware session never detected", r.name)
				continue
			}
			st.detected++
			detect[r.gen] = append(detect[r.gen], ms(r.detectLat))
			lost = append(lost, float64(r.filesLost))
		case r.detected:
			st.fail("stream %s: benign session flagged", r.name)
		}
	}
	if st.ransom == 0 {
		return nil, fmt.Errorf("ingest: %v ran no ransomware session", d)
	}
	st.detectLatMs = median(inputMedians(detect))
	st.filesLost = median(lost)
	return st, nil
}

func (in *ingest) probe() (map[string]float64, error) {
	p := &probe{
		runner:   in.runner,
		sample:   in.sample,
		programs: []program{sampleProgram(in.sample)},
		sessions: in.sessions,
		dir:      in.o.dir,
	}
	return p.run()
}

func (in *ingest) close() {
	if in.svc != nil {
		in.svc.stop()
		in.svc = nil
	}
}

// classFamilies is the most common family of each class in Table I.
var classFamilies = []struct {
	class  ransomware.Class
	family string
}{
	{ransomware.ClassA, "TeslaCrypt"},
	{ransomware.ClassB, "CTB-Locker"},
	{ransomware.ClassC, "Virlock"},
}

// classSample returns the first roster specimen of class index class (0,
// 1, 2 for Class A, B, C) from that class's most common family.
func classSample(class int) ransomware.Sample { return classSamples(class, 1)[0] }

// classSamples returns the first n roster specimens of class index class
// from that class's most common family. The desktop rounds and the
// single-specimen probes use these fixed specimens: detection latency
// varies more between specimens of one family than a run can average out
// if the seed picked them, and the table1 workload already covers the
// roster.
func classSamples(class, n int) []ransomware.Sample {
	want := classFamilies[class]
	var out []ransomware.Sample
	for _, s := range ransomware.Roster(rosterSeed) {
		if s.Profile.Class == want.class && s.Profile.Family == want.family && len(out) < n {
			out = append(out, s)
		}
	}
	if len(out) < n {
		panic("roster lacks " + want.family) // the roster is fixed; a bug alone gets here
	}
	return out
}
