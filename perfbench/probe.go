package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"cryptodrop/internal/core"
	"cryptodrop/internal/entropy"
	"cryptodrop/internal/experiments"
	"cryptodrop/internal/host"
	"cryptodrop/internal/magic"
	"cryptodrop/internal/ransomware"
	"cryptodrop/internal/sdhash"
	"cryptodrop/internal/server/wire"
	"cryptodrop/internal/snapshot"
	"cryptodrop/internal/telemetry"
)

// perLayer lists the per-layer metrics of the traced run, in output order.
// Each is timed by calling the layer's public functions from this package
// on the workload's own inputs; meta.json maps each to the end-to-end
// metric and workload it should move.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"experiments.sample_ms", "ms"},
		{"experiments.outside_ops_ms", "ms"},
		{"vfs.clone_ms", "ms"},
		{"vfs.ops_per_sample", "count"},
		{"core.measure_self_us", "us"},
		{"core.dispatch_self_us", "us"},
		{"core.pre_us_per_op", "us"},
		{"core.handle_us_per_op", "us"},
		{"wire.encode_us_per_op", "us"},
		{"wire.decode_us_per_op", "us"},
		{"wire.bytes_per_op", "B"},
		{"server.submit_ms", "ms"},
		{"server.flush_ms", "ms"},
		{"server.retries", "count"},
		{"host.inproc_verdict_ms", "ms"},
		{"host.queue_wait_us", "us"},
		{"host.wal_encode_us_per_op", "us"},
		{"host.wal_bytes_per_op", "B"},
		{"host.close_ms", "ms"},
		{"sdhash.compute_ns_per_kib", "ns"},
		{"sdhash.similarity_us", "us"},
		{"entropy.shannon_ns_per_kib", "ns"},
		{"magic.identify_ns", "ns"},
	}
	for _, layer := range []string{"filter.pre_us", "vfs.backend_us", "core.post_us"} {
		for _, k := range opKinds {
			out = append(out, struct{ name, unit string }{layer + "." + k.String(), "us"})
		}
	}
	out = append(out, []struct{ name, unit string }{
		{"vfs.monitored_ops_per_s", "1/s"},
		{"vfs.unmonitored_ops_per_s", "1/s"},
		{"versioned.captures", "count"},
		{"versioned.retained_mb", "MB"},
		{"versioned.evictions", "count"},
		{"recovery.rollback_ms", "ms"},
		{"recovery.files_restored", "count"},
		{"recovery.files_lost_after", "count"},
	}...)
	for _, m := range endToEnd {
		if m.name != "setup_s" && m.name != "rss_peak_mb" {
			out = append(out, struct{ name, unit string }{"trace_overhead." + m.name, "x"})
		}
	}
	return out
}()

const (
	// probeRepeats is how many times each whole-run probe repeats; the
	// median is reported.
	probeRepeats = 3
	// probeSessions sizes the op streams generated for the probes of
	// workloads that have no wire traffic of their own.
	probeSessions = 16
	// kernelBudget is the minimum time each kernel probe loops for.
	kernelBudget = 200 * time.Millisecond
)

// probe times every layer on one workload's inputs.
type probe struct {
	runner *experiments.Runner
	// sample is the specimen the Runner probe runs.
	sample ransomware.Sample
	// programs are the workload's protected-machine unit: a desktop round,
	// or the specimen alone.
	programs []program
	// sessions are the op streams for the wire, host and core probes.
	sessions []genSession
	// spans are the workload's own traced-run spans, one slice per tracer,
	// for the engine's self times; nil on ingest, whose server builds
	// engines without a span tracer, so the host probe's traced pass over
	// the ingest sessions supplies them.
	spans [][]telemetry.Span
	dir   string
}

func (p *probe) run() (map[string]float64, error) {
	m := make(map[string]float64)
	for _, step := range []func(map[string]float64) error{
		p.experiments, p.kernels, p.codecs, p.core, p.host, p.server, p.machine,
	} {
		if err := step(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// experiments runs the specimen through Runner.RunSample with a clock
// filter, splitting its wall time into intercepted ops and the rest
// (clone, the specimen's own work, files-lost hashing).
func (p *probe) experiments(m map[string]float64) error {
	clock := newOpClock()
	p.runner.SetTraceRecorder(clock)
	defer p.runner.SetTraceRecorder(nil)
	var wall, outside, clone []time.Duration
	var ops int
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		if _, err := p.runner.RunSample(p.sample); err != nil {
			return err
		}
		w := time.Since(t0)
		lat := clock.take()
		var in time.Duration
		for _, d := range lat {
			in += d
		}
		wall, outside, ops = append(wall, w), append(outside, w-in), len(lat)
		t1 := time.Now()
		p.runner.CloneFS()
		clone = append(clone, time.Since(t1))
	}
	m["experiments.sample_ms"] = medianDur(wall)
	m["experiments.outside_ops_ms"] = medianDur(outside)
	m["vfs.clone_ms"] = medianDur(clone)
	m["vfs.ops_per_sample"] = float64(ops)
	return nil
}

// contents returns the distinct pre-edit contents the sessions stage, and
// for each the content staged after it.
func (p *probe) contents() (before, after [][]byte) {
	seen := make(map[*byte]bool)
	for _, s := range p.sessions {
		for _, b := range s.batches {
			for _, op := range b {
				pre, post := op.Pre[op.Event.FileID], op.Post[op.Event.FileID]
				if len(pre) == 0 || len(post) == 0 || seen[&pre[0]] {
					continue
				}
				seen[&pre[0]] = true
				before, after = append(before, pre), append(after, post)
			}
		}
	}
	return before, after
}

// loop runs fn over the n inputs, cycling, until every input has run and
// at least kernelBudget has passed, and returns the time per call.
func loop(n int, fn func(i int)) time.Duration {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < kernelBudget || calls < n {
		fn(calls % n)
		calls++
	}
	return time.Since(t0) / time.Duration(calls)
}

// kernels times the measurement kernels on the workload's content.
func (p *probe) kernels(m map[string]float64) error {
	before, after := p.contents()
	if len(before) == 0 {
		return errors.New("no staged content to measure")
	}
	var kib float64
	for _, c := range before {
		kib += float64(len(c)) / 1024
	}
	meanKiB := kib / float64(len(before))
	var da, db []*sdhash.Digest
	for i := range before {
		a, errA := sdhash.Compute(before[i])
		b, errB := sdhash.Compute(after[i])
		if errA == nil && errB == nil {
			da, db = append(da, a), append(db, b)
		}
	}
	if len(da) == 0 {
		return errors.New("no content large enough for a similarity digest")
	}
	per := loop(len(before), func(i int) { _, _ = sdhash.Compute(before[i]) })
	m["sdhash.compute_ns_per_kib"] = float64(per) / meanKiB
	per = loop(len(da), func(i int) { kernelSink += float64(da[i].Compare(db[i])) })
	m["sdhash.similarity_us"] = us(per)
	per = loop(len(before), func(i int) { kernelSink += entropy.Shannon(before[i]) })
	m["entropy.shannon_ns_per_kib"] = float64(per) / meanKiB
	per = loop(len(before), func(i int) { kernelSink += float64(len(magic.Identify(before[i]).ID)) })
	m["magic.identify_ns"] = float64(per)
	return nil
}

// kernelSink keeps the timed kernels' results live, so the compiler cannot
// drop the calls.
var kernelSink float64

// batches flattens the sessions into their batches.
func (p *probe) batches() ([][]host.Op, int) {
	var out [][]host.Op
	ops := 0
	for _, s := range p.sessions {
		out = append(out, s.batches...)
		ops += s.ops
	}
	return out, ops
}

// codecs times the wire frame codec and the WAL record encoder.
func (p *probe) codecs(m map[string]float64) error {
	batches, ops := p.batches()
	frames := make([][]byte, len(batches))
	var buf []byte
	var wireBytes, walBytes int
	for i, b := range batches {
		frames[i] = wire.AppendFrame(nil, 0, b)
		wireBytes += len(frames[i])
		enc := snapshot.NewEncoder()
		host.EncodeOps(enc, b)
		walBytes += len(enc.Data())
	}
	opsPerBatch := float64(ops) / float64(len(batches))
	per := loop(len(batches), func(i int) { buf = wire.AppendFrame(buf[:0], 0, batches[i]) })
	m["wire.encode_us_per_op"] = us(per) / opsPerBatch
	var decodeErr error
	per = loop(len(frames), func(i int) {
		if _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(frames[i]))); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("decode frame: %w", decodeErr)
	}
	m["wire.decode_us_per_op"] = us(per) / opsPerBatch
	m["wire.bytes_per_op"] = float64(wireBytes) / float64(ops)
	per = loop(len(batches), func(i int) { host.EncodeOps(snapshot.NewEncoder(), batches[i]) })
	m["host.wal_encode_us_per_op"] = us(per) / opsPerBatch
	m["host.wal_bytes_per_op"] = float64(walBytes) / float64(ops)
	return nil
}

// stagedSource is a ContentSource over the content an op stages.
type stagedSource map[uint64][]byte

func (s stagedSource) Content(id uint64) ([]byte, error) {
	if c, ok := s[id]; ok {
		return c, nil
	}
	return nil, errors.New("content not staged")
}

// core replays each session into a fresh engine the way a host session
// applies it, timing PreEvent and Handle; a second, traced replay gives
// the engine's span self times.
func (p *probe) core(m map[string]float64) error {
	var pre, handle time.Duration
	var ops int
	for _, s := range p.sessions {
		src := stagedSource{}
		eng := core.New(core.DefaultConfig("/"), src)
		for _, b := range s.batches {
			for i := range b {
				op := &b[i]
				for id, c := range op.Pre {
					src[id] = c
				}
				ev := op.Event
				if op.PreEvent != nil {
					ev = *op.PreEvent
				}
				t0 := time.Now()
				eng.PreEvent(ev)
				pre += time.Since(t0)
				for id, c := range op.Post {
					src[id] = c
				}
				if op.Event.Kind != 0 {
					t1 := time.Now()
					eng.Handle(op.Event)
					handle += time.Since(t1)
				}
				for _, id := range op.Evict {
					delete(src, id)
				}
				ops++
			}
		}
	}
	m["core.pre_us_per_op"] = us(pre) / float64(ops)
	m["core.handle_us_per_op"] = us(handle) / float64(ops)
	return nil
}

// host runs the sessions through an in-process queued host session —
// Submit then Flush per batch, as the wire path does, without the wire —
// then closes each (drain and final checkpoint). A second pass with a span
// tracer gives the queue-wait span, and the engine's self times where the
// workload has no spans of its own.
func (p *probe) host(m map[string]float64) error {
	ctx := context.Background()
	var verdict, closeLat []time.Duration
	for pass := 0; pass < 2; pass++ {
		var tracer *telemetry.SpanTracer
		if pass == 1 {
			tracer = telemetry.NewSpanTracer(1<<18, 1)
		}
		h := host.New(host.Config{
			CheckpointDir:   filepath.Join(p.dir, fmt.Sprintf("probe-host-%d", pass)),
			CheckpointEvery: checkpointEvery,
		})
		for i, s := range p.sessions {
			cfg := core.DefaultConfig("/")
			cfg.SpanTracer = tracer
			id := fmt.Sprintf("probe-%d", i)
			sess, err := h.Open(id, host.SessionConfig{Engine: cfg})
			if err != nil {
				return err
			}
			for _, b := range s.batches {
				t0 := time.Now()
				if err := sess.Submit(ctx, b...); err != nil {
					return err
				}
				if err := sess.Flush(ctx); err != nil {
					return err
				}
				if pass == 0 {
					verdict = append(verdict, time.Since(t0))
				}
			}
			t1 := time.Now()
			if _, err := h.CloseSession(ctx, id); err != nil {
				return err
			}
			if pass == 0 {
				closeLat = append(closeLat, time.Since(t1))
			}
		}
		if _, err := h.Shutdown(ctx); err != nil {
			return err
		}
		if tracer != nil {
			spans := tracer.Spans()
			var queue time.Duration
			var n int
			for _, sp := range spans {
				if sp.Name == "queue-wait" {
					queue += time.Duration(sp.Dur)
					n++
				}
			}
			m["host.queue_wait_us"] = us(queue) / float64(max(n, 1))
			if p.spans == nil {
				selfTimes([][]telemetry.Span{spans}, m)
			}
		}
	}
	if p.spans != nil {
		selfTimes(p.spans, m)
	}
	m["host.inproc_verdict_ms"] = medianDur(verdict)
	m["host.close_ms"] = medianDur(closeLat)
	return nil
}

// selfTimes derives the engine's mean per-span self times from span sets,
// each from one tracer: an op ("dispatch") span's self time excludes the
// measurement spans it contains; measurement spans have no children.
// Within one set, spans of one lane never overlap except by nesting, since
// a lane is one session's worker.
func selfTimes(sets [][]telemetry.Span, m map[string]float64) {
	var measure, dispatch time.Duration
	var nMeasure, nDispatch int
	for _, spans := range sets {
		lanes := make(map[string][]telemetry.Span)
		for _, sp := range spans {
			if sp.Cat == "measure" && sp.Dur > 0 {
				lanes[sp.Lane] = append(lanes[sp.Lane], sp)
				measure += time.Duration(sp.Dur)
				nMeasure++
			}
		}
		for _, sp := range spans {
			if sp.Cat != "dispatch" {
				continue
			}
			self := sp.Dur
			for _, c := range lanes[sp.Lane] {
				if c.Start >= sp.Start && c.Start+c.Dur <= sp.Start+sp.Dur {
					self -= c.Dur
				}
			}
			dispatch += time.Duration(self)
			nDispatch++
		}
	}
	m["core.measure_self_us"] = us(measure) / float64(max(nMeasure, 1))
	m["core.dispatch_self_us"] = us(dispatch) / float64(max(nDispatch, 1))
}

// server runs the sessions through a fresh in-process service with its
// telemetry on, timing each Submit and Flush, and reads the refusals the
// client retried from the server's counters.
func (p *probe) server(m map[string]float64) error {
	svc, err := startService(filepath.Join(p.dir, "probe-server"), true)
	if err != nil {
		return err
	}
	defer svc.stop()
	ctx := context.Background()
	var submit, flush []time.Duration
	for i, s := range p.sessions {
		name := fmt.Sprintf("probe-%d", i)
		st, err := svc.client.Open(ctx, name)
		if err != nil {
			return err
		}
		for _, b := range s.batches {
			t0 := time.Now()
			if err := st.Submit(ctx, b...); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := st.Flush(ctx); err != nil {
				return err
			}
			submit, flush = append(submit, t1.Sub(t0)), append(flush, time.Since(t1))
		}
		if _, err := svc.host.CloseSession(ctx, tenant+"/"+name); err != nil {
			return err
		}
	}
	var retries int64
	for name, v := range svc.reg.Snapshot().Counters {
		if strings.HasSuffix(name, "_refusals_total") || name == "server_sequence_gaps_total" {
			retries += v
		}
	}
	m["server.submit_ms"] = medianDur(submit)
	m["server.flush_ms"] = medianDur(flush)
	m["server.retries"] = float64(retries)
	return nil
}

// machine runs the workload's protected-machine unit with bracket filters
// and recovery armed, then the same programs unmonitored.
func (p *probe) machine(m map[string]float64) error {
	b := newBrackets()
	rr, err := runRound(p.runner, p.programs, machineOpts{monitored: true, brackets: b})
	if err != nil {
		return err
	}
	for _, k := range opKinds {
		n := float64(max(b.count[k], 1))
		m["filter.pre_us."+k.String()] = us(b.pre[k]) / n
		m["vfs.backend_us."+k.String()] = us(b.backend[k]) / n
		m["core.post_us."+k.String()] = us(b.post[k]) / n
	}
	m["vfs.monitored_ops_per_s"] = float64(rr.ops) / rr.work.Seconds()
	m["versioned.captures"] = float64(rr.versions.Captured)
	m["versioned.retained_mb"] = float64(rr.versions.Bytes) / (1 << 20)
	m["versioned.evictions"] = float64(rr.versions.Evicted)
	var rollback []time.Duration
	var restored, lostAfter int
	for _, out := range rr.outcomes {
		if out.ransom {
			rollback = append(rollback, out.rollback)
			restored += out.damaged
			lostAfter += out.lostAfter
		}
	}
	m["recovery.rollback_ms"] = medianDur(rollback)
	m["recovery.files_restored"] = float64(restored)
	m["recovery.files_lost_after"] = float64(lostAfter)
	un, err := runRound(p.runner, p.programs, machineOpts{})
	if err != nil {
		return err
	}
	m["vfs.unmonitored_ops_per_s"] = float64(un.ops) / un.work.Seconds()
	return nil
}
