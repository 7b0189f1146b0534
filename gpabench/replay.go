package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// jobFor builds the engine job gpad builds for q: the same options,
// kernel source and workload key (see cmd/gpad kernelRequest.job).
func jobFor(q *request, c corpus) (gpa.Job, error) {
	kind := gpa.JobAdvise
	if q.Path == pathProfile {
		kind = gpa.JobProfile
	}
	opts := &gpa.Options{SimSMs: 1, Seed: q.Seed}
	job := gpa.Job{Kind: kind, Options: opts}
	if q.Form == formBench {
		b := kernels.All()[q.Row]
		k, wl, err := b.Base.Build()
		if err != nil {
			return job, err
		}
		opts.Workload = wl
		job.Kernel = k
		job.WorkloadKey = "bench:" + b.ID() + "/base"
		return job, nil
	}
	kc := c.kernel(q)
	// gpad's defaults for launch fields a request leaves zero.
	l := kc.v.Launch
	if l.GridX == 0 && l.GridY == 0 && l.GridZ == 0 {
		l.GridX = 640
	}
	if l.BlockX == 0 && l.BlockY == 0 && l.BlockZ == 0 {
		l.BlockX = 256
	}
	if l.RegsPerThread == 0 {
		l.RegsPerThread = 32
	}
	var err error
	if q.Form == formAsm {
		job.Kernel, err = gpa.LoadKernelAsm(kc.v.Asm, l)
	} else {
		job.Kernel, err = gpa.LoadKernelBinary(kc.blob, l)
	}
	return job, err
}

// referenceBody answers q with an in-process engine and encodes the
// result as gpad does.
func referenceBody(ctx context.Context, eng *gpa.Engine, q *request, c corpus) ([]byte, error) {
	job, err := jobFor(q, c)
	if err != nil {
		return nil, err
	}
	res := eng.Do(ctx, job)
	if res.Err != nil {
		return nil, res.Err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(job.Result(res)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replay sends reqs through an in-process engine configured like gpad
// over the store at dir, timing each request; with a tracer it records
// spans around the front end, Engine.Do and encoding.
func replay(ctx context.Context, reqs []request, c corpus, dir string, tr *tracer) (perReq []float64, openMS float64, err error) {
	t := time.Now()
	id := tr.begin(-1, -1, "store.open")
	st, err := gpa.OpenStore(dir)
	tr.end(id)
	openMS = ms(time.Since(t))
	if err != nil {
		return nil, 0, err
	}
	eng := gpa.NewEngine(&gpa.EngineOptions{Store: st})
	defer eng.Shutdown(context.Background())
	for i := range reqs {
		t := time.Now()
		root := tr.begin(i, -1, "request")
		id := tr.begin(i, root, "frontend.load")
		job, err := jobFor(&reqs[i], c)
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("replay %d: %w", i, err)
		}
		id = tr.begin(i, root, "service.do")
		res := eng.Do(ctx, job)
		tr.end(id)
		if res.Err != nil {
			return nil, 0, fmt.Errorf("replay %d: %w", i, res.Err)
		}
		id = tr.begin(i, root, "encode.result")
		_, err = job.Result(res).MarshalIndent()
		tr.end(id)
		tr.end(root)
		if err != nil {
			return nil, 0, fmt.Errorf("replay %d: %w", i, err)
		}
		perReq = append(perReq, ms(time.Since(t)))
	}
	return perReq, openMS, nil
}

// replayLayers replays the timed stream in process, untraced and then
// traced, and records the serving layers' per-layer metrics. warmDir is
// the populated store serve-warm restarts over; serve-cold replays into
// fresh stores, and only its first replayMax requests.
func (p *servePhase) replayLayers(ctx context.Context, warmDir string) error {
	r := p.r
	reqs := p.reqs
	dirs := [2]string{warmDir, warmDir}
	if warmDir == "" {
		if len(reqs) > replayMax {
			reqs = reqs[:replayMax]
		}
		dirs = [2]string{filepath.Join(r.cfg.work, "replay-0"), filepath.Join(r.cfg.work, "replay-1")}
	}
	untraced, _, err := replay(ctx, reqs, p.corpus, dirs[0], nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	if _, r.layer["store.open_ms"], err = replay(ctx, reqs, p.corpus, dirs[1], tr); err != nil {
		return err
	}
	self := tr.selfMS()
	load, do, enc := median(self["frontend.load"]), median(self["service.do"]), median(self["encode.result"])
	r.layer["frontend.load_ms"], r.layer["service.do_ms"], r.layer["encode.result_ms"] = load, do, enc
	var rtt []float64
	for i, v := range p.load.verdicts {
		if v.ok {
			rtt = append(rtt, p.load.rtt[i])
		}
	}
	r.layer["http.self_ms"] = median(rtt) - (load + do + enc)
	r.layer["trace.overhead_ms"] = median(tr.totalMS("request")) - median(untraced)
	r.detail["replayed"] = len(reqs)
	r.detail["spans"] = len(tr.spans)
	r.notExercised("gpusim.measure_ms", "gpusim.measure_ns_per_cycle", "gpusim.ff_share.measure",
		"gpusim.ff_share.profile", "gpusim.sim_cycles_per_op", "profiler.profile_ms", "profiler.ns_per_cycle",
		"profiler.samples_per_op", "blamer.context_ms", "advisor.advise_ms", "sass.assemble_ms",
		"structure.analyze_ms")
	return writeTrace(r, tr)
}
