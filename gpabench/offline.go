package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpa"
	"gpa/internal/advisor"
	"gpa/internal/blamer"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
	"gpa/internal/sass"
	"gpa/internal/structure"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// minTailRows is how many rows an untraced run times at least, so its
// p99 has 10 samples beyond it (see tailPercentile).
const minTailRows = 1000

// estPasses is how many leading Table 3 passes est_error_pct and the
// exact simulator counts cover, so they repeat exactly for a seed
// whatever the host's speed.
const estPasses = 8

// runOffline is table3-offline: closed-loop Table 3 passes in process,
// one caller, each pass over all rows with a fresh simulation seed.
func runOffline(ctx context.Context, r *run) error {
	rows := kernels.All()
	// Benchmark.Run memoizes its kernel builds; fill that memo first so
	// no timed row pays for assembly.
	for _, b := range rows {
		for _, v := range []*kernels.Variant{&b.Base, &b.Opt} {
			if _, _, err := v.Build(); err != nil {
				return fmt.Errorf("%s: %w", b.ID(), err)
			}
		}
	}
	want, err := os.ReadFile(filepath.Join(r.cfg.root, "DRIFT.txt"))
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		got, err := offlineSetup(ctx, rows)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if !bytes.Equal(got, want) {
			r.fail("setup %d: drift check at seed 11 differs from DRIFT.txt", i)
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.detail["setup_s_samples"] = setups

	var tr *tracer
	var comp *composer
	if r.cfg.trace {
		tr = newTracer()
		comp = &composer{built: map[*kernels.Variant]*builtKernel{}}
	}
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	var lat, passSec, passCPU []float64
	var errSum float64
	var errN int
	start := time.Now()
	passes := 0
	more := func() bool {
		return passes < estPasses || time.Since(start) < dur || (!r.cfg.trace && r.attempted < minTailRows)
	}
	for ; more(); passes++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		seed := mix(r.cfg.seed, uint64(passes))
		passStart, passCPU0, passFailed := time.Now(), selfCPU(), r.failed
		var untraced time.Duration
		for _, b := range rows {
			r.attempted++
			t := time.Now()
			o, err := b.Run(ctx, kernels.RunOptions{Seed: seed})
			d := time.Since(t)
			untraced += d
			if err != nil {
				r.failed++
				r.fail("pass %d: %v", passes, err)
				continue
			}
			lat = append(lat, ms(d))
			if o.BaseCycles <= 0 || o.OptCycles <= 0 || o.Report == nil {
				r.fail("pass %d %s: empty outcome", passes, b.ID())
			}
			if passes < estPasses {
				errSum += o.Error
				errN++
			}
			if comp != nil {
				comp.row(ctx, r, tr, b, seed, o, passes < estPasses)
			}
		}
		switch {
		case r.failed != passFailed:
		case comp == nil:
			passSec = append(passSec, time.Since(passStart).Seconds())
			passCPU = append(passCPU, ms(selfCPU()-passCPU0))
		default:
			// A traced pass also composes every row; its untraced
			// share is the Benchmark.Run calls alone.
			passSec = append(passSec, untraced.Seconds())
		}
	}
	completed := r.attempted - r.failed
	r.detail["passes"] = passes
	r.detail["est_error_rows"] = errN
	if completed == 0 || errN == 0 {
		return fmt.Errorf("table3-offline: no row completed")
	}
	lats := summarize(lat)
	r.detail["latency"] = lats
	// Throughput and CPU come from the median pass, so a burst of host
	// noise during one pass does not move them.
	r.detail["elapsed_s"] = time.Since(start).Seconds()
	r.detail["full_passes"] = len(passSec)
	r.e2e["ops_per_s"] = float64(len(rows)) / median(passSec)
	r.e2e["latency_p50_ms"] = lats.P50
	// Offline rows have no latency limit: every completed row counts.
	r.e2e["slo_attainment"] = float64(completed) / float64(r.attempted)
	r.e2e["ok_ratio"] = float64(completed) / float64(r.attempted)
	r.e2e["cpu_ms_per_op"] = median(passCPU) / float64(len(rows))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss
	r.e2e["est_error_pct"] = 100 * errSum / float64(errN)

	if comp != nil {
		comp.report(r, tr, lat)
		r.notExercised("service.do_ms", "encode.result_ms", "http.self_ms", "store.open_ms",
			"service.hit_ratio", "service.stage_hit_ratio", "service.stage_served",
			"service.sims_per_req", "service.structure_builds", "service.coalesced",
			"store.hits", "store.misses", "store.puts", "store.errors", "qos.queued_max", "qos.shed",
			"gpad.stage_ms.assemble", "gpad.stage_ms.simulate", "gpad.stage_ms.blame",
			"gpad.stage_ms.advise", "gpad.http_ms", "gpad.allocs_per_req", "gpad.gc_per_kreq",
			"loadgen.lateness_p99_ms", "loadgen.backlog_end")
		return writeTrace(r, tr)
	}
	return nil
}

// offlineSetup builds every Table 3 kernel from source and reproduces
// drift-check's output (seed 11, SimSMs 4) with them.
func offlineSetup(ctx context.Context, rows []*kernels.Benchmark) ([]byte, error) {
	type built struct {
		k  *gpa.Kernel
		wl gpa.Workload
	}
	base := make([]built, len(rows))
	for i, b := range rows {
		for j, v := range []*kernels.Variant{&b.Base, &b.Opt} {
			k, wl, err := buildVariant(v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID(), err)
			}
			if j == 0 {
				base[i] = built{k, wl}
			}
		}
	}
	var out bytes.Buffer
	for i, b := range rows {
		opts := &gpa.Options{Workload: base[i].wl, Seed: 11, SimSMs: 4}
		cycles, err := base[i].k.Measure(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: drift measure: %w", b.ID(), err)
		}
		prof, err := base[i].k.Profile(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: drift profile: %w", b.ID(), err)
		}
		digest, err := prof.Digest()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&out, "%-60s cycles=%-10d profile=%s\n", b.ID(), cycles, digest[:16])
	}
	return out.Bytes(), nil
}

// buildVariant assembles a variant and binds its workload through the
// public API, without the kernels package's build memo.
func buildVariant(v *kernels.Variant) (*gpa.Kernel, gpa.Workload, error) {
	k, err := gpa.LoadKernelAsm(v.Asm, v.Launch)
	if err != nil {
		return nil, nil, err
	}
	if v.Spec == nil {
		return k, nil, nil
	}
	wl, err := k.BindWorkload(v.Spec)
	return k, wl, err
}

// builtKernel is one variant's front end as the traced composition
// built it.
type builtKernel struct {
	k  *gpa.Kernel
	wl gpa.Workload
	st *structure.Structure
}

// composer replays Benchmark.Run layer by layer under spans: assemble,
// analyze, measure both variants, profile, blame, advise.
type composer struct {
	built map[*kernels.Variant]*builtKernel
	op    int
	// Sums over every traced row.
	measureNS, measureCycles, measureFF int64
	profileNS, profileCycles, profileFF int64
	// Exact counts over the first estPasses passes.
	exactRows, exactCycles, exactSamples int64
}

// frontEnd builds a variant once per run, as Benchmark.Run's memo does,
// timing the assembler and the structure analysis.
func (c *composer) frontEnd(tr *tracer, op, parent int, v *kernels.Variant, withStructure bool) (*builtKernel, error) {
	if bk := c.built[v]; bk != nil {
		return bk, nil
	}
	fe := tr.begin(op, parent, "frontend.load")
	defer tr.end(fe)
	id := tr.begin(op, fe, "sass.assemble")
	mod, err := sass.Assemble(v.Asm)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	bk := &builtKernel{k: &gpa.Kernel{Module: mod, Launch: v.Launch}}
	if v.Spec != nil {
		if bk.wl, err = bk.k.BindWorkload(v.Spec); err != nil {
			return nil, err
		}
	}
	if withStructure {
		id := tr.begin(op, fe, "structure.analyze")
		bk.st, err = structure.Analyze(mod)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	c.built[v] = bk
	return bk, nil
}

// row composes one Table 3 row under spans and checks it against the
// Benchmark.Run outcome o for the same seed.
func (c *composer) row(ctx context.Context, r *run, tr *tracer, b *kernels.Benchmark, seed uint64,
	o *kernels.Outcome, exact bool) {
	op := c.op
	c.op++
	root := tr.begin(op, -1, "row")
	defer tr.end(root)
	base, err := c.frontEnd(tr, op, root, &b.Base, true)
	if err != nil {
		r.fail("%s: base front end: %v", b.ID(), err)
		return
	}
	opt, err := c.frontEnd(tr, op, root, &b.Opt, false)
	if err != nil {
		r.fail("%s: opt front end: %v", b.ID(), err)
		return
	}
	measure := func(bk *builtKernel) int64 {
		_, ff0, _ := gpusim.FFStats()
		id := tr.begin(op, root, "gpusim.measure")
		cycles, err := bk.k.Measure(ctx, &gpa.Options{SimSMs: 1, Parallelism: 1, Seed: seed, Workload: bk.wl})
		tr.end(id)
		_, ff1, _ := gpusim.FFStats()
		if err != nil {
			r.fail("%s: measure: %v", b.ID(), err)
			return 0
		}
		c.measureNS += int64(tr.spans[id].End - tr.spans[id].Start)
		c.measureCycles += cycles
		c.measureFF += ff1 - ff0
		return cycles
	}
	baseCycles, optCycles := measure(base), measure(opt)

	_, ff0, _ := gpusim.FFStats()
	id := tr.begin(op, root, "profiler.profile")
	prof, err := base.k.Profile(ctx, &gpa.Options{SimSMs: 1, Parallelism: 1, Seed: seed, Workload: base.wl})
	tr.end(id)
	_, ff1, _ := gpusim.FFStats()
	if err != nil {
		r.fail("%s: profile: %v", b.ID(), err)
		return
	}
	c.profileNS += int64(tr.spans[id].End - tr.spans[id].Start)
	c.profileCycles += prof.Cycles
	c.profileFF += ff1 - ff0

	gpu := gpa.V100()
	if prof.GPU != "" {
		if gpu, err = gpa.LookupGPU(prof.GPU); err != nil {
			r.fail("%s: %v", b.ID(), err)
			return
		}
	}
	id = tr.begin(op, root, "blamer.context")
	actx, err := advisor.BuildContextWithStructure(base.k.Module, base.st, prof, gpu, blamer.Options{})
	tr.end(id)
	if err != nil {
		r.fail("%s: blame: %v", b.ID(), err)
		return
	}
	id = tr.begin(op, root, "advisor.advise")
	advice := advisor.Advise(actx, advisor.DefaultOptimizers()...)
	tr.end(id)

	var est float64
	rank := 0
	for i, e := range advice.Entries {
		if e.Optimizer == b.Optimizer {
			est, rank = e.Speedup, i+1
			break
		}
	}
	if baseCycles != o.BaseCycles || optCycles != o.OptCycles || est != o.Estimated || rank != o.Rank {
		r.fail("%s seed %d: composition gives cycles %d/%d est %g rank %d, Benchmark.Run %d/%d est %g rank %d",
			b.ID(), seed, baseCycles, optCycles, est, rank, o.BaseCycles, o.OptCycles, o.Estimated, o.Rank)
	}
	if exact {
		c.exactRows++
		c.exactCycles += baseCycles + optCycles + prof.Cycles
		c.exactSamples += prof.TotalSamples
	}
}

// report derives the table3-offline per-layer metrics from the spans;
// untracedMS are the untraced Benchmark.Run row times of the same run.
func (c *composer) report(r *run, tr *tracer, untracedMS []float64) {
	self := tr.selfMS()
	for name, span := range map[string]string{
		"gpusim.measure_ms":    "gpusim.measure",
		"profiler.profile_ms":  "profiler.profile",
		"blamer.context_ms":    "blamer.context",
		"advisor.advise_ms":    "advisor.advise",
		"sass.assemble_ms":     "sass.assemble",
		"structure.analyze_ms": "structure.analyze",
		"frontend.load_ms":     "frontend.load",
	} {
		r.layer[name] = median(self[span])
	}
	r.ratio("gpusim.measure_ns_per_cycle", float64(c.measureNS), float64(c.measureCycles))
	r.ratio("gpusim.ff_share.measure", float64(c.measureFF), float64(c.measureCycles))
	r.ratio("profiler.ns_per_cycle", float64(c.profileNS), float64(c.profileCycles))
	r.ratio("gpusim.ff_share.profile", float64(c.profileFF), float64(c.profileCycles))
	r.ratio("gpusim.sim_cycles_per_op", float64(c.exactCycles), float64(c.exactRows))
	r.ratio("profiler.samples_per_op", float64(c.exactSamples), float64(c.exactRows))
	r.layer["trace.overhead_ms"] = median(tr.totalMS("row")) - median(untracedMS)
	r.detail["spans"] = len(tr.spans)
}

// writeTrace writes the run's spans under .bench_build/traces.
func writeTrace(r *run, tr *tracer) error {
	dir := filepath.Join(r.cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	r.detail["trace_file"] = path
	return tr.write(path)
}
