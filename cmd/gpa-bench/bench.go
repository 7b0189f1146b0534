package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gpa"
	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
)

// benchSnapshot is the BENCH_*.json trajectory record: wall-clock cost
// of each pipeline stage on this machine, so successive perf PRs can
// track the simulator's speed over time.
type benchSnapshot struct {
	Schema     string `json:"schema"`
	Generated  string `json:"generated"`
	GoVersion  string `json:"goVersion"`
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"goMaxProcs"`

	Kernel string `json:"kernel"`
	// Arch is the registry key of the GPU model the stages ran on.
	Arch         string `json:"arch"`
	SimSMs       int    `json:"simSMs"`
	SamplePeriod int    `json:"samplePeriod"`
	Seed         uint64 `json:"seed"`
	Reps         int    `json:"reps"`

	Stages []stageResult `json:"stages"`

	// Engine records advice-engine throughput over every Table 3
	// baseline kernel (gpa.NewEngine + AdviseAll): cold (every job
	// simulates) vs warm (every job is a cache hit), at worker-pool
	// sizes 1 and 4.
	Engine []engineStageResult `json:"engine,omitempty"`

	// Store records the persistent artifact store's effect: a cold pass
	// into an empty directory, restart-warm passes (fresh engines over
	// the populated directory, simulating daemon restarts — zero
	// simulations), and an arch sweep reusing the module front-end.
	Store []storeStageResult `json:"store,omitempty"`

	// ParallelSpeedup is simulate_seq / simulate_par (concurrent SMs).
	ParallelSpeedup float64 `json:"parallelSpeedup"`
	// BaselineSimulateNs is an externally measured reference for the
	// sequential simulate stage (e.g. the seed commit on the same
	// machine), supplied via -bench-baseline-ns; 0 when not recorded.
	BaselineSimulateNs float64 `json:"baselineSimulateNs,omitempty"`
	// SpeedupVsBaseline is BaselineSimulateNs / simulate_seq ns/op.
	SpeedupVsBaseline float64 `json:"speedupVsBaseline,omitempty"`
}

type stageResult struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"nsPerOp"`
	// AllocsPerOp / BytesPerOp are the mean heap allocation count and
	// volume per operation (runtime.MemStats deltas over the timed
	// reps), tracking the serving path's GC pressure across PRs.
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	// FFPeriodsPerOp / FFCyclesPerOp / FFFallbacksPerOp are the
	// steady-state memoization deltas per operation (gpusim.FFStats):
	// loop periods locked and skipped, simulated cycles fast-forwarded
	// analytically, and locked periods abandoned without skipping.
	// Structurally aperiodic kernels (hotspot's barrier-free
	// latency-bound loop) legitimately report zeros.
	FFPeriodsPerOp   float64 `json:"ffPeriodsPerOp"`
	FFCyclesPerOp    float64 `json:"ffCyclesPerOp"`
	FFFallbacksPerOp float64 `json:"ffFallbacksPerOp"`
}

type engineStageResult struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// Cached is true for the warm passes (pure cache, no simulation).
	Cached bool `json:"cached"`
	// Kernels is the batch size (the Table 3 row count).
	Kernels       int     `json:"kernels"`
	Reps          int     `json:"reps"`
	NsPerKernel   float64 `json:"nsPerKernel"`
	KernelsPerSec float64 `json:"kernelsPerSec"`
	// AllocsPerKernel / BytesPerKernel are heap allocation deltas per
	// kernel in the batch (see stageResult).
	AllocsPerKernel float64 `json:"allocsPerKernel"`
	BytesPerKernel  float64 `json:"bytesPerKernel"`
	// FFCyclesPerKernel is the mean number of simulated cycles the
	// steady-state memoizer skipped per kernel in the batch; warm
	// (cached) passes run no simulations and report zero.
	FFCyclesPerKernel float64 `json:"ffCyclesPerKernel"`
}

type storeStageResult struct {
	Name string `json:"name"`
	// Kernels is the batch size (Table 3 rows, or arch models for the
	// sweep row).
	Kernels       int     `json:"kernels"`
	Reps          int     `json:"reps"`
	NsPerKernel   float64 `json:"nsPerKernel"`
	KernelsPerSec float64 `json:"kernelsPerSec"`
	// Runs/Sims are the final engine's pipeline and simulator counters:
	// the restart-warm row must report both as zero (every response came
	// straight off disk).
	Runs int64 `json:"runs"`
	Sims int64 `json:"sims"`
	// StageServed counts responses assembled entirely from stored
	// artifacts without a pipeline run.
	StageServed int64 `json:"stageServed,omitempty"`
	// StructureBuilds counts module front-end analyses: the arch-sweep
	// row must report exactly one for its whole model fan-out.
	StructureBuilds int64 `json:"structureBuilds,omitempty"`
	StoreHits       int64 `json:"storeHits,omitempty"`
	StorePuts       int64 `json:"storePuts,omitempty"`
}

// stageCost is one timed stage's mean per-op wall-clock, allocation,
// and fast-forward cost.
type stageCost struct {
	ns, allocs, bytes                float64
	ffPeriods, ffCycles, ffFallbacks float64
}

// timeStage runs fn reps times and returns the mean per-op cost.
// Allocation and fast-forward numbers are process-wide deltas
// (runtime.MemStats, gpusim.FFStats): exact for the single-goroutine
// stages, a faithful serving-cost measure for the concurrent engine
// passes.
func timeStage(reps int, fn func() error) (stageCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ffP0, ffC0, ffF0 := gpusim.FFStats()
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return stageCost{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	ffP1, ffC1, ffF1 := gpusim.FFStats()
	r := float64(reps)
	return stageCost{
		ns:          float64(elapsed.Nanoseconds()) / r,
		allocs:      float64(m1.Mallocs-m0.Mallocs) / r,
		bytes:       float64(m1.TotalAlloc-m0.TotalAlloc) / r,
		ffPeriods:   float64(ffP1-ffP0) / r,
		ffCycles:    float64(ffC1-ffC0) / r,
		ffFallbacks: float64(ffF1-ffF0) / r,
	}, nil
}

// runBenchSnapshot times the pipeline stages on the representative
// rodinia/hotspot row at SimSMs=4 on the selected GPU model (nil = the
// default V100) and writes the snapshot JSON.
func runBenchSnapshot(ctx context.Context, path string, reps int, seed uint64, baselineNs float64, gpu *arch.GPU, storeDir string) error {
	if reps <= 0 {
		reps = 1
	}
	if gpu == nil {
		gpu = arch.VoltaV100()
	}
	rows := kernels.Find("rodinia/hotspot")
	if len(rows) == 0 {
		return fmt.Errorf("bench: no rodinia/hotspot row")
	}
	row := rows[0]
	k, wl, err := row.Base.Build()
	if err != nil {
		return err
	}
	// The fast-forward demonstration row: nw's barrier-synchronized
	// wavefront loop is periodic at the SM level, so the memoizer must
	// lock on and skip (hotspot's barrier-free latency-bound loop is
	// structurally aperiodic and legitimately never fast-forwards).
	ffRows := kernels.Find("rodinia/nw")
	if len(ffRows) == 0 {
		return fmt.Errorf("bench: no rodinia/nw row")
	}
	ffK, ffWL, err := ffRows[0].Base.Build()
	if err != nil {
		return err
	}
	const simSMs = 4
	seqOpts := &gpa.Options{GPU: gpu, Workload: wl, Seed: seed, SimSMs: simSMs, Parallelism: 1}
	parOpts := &gpa.Options{GPU: gpu, Workload: wl, Seed: seed, SimSMs: simSMs, Parallelism: runtime.GOMAXPROCS(0)}
	ffOpts := &gpa.Options{GPU: gpu, Workload: ffWL, Seed: seed, SimSMs: simSMs, Parallelism: 1}

	snap := &benchSnapshot{
		Schema:       "gpa-bench-snapshot/4",
		Generated:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Kernel:       row.App + "/" + row.Kernel,
		Arch:         gpa.GPUName(gpu),
		SimSMs:       simSMs,
		SamplePeriod: 64,
		Seed:         seed,
		Reps:         reps,
	}

	prof, err := k.Profile(ctx, seqOpts)
	if err != nil {
		return err
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"simulate_seq", func() error { _, err := k.Measure(ctx, seqOpts); return err }},
		{"simulate_par", func() error { _, err := k.Measure(ctx, parOpts); return err }},
		{"simulate_ff", func() error { _, err := ffK.Measure(ctx, ffOpts); return err }},
		{"profile", func() error { _, err := k.Profile(ctx, seqOpts); return err }},
		{"advise", func() error { _, err := k.AdviseFromProfile(ctx, prof, seqOpts); return err }},
		// A row's two simulations always overlap; the two row stages
		// differ only in the SM parallelism inside each simulation.
		{"row", func() error {
			_, err := row.Run(ctx, kernels.RunOptions{GPU: gpu, Seed: seed, SimSMs: simSMs})
			return err
		}},
		{"row_par_sms", func() error {
			_, err := row.Run(ctx, kernels.RunOptions{GPU: gpu, Seed: seed, SimSMs: simSMs,
				Parallelism: runtime.GOMAXPROCS(0)})
			return err
		}},
	}
	byName := map[string]float64{}
	for _, st := range stages {
		cost, err := timeStage(reps, st.fn)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", st.name, err)
		}
		byName[st.name] = cost.ns
		snap.Stages = append(snap.Stages, stageResult{
			Name: st.name, NsPerOp: cost.ns,
			AllocsPerOp: cost.allocs, BytesPerOp: cost.bytes,
			FFPeriodsPerOp: cost.ffPeriods, FFCyclesPerOp: cost.ffCycles,
			FFFallbacksPerOp: cost.ffFallbacks,
		})
		fmt.Printf("bench: %-14s %14.0f ns/op %12.0f allocs/op %12.0f B/op %10.0f ffcycles/op\n",
			st.name, cost.ns, cost.allocs, cost.bytes, cost.ffCycles)
	}
	engineStages, err := benchEngine(ctx, reps, seed, gpu)
	if err != nil {
		return fmt.Errorf("bench: engine: %w", err)
	}
	snap.Engine = engineStages
	for _, st := range engineStages {
		fmt.Printf("bench: %-14s %14.0f ns/kernel (%.1f kernels/sec, %d workers, %.1f allocs/kernel)\n",
			st.Name, st.NsPerKernel, st.KernelsPerSec, st.Workers, st.AllocsPerKernel)
	}
	storeStages, err := benchStore(ctx, reps, seed, gpu, storeDir)
	if err != nil {
		return fmt.Errorf("bench: store: %w", err)
	}
	snap.Store = storeStages
	for _, st := range storeStages {
		fmt.Printf("bench: %-18s %14.0f ns/kernel (%.1f kernels/sec, runs=%d sims=%d)\n",
			st.Name, st.NsPerKernel, st.KernelsPerSec, st.Runs, st.Sims)
	}
	if byName["simulate_par"] > 0 {
		snap.ParallelSpeedup = byName["simulate_seq"] / byName["simulate_par"]
	}
	if baselineNs > 0 {
		snap.BaselineSimulateNs = baselineNs
		snap.SpeedupVsBaseline = baselineNs / byName["simulate_seq"]
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchEngine times the advice engine over every Table 3 baseline
// kernel: a cold pass (fresh engine, every job simulates) and a warm
// pass (same engine again, every job a cache hit), at worker-pool
// sizes 1 and 4. Throughput is kernels advised per second of
// wall-clock batch time.
// table3Jobs builds an advise job for every Table 3 baseline kernel
// (the batch both benchEngine and benchStore push through an engine).
func table3Jobs(seed uint64, gpu *arch.GPU) ([]gpa.Job, error) {
	rows := kernels.All()
	jobs := make([]gpa.Job, len(rows))
	for i, b := range rows {
		k, wl, err := b.Base.Build()
		if err != nil {
			return nil, err
		}
		jobs[i] = gpa.Job{
			Kind:   gpa.JobAdvise,
			Kernel: k,
			Options: &gpa.Options{
				GPU: gpu, Workload: wl, Seed: seed, SimSMs: 1, Parallelism: 1,
			},
			WorkloadKey: b.ID() + "/base",
		}
	}
	return jobs, nil
}

func benchEngine(ctx context.Context, reps int, seed uint64, gpu *arch.GPU) ([]engineStageResult, error) {
	jobs, err := table3Jobs(seed, gpu)
	if err != nil {
		return nil, err
	}
	doAll := func(eng *gpa.Engine) error {
		for _, r := range eng.DoAll(ctx, jobs) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	// Cold passes re-simulate everything each rep, so they get a
	// smaller rep count than the cheap warm passes.
	coldReps := max(1, reps/5)
	var out []engineStageResult
	for _, workers := range []int{1, 4} {
		opts := &gpa.EngineOptions{Workers: workers}
		cold, err := timeStage(coldReps, func() error {
			return doAll(gpa.NewEngine(opts)) // fresh engine: all misses
		})
		if err != nil {
			return nil, err
		}
		warm := gpa.NewEngine(opts)
		if err := doAll(warm); err != nil { // prewarm: fill the cache
			return nil, err
		}
		warmCost, err := timeStage(reps, func() error { return doAll(warm) })
		if err != nil {
			return nil, err
		}
		n := float64(len(jobs))
		for _, st := range []engineStageResult{
			{Name: fmt.Sprintf("engine_cold_w%d", workers), Workers: workers,
				Kernels: len(jobs), Reps: coldReps, NsPerKernel: cold.ns / n,
				AllocsPerKernel: cold.allocs / n, BytesPerKernel: cold.bytes / n,
				FFCyclesPerKernel: cold.ffCycles / n},
			{Name: fmt.Sprintf("engine_warm_w%d", workers), Workers: workers, Cached: true,
				Kernels: len(jobs), Reps: reps, NsPerKernel: warmCost.ns / n,
				AllocsPerKernel: warmCost.allocs / n, BytesPerKernel: warmCost.bytes / n,
				FFCyclesPerKernel: warmCost.ffCycles / n},
		} {
			if st.NsPerKernel > 0 {
				st.KernelsPerSec = 1e9 / st.NsPerKernel
			}
			out = append(out, st)
		}
	}
	return out, nil
}

// benchStore times the persistent artifact store over the Table 3
// batch. store_cold fills an empty directory; store_restart_warm
// builds a brand-new engine over the populated directory each rep — a
// simulated daemon restart — and must complete the whole batch with
// zero pipeline runs and zero simulations. store_arch_sweep fans one
// kernel across every registered model through a store-backed engine
// and must analyze the module's structure exactly once. baseDir names
// where the store directories live ("" = a throwaway temp dir).
func benchStore(ctx context.Context, reps int, seed uint64, gpu *arch.GPU, baseDir string) ([]storeStageResult, error) {
	jobs, err := table3Jobs(seed, gpu)
	if err != nil {
		return nil, err
	}
	if baseDir == "" {
		tmp, err := os.MkdirTemp("", "gpa-bench-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		baseDir = tmp
	}
	newEngine := func(dir string) (*gpa.Engine, error) {
		st, err := gpa.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		return gpa.NewEngine(&gpa.EngineOptions{Workers: 4, Store: st}), nil
	}
	doAll := func(eng *gpa.Engine) error {
		for _, r := range eng.DoAll(ctx, jobs) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	}
	row := func(name string, n, repCount int, cost stageCost, st gpa.EngineStats) storeStageResult {
		r := storeStageResult{
			Name: name, Kernels: n, Reps: repCount, NsPerKernel: cost.ns / float64(n),
			Runs: st.Runs, Sims: st.Sims, StageServed: st.StageServed,
			StructureBuilds: st.StructureBuilds,
			StoreHits:       st.StoreHits, StorePuts: st.StorePuts,
		}
		if r.NsPerKernel > 0 {
			r.KernelsPerSec = 1e9 / r.NsPerKernel
		}
		return r
	}
	var out []storeStageResult

	// Cold: a fresh directory per rep so every rep pays the full
	// simulate-and-persist cost.
	coldReps := max(1, reps/5)
	var coldStats gpa.EngineStats
	coldCost, err := timeStage(coldReps, func() error {
		dir, err := os.MkdirTemp(baseDir, "cold-*")
		if err != nil {
			return err
		}
		eng, err := newEngine(dir)
		if err != nil {
			return err
		}
		if err := doAll(eng); err != nil {
			return err
		}
		coldStats = eng.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, row("store_cold", len(jobs), coldReps, coldCost, coldStats))

	// Restart-warm: populate one directory, then time fresh engines over
	// it — reopening the store is part of the measured restart cost.
	warmDir, err := os.MkdirTemp(baseDir, "warm-*")
	if err != nil {
		return nil, err
	}
	prewarm, err := newEngine(warmDir)
	if err != nil {
		return nil, err
	}
	if err := doAll(prewarm); err != nil {
		return nil, err
	}
	var warmStats gpa.EngineStats
	warmCost, err := timeStage(reps, func() error {
		eng, err := newEngine(warmDir)
		if err != nil {
			return err
		}
		if err := doAll(eng); err != nil {
			return err
		}
		warmStats = eng.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if warmStats.Sims != 0 || warmStats.Runs != 0 {
		return nil, fmt.Errorf("restart-warm engine simulated: runs=%d sims=%d, want 0/0",
			warmStats.Runs, warmStats.Sims)
	}
	out = append(out, row("store_restart_warm", len(jobs), reps, warmCost, warmStats))

	// Arch sweep: one module over every registered model; the store's
	// frontend stage makes the structure analysis happen exactly once.
	sweepDir, err := os.MkdirTemp(baseDir, "sweep-*")
	if err != nil {
		return nil, err
	}
	sweepEng, err := newEngine(sweepDir)
	if err != nil {
		return nil, err
	}
	var sweepStats gpa.EngineStats
	nGPUs := len(arch.All())
	sweepCost, err := timeStage(1, func() error {
		_, results := sweepEng.Sweep(ctx, jobs[0], nil)
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		sweepStats = sweepEng.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if sweepStats.StructureBuilds != 1 {
		return nil, fmt.Errorf("arch sweep analyzed module structure %d times, want 1",
			sweepStats.StructureBuilds)
	}
	out = append(out, row("store_arch_sweep", nGPUs, 1, sweepCost, sweepStats))
	return out, nil
}

// table3JSON is the -json serialization of a Table 3 sweep.
type table3JSON struct {
	Seed uint64          `json:"seed"`
	Rows []table3RowJSON `json:"rows"`
	// Geomeans over all rows.
	GeomeanAchieved  float64 `json:"geomeanAchieved"`
	GeomeanEstimated float64 `json:"geomeanEstimated"`
	MeanError        float64 `json:"meanError"`
}

type table3RowJSON struct {
	App            string  `json:"app"`
	Kernel         string  `json:"kernel"`
	Optimization   string  `json:"optimization"`
	Achieved       float64 `json:"achieved"`
	PaperAchieved  float64 `json:"paperAchieved"`
	Estimated      float64 `json:"estimated"`
	PaperEstimated float64 `json:"paperEstimated"`
	Error          float64 `json:"error"`
	Rank           int     `json:"rank"`
	BaseCycles     int64   `json:"baseCycles"`
	OptCycles      int64   `json:"optCycles"`
}

func writeTable3JSON(path string, seed uint64, rows []*kernels.Benchmark, outs []*kernels.Outcome) error {
	doc := table3JSON{Seed: seed}
	var achieved, estimated []float64
	var errSum float64
	for i, b := range rows {
		out := outs[i]
		doc.Rows = append(doc.Rows, table3RowJSON{
			App: b.App, Kernel: b.Kernel, Optimization: b.Optimization,
			Achieved: out.Achieved, PaperAchieved: b.PaperAchieved,
			Estimated: out.Estimated, PaperEstimated: b.PaperEstimated,
			Error: out.Error, Rank: out.Rank,
			BaseCycles: out.BaseCycles, OptCycles: out.OptCycles,
		})
		achieved = append(achieved, out.Achieved)
		estimated = append(estimated, out.Estimated)
		errSum += out.Error
	}
	doc.GeomeanAchieved = kernels.GeoMean(achieved)
	doc.GeomeanEstimated = kernels.GeoMean(estimated)
	if len(rows) > 0 {
		doc.MeanError = errSum / float64(len(rows))
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
