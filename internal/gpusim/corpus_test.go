package gpusim_test

import (
	"context"
	"reflect"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/kernels"
	"gpa/internal/sass"
)

// captureSink keeps every sample in arrival order.
type captureSink struct{ samples []gpusim.Sample }

func (c *captureSink) Record(s gpusim.Sample) { c.samples = append(c.samples, s) }

// corpusVariant is one Table 3 kernel build, loaded straight into the
// simulator.
type corpusVariant struct {
	name   string
	prog   *gpusim.Program
	launch gpusim.LaunchConfig
	wl     gpusim.Workload
}

func corpusVariants(t *testing.T) []corpusVariant {
	t.Helper()
	var out []corpusVariant
	for _, b := range kernels.All() {
		for _, v := range []struct {
			tag string
			v   *kernels.Variant
		}{{"base", &b.Base}, {"opt", &b.Opt}} {
			mod, err := sass.Assemble(v.v.Asm)
			if err != nil {
				t.Fatalf("%s %s: %v", b.ID(), v.tag, err)
			}
			p, err := gpusim.Load(mod)
			if err != nil {
				t.Fatalf("%s %s: %v", b.ID(), v.tag, err)
			}
			var wl gpusim.Workload
			if v.v.Spec != nil {
				if wl, err = v.v.Spec.Bind(p); err != nil {
					t.Fatalf("%s %s: %v", b.ID(), v.tag, err)
				}
			}
			l := v.v.Launch
			entry := l.Entry
			if entry == "" {
				entry = mod.Kernels()[0].Name
			}
			out = append(out, corpusVariant{
				name: b.ID() + "/" + v.tag,
				prog: p,
				launch: gpusim.LaunchConfig{
					Entry:             entry,
					Grid:              gpusim.Dim3{X: l.GridX, Y: l.GridY, Z: l.GridZ},
					Block:             gpusim.Dim3{X: l.BlockX, Y: l.BlockY, Z: l.BlockZ},
					RegsPerThread:     l.RegsPerThread,
					SharedMemPerBlock: l.SharedMemPerBlock,
				},
				wl: wl,
			})
		}
	}
	return out
}

// TestCorpusFastForwardMatchesStepper extends the cycle-stepper oracle
// from the synthetic kernels to every Table 3 base and opt kernel at
// the profiler's default sample period: event skipping plus
// fast-forward must reproduce the stepper's Result and sample stream
// byte for byte, and fast-forward must fire with sampling on wherever
// it fires in an unsampled measurement.
func TestCorpusFastForwardMatchesStepper(t *testing.T) {
	if testing.Short() {
		t.Skip("steps every Table 3 kernel cycle by cycle")
	}
	for _, cv := range corpusVariants(t) {
		t.Run(cv.name, func(t *testing.T) {
			t.Parallel()
			cfg := gpusim.Config{GPU: arch.VoltaV100(), SimSMs: 4, Seed: 11, Parallelism: 1}
			measure, err := gpusim.Run(context.Background(), cv.prog, cv.launch, cv.wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			measureFF := measure.CyclesFastForwarded

			sampled := func(c gpusim.Config) (*gpusim.Result, []gpusim.Sample) {
				sink := &captureSink{}
				c.SamplePeriod, c.Sink = 64, sink
				res, err := gpusim.Run(context.Background(), cv.prog, cv.launch, cv.wl, c)
				if err != nil {
					t.Fatal(err)
				}
				return res, sink.samples
			}
			stepRes, stepSamples := sampled(gpusim.StepEveryCycle(cfg))
			skipRes, skipSamples := sampled(cfg)

			if measureFF > 0 && skipRes.CyclesFastForwarded == 0 {
				t.Errorf("fast-forward skipped %d cycles unsampled but none sampled (fallbacks %d)",
					measureFF, skipRes.FastForwardFallbacks)
			}
			got := *skipRes
			got.PeriodsDetected, got.CyclesFastForwarded, got.FastForwardFallbacks = 0, 0, 0
			if !reflect.DeepEqual(stepRes, &got) {
				t.Errorf("result differs from cycle stepper:\nstep: %+v\nskip: %+v", stepRes, skipRes)
			}
			if len(stepSamples) != len(skipSamples) {
				t.Fatalf("sample counts differ: step=%d skip=%d", len(stepSamples), len(skipSamples))
			}
			for i := range stepSamples {
				if stepSamples[i] != skipSamples[i] {
					t.Fatalf("sample %d differs:\nstep: %+v\nskip: %+v", i, stepSamples[i], skipSamples[i])
				}
			}
			t.Logf("cycles=%d ff measure=%d sampled=%d periods=%d fallbacks=%d",
				skipRes.Cycles, measureFF, skipRes.CyclesFastForwarded, skipRes.PeriodsDetected,
				skipRes.FastForwardFallbacks)
		})
	}
}
