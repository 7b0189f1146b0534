package kernels

import (
	"context"
	"testing"

	"gpa"
)

// TestBaseCyclesFromAdviseRun pins the invariant Benchmark.Run relies
// on to simulate each baseline once: the advise run's sampled profile
// reports exactly the cycle count an unsampled Measure of the baseline
// returns, on the direct and Engine paths alike.
func TestBaseCyclesFromAdviseRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Table 3 row at ten seed/SimSMs settings")
	}
	eng := gpa.NewEngine(nil)
	for _, b := range All() {
		t.Run(b.ID(), func(t *testing.T) {
			t.Parallel()
			k, wl, err := b.Base.Build()
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 5; seed++ {
				for _, simSMs := range []int{1, 4} {
					want, err := k.Measure(context.Background(), &gpa.Options{
						Workload: wl, Seed: seed, SimSMs: simSMs, Parallelism: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, ro := range []RunOptions{
						{Seed: seed, SimSMs: simSMs},
						{Seed: seed, SimSMs: simSMs, Engine: eng},
					} {
						out, err := b.Run(context.Background(), ro)
						if err != nil {
							t.Fatal(err)
						}
						if out.BaseCycles != want {
							t.Errorf("seed %d SimSMs %d %s: BaseCycles %d, Base.Measure %d",
								seed, simSMs, path(ro), out.BaseCycles, want)
						}
					}
				}
			}
		})
	}
}

func path(ro RunOptions) string {
	if ro.Engine != nil {
		return "engine"
	}
	return "direct"
}
