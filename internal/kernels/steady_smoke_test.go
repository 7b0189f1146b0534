package kernels

import (
	"context"
	"testing"

	"gpa"
	"gpa/internal/gpusim"
)

// TestSteadyFastForwardFiresOnCorpus pins that the steady-state
// memoizer is live on the evaluation corpus, not just on synthetic
// oracle kernels: measuring and profiling the nw baseline (a
// barrier-synchronized wavefront loop, periodic at the SM level) must
// each detect a period and skip cycles, the sampled run as much as the
// unsampled one. The FF counters are process-wide (gpusim.FFStats), so
// the test asserts on deltas around each run.
func TestSteadyFastForwardFiresOnCorpus(t *testing.T) {
	rows := Find("rodinia/nw")
	if len(rows) == 0 {
		t.Fatal("no rodinia/nw row")
	}
	k, wl, err := rows[0].Base.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := &gpa.Options{Workload: wl, Seed: 11, SimSMs: 4, Parallelism: 1}
	skipped := map[string]int64{}
	for _, run := range []struct {
		name string
		fn   func() (int64, error)
	}{
		{"Measure", func() (int64, error) { return k.Measure(context.Background(), opts) }},
		{"Profile", func() (int64, error) {
			prof, err := k.Profile(context.Background(), opts)
			if err != nil {
				return 0, err
			}
			return prof.Cycles, nil
		}},
	} {
		p0, c0, _ := gpusim.FFStats()
		cycles, err := run.fn()
		if err != nil {
			t.Fatal(err)
		}
		p1, c1, _ := gpusim.FFStats()
		if p1-p0 <= 0 || c1-c0 <= 0 {
			t.Errorf("%s: fast-forward did not fire on rodinia/nw: periods=%d cyclesSkipped=%d",
				run.name, p1-p0, c1-c0)
		}
		if c1-c0 >= cycles*4 {
			t.Errorf("%s: skipped %d cycles but 4 SMs only simulate %d total", run.name, c1-c0, cycles*4)
		}
		skipped[run.name] = c1 - c0
	}
	if skipped["Profile"] != skipped["Measure"] {
		t.Errorf("sampling changed the cycles fast-forwarded: Measure %d, Profile %d",
			skipped["Measure"], skipped["Profile"])
	}
}
