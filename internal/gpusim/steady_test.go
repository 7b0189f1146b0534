package gpusim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"gpa/internal/arch"
	"gpa/internal/sass"
)

// nestedSrc re-enters a steady inner loop from an outer loop whose body
// ends in a barrier.
const nestedSrc = `
.func nested global
	MOV R0, 0x0 {S:2}
OUTER:
	MOV R1, 0x0 {S:2}
INNER:
	FFMA R2, R2, R3, R4 {S:4}
	IADD R1, R1, 0x1 {S:4}
	ISETP P0, R1, 0x20 {S:4}
BR1:	@P0 BRA INNER {S:5}
	IADD R0, R0, 0x1 {S:3}
	BAR.SYNC {S:2}
	IMAD R5, R5, R6, R7 {S:5}
	ISETP P1, R0, 0x8 {S:4}
BR0:	@P1 BRA OUTER {S:5}
	EXIT
`

// longPeriodSrc is a barrier loop of 200 long-stall instructions: a
// period of thousands of cycles.
var longPeriodSrc = ".func longp global\n\tMOV R0, 0x0 {S:2}\nLOOP:\n" +
	strings.Repeat("\tFFMA R1, R1, R2, R3 {S:15}\n", 200) +
	"\tBAR.SYNC {S:2}\n\tIADD R0, R0, 0x1 {S:4}\n\tISETP P0, R0, 0x20 {S:4}\nBR0:\t@P0 BRA LOOP {S:5}\n\tEXIT\n"

// steadyOracleCases are the kernel shapes the fast-forward oracle runs.
// The periodic cases are barrier-synchronized loops: the BAR.SYNC
// re-aligns every warp once per iteration, so the whole SM revisits the
// same relative state each period and the memoizer must lock on and
// skip. The aperiodic cases are barrier-free latency-bound loops: each
// warp free-runs with its own (constant, per-warp distinct) memory
// latency, warp phases drift apart forever, and the detector must give
// up and fall back to plain event stepping without perturbing results.
func steadyOracleCases() []struct {
	name         string
	src          string
	launch       LaunchConfig
	spec         *Spec
	samplePeriod int
	wantFF       bool
} {
	return []struct {
		name         string
		src          string
		launch       LaunchConfig
		spec         *Spec
		samplePeriod int
		wantFF       bool
	}{
		{
			// Lockstep barrier loop with sampling on: the sample period
			// divides the loop period, so the synthesized sample stream
			// inside fast-forwarded spans is exercised and must be
			// byte-identical to stepping.
			name:         "lockstep-sampled",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 1,
			wantFF:       true,
		},
		{
			// Same shape at full-width launch: more blocks per SM, still
			// periodic, bigger skips.
			name:         "lockstep-wide",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 1,
			wantFF:       true,
		},
		{
			// Sampling period coprime to the loop period with two warps
			// per scheduler: consecutive skipped periods put the ticks on
			// different relative cycles, different schedulers and
			// different warps, so the span's samples come from the cell
			// table walked by the live sampling state, not a replay.
			name:         "lockstep-p37",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 37,
			wantFF:       true,
		},
		{
			// The profiler's default period at full width: eight warps
			// per scheduler.
			name:         "lockstep-wide-p64",
			src:          syncSrc,
			launch:       LaunchConfig{Entry: "syncy", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}},
			samplePeriod: 64,
			wantFF:       true,
		},
		{
			// Two steady phases under a coprime sampling period: the
			// second template is recorded at whatever tick phase the
			// first phase's end left behind.
			name:   "divergent-phases-p37",
			src:    syncSrc,
			launch: LaunchConfig{Entry: "syncy", Grid: Dim(8), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: func(w WarpCtx) int {
				if w.WarpInBlock%2 == 1 {
					return 900
				}
				return 300
			}}},
			samplePeriod: 37,
			wantFF:       true,
		},
		{
			// A steady inner loop re-entered by an outer loop: every
			// inner stretch has the same fingerprint, but the outer body
			// shifts the tick phase between stretches. The sample period
			// shares a large factor g with the 18-cycle inner period, so
			// a later stretch matches the template on a tick residue mod
			// g the cell table does not cover and must re-record.
			name:   "nested-p36",
			src:    nestedSrc,
			launch: LaunchConfig{Entry: "nested", Grid: Dim(8), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{Trips: map[Site]TripFunc{
				{"nested", "BR1"}: UniformTrips(60),
				{"nested", "BR0"}: UniformTrips(6),
			}},
			samplePeriod: 36,
			wantFF:       true,
		},
		{
			// A barrier loop whose period is so long that its cell table
			// at a coprime sample period would exceed steadyMaxCells:
			// unsampled it fast-forwards, sampled it must decline to
			// record and step instead.
			name:         "long-period-p37",
			src:          longPeriodSrc,
			launch:       LaunchConfig{Entry: "longp", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"longp", "BR0"}: UniformTrips(24)}},
			samplePeriod: 37,
			wantFF:       false,
		},
		{
			// Divergent trip counts, sampling off: the run has two steady
			// phases (all warps looping, then only the long-trip warps)
			// with a re-detection in between.
			name:   "divergent-phases",
			src:    syncSrc,
			launch: LaunchConfig{Entry: "syncy", Grid: Dim(8), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: func(w WarpCtx) int {
				if w.WarpInBlock%2 == 1 {
					return 900
				}
				return 300
			}}},
			samplePeriod: 0,
			wantFF:       true,
		},
		{
			// Barrier-free memory-bound loop: per-warp latency jitter is
			// constant per warp but distinct across warps, so warp phases
			// drift and no SM-level period exists. The detector must not
			// fire (and must not distort the result trying).
			name:         "membound-aperiodic",
			src:          memBoundSrc,
			launch:       LaunchConfig{Entry: "membound", Grid: Dim(16), Block: Dim(256), RegsPerThread: 16},
			spec:         &Spec{Trips: map[Site]TripFunc{{"membound", "BR0"}: UniformTrips(120)}},
			samplePeriod: 32,
			wantFF:       false,
		},
		{
			// Exit-with-pending-loads shape, also barrier-free.
			name:   "tailload-aperiodic",
			src:    tailLoadSrc,
			launch: LaunchConfig{Entry: "tailload", Grid: Dim(12), Block: Dim(256), RegsPerThread: 16},
			spec: &Spec{
				Trips:        map[Site]TripFunc{{"tailload", "BR0"}: UniformTrips(40)},
				Transactions: map[Site]int{{"tailload", "LOOP"}: 16},
			},
			samplePeriod: 32,
			wantFF:       false,
		},
	}
}

// zeroFFCounters returns a copy of res with the fast-forward activity
// counters cleared. The cycle stepper never fast-forwards, so these are
// the only Result fields allowed to differ between the stepper oracle
// and a memoized run.
func zeroFFCounters(res *Result) *Result {
	c := *res
	c.PeriodsDetected = 0
	c.CyclesFastForwarded = 0
	c.FastForwardFallbacks = 0
	return &c
}

// TestSteadyFastForwardMatchesOracle pins the memoizer's correctness
// contract on every registered architecture: with fast-forward firing
// (periodic cases) or armed but never firing (aperiodic cases), results
// and sample streams must be byte-identical to the retained
// cycle-by-cycle stepper, at sequential and concurrent SM parallelism.
func TestSteadyFastForwardMatchesOracle(t *testing.T) {
	for _, g := range arch.All() {
		for _, tc := range steadyOracleCases() {
			t.Run(arch.KeyOf(g)+"/"+tc.name, func(t *testing.T) {
				m := sass.MustAssemble(tc.src)
				p, err := Load(m)
				if err != nil {
					t.Fatal(err)
				}
				wl, err := tc.spec.Bind(p)
				if err != nil {
					t.Fatal(err)
				}
				run := func(step bool, parallelism int) (*Result, []Sample) {
					t.Helper()
					gc := *g
					gc.NumSMs = 4
					cfg := Config{
						GPU: &gc, SimSMs: 4, Seed: 7,
						Parallelism: parallelism, stepEveryCycle: step,
					}
					var sink *captureSink
					if tc.samplePeriod > 0 {
						sink = &captureSink{}
						cfg.SamplePeriod = tc.samplePeriod
						cfg.Sink = sink
					}
					res, err := Run(context.Background(), p, tc.launch, wl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if sink == nil {
						return res, nil
					}
					return res, sink.samples
				}
				stepRes, stepSamples := run(true, 1)
				if stepRes.PeriodsDetected != 0 || stepRes.CyclesFastForwarded != 0 {
					t.Fatalf("cycle stepper fast-forwarded: %+v", stepRes)
				}
				var first *Result
				for _, par := range []int{1, 4} {
					skipRes, skipSamples := run(false, par)
					if tc.wantFF {
						if skipRes.PeriodsDetected == 0 || skipRes.CyclesFastForwarded == 0 {
							t.Errorf("parallelism %d: fast-forward did not fire: detected=%d ffCycles=%d",
								par, skipRes.PeriodsDetected, skipRes.CyclesFastForwarded)
						}
					} else if skipRes.PeriodsDetected != 0 {
						t.Errorf("parallelism %d: aperiodic kernel locked a period: detected=%d ffCycles=%d",
							par, skipRes.PeriodsDetected, skipRes.CyclesFastForwarded)
					}
					// The FF counters themselves must be deterministic
					// across parallelism modes.
					if first == nil {
						first = skipRes
					} else if !reflect.DeepEqual(first, skipRes) {
						t.Errorf("parallelism %d: result differs from parallelism 1:\npar1: %+v\npar%d: %+v",
							par, first, par, skipRes)
					}
					if !reflect.DeepEqual(stepRes, zeroFFCounters(skipRes)) {
						t.Errorf("parallelism %d: result differs from cycle stepper:\nstep: %+v\nskip: %+v",
							par, stepRes, skipRes)
					}
					if len(stepSamples) != len(skipSamples) {
						t.Fatalf("parallelism %d: sample counts differ: step=%d skip=%d",
							par, len(stepSamples), len(skipSamples))
					}
					for i := range stepSamples {
						if stepSamples[i] != skipSamples[i] {
							t.Fatalf("parallelism %d: sample %d differs:\nstep: %+v\nskip: %+v",
								par, i, stepSamples[i], skipSamples[i])
						}
					}
				}
			})
		}
	}
}

// TestSteadyStatefulWorkloadNeverFastForwards pins the capability gate:
// a Workload that does not implement TakenStability (here: a stateful
// Taken closure wrapped to hide the interface) must run entirely on the
// normal path — identical results, zero detector activity.
func TestSteadyStatefulWorkloadNeverFastForwards(t *testing.T) {
	m := sass.MustAssemble(syncSrc)
	p, err := Load(m)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Trips: map[Site]TripFunc{{"syncy", "BR0"}: UniformTrips(400)}}
	wl, err := spec.Bind(p)
	if err != nil {
		t.Fatal(err)
	}
	launch := LaunchConfig{Entry: "syncy", Grid: Dim(4), Block: Dim(256), RegsPerThread: 16}
	run := func(w Workload) *Result {
		gc := *arch.VoltaV100()
		gc.NumSMs = 4
		res, err := Run(context.Background(), p, launch, w, Config{
			GPU: &gc, SimSMs: 4, Seed: 7, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ffRes := run(wl)
	if ffRes.PeriodsDetected == 0 {
		t.Fatal("periodic control run did not fast-forward; the gate test would be vacuous")
	}
	plainRes := run(opaqueWorkload{wl})
	if plainRes.PeriodsDetected != 0 || plainRes.CyclesFastForwarded != 0 {
		t.Errorf("opaque workload fast-forwarded: %+v", plainRes)
	}
	if !reflect.DeepEqual(zeroFFCounters(ffRes), plainRes) {
		t.Errorf("fast-forwarded result differs from plain run:\nff:    %+v\nplain: %+v", ffRes, plainRes)
	}
}

// opaqueWorkload forwards the Workload methods but hides any optional
// capability interfaces of the wrapped value.
type opaqueWorkload struct{ wl Workload }

func (o opaqueWorkload) Taken(w WarpCtx, pc, visit int) bool  { return o.wl.Taken(w, pc, visit) }
func (o opaqueWorkload) Latency(w WarpCtx, pc, visit int) int { return o.wl.Latency(w, pc, visit) }
func (o opaqueWorkload) Transactions(pc int) int              { return o.wl.Transactions(pc) }

// TestTakenRunClosedForm pins the modular arithmetic behind
// boundWorkload.TakenRun against brute force over the actual Taken
// outcomes.
func TestTakenRunClosedForm(t *testing.T) {
	for _, trips := range []int{0, 1, 2, 3, 7, 90} {
		b := &boundWorkload{trips: map[int]TripFunc{4: UniformTrips(trips)}}
		w := WarpCtx{}
		for visit := 0; visit < 2*(trips+2); visit++ {
			for _, stride := range []int{1, 2, 3, trips, trips + 1} {
				for _, want := range []bool{false, true} {
					const limit = 50
					got := b.TakenRun(w, 4, visit, stride, want, limit)
					brute := int64(0)
					for brute < limit && b.Taken(w, 4, visit+int(brute)*stride) == want {
						brute++
					}
					if got != brute {
						t.Fatalf("TakenRun(trips=%d, visit=%d, stride=%d, want=%v) = %d, brute force = %d",
							trips, visit, stride, want, got, brute)
					}
				}
			}
		}
	}
	// Explicit Taken patterns are opaque: unknown.
	b := &boundWorkload{taken: map[int]func(WarpCtx, int) bool{4: func(WarpCtx, int) bool { return true }}}
	if got := b.TakenRun(WarpCtx{}, 4, 0, 1, true, 10); got != -1 {
		t.Errorf("TakenRun on an explicit pattern = %d, want -1 (unknown)", got)
	}
}
