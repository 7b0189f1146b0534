package kernels

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpa"
)

// siblingBound is how long Run may take once one of its two steps has
// failed or its ctx is canceled. A sibling left running takes several
// times longer (longVariant), so a missing cancellation fails the bound
// instead of merely slowing the test.
const siblingBound = 2 * time.Second

// longVariant is the myocyte solver_2 baseline at 3000 loop trips: its
// loop does not fast-forward, so one simulation steps through about 43M
// cycles (under the 50M-cycle limit), about 5 s on one core.
func longVariant(t *testing.T) Variant {
	t.Helper()
	row := Find("rodinia/myocyte")
	if len(row) < 2 {
		t.Fatal("no rodinia/myocyte solver_2 row")
	}
	base := row[1].Base
	return Variant{Asm: base.Asm, Launch: base.Launch, Spec: &gpa.WorkloadSpec{
		Trips: map[gpa.Site]gpa.TripFunc{{Func: "solver_2", Label: "BR0"}: gpa.UniformTrips(3000)},
	}}
}

// unfitVariant is longVariant with a launch no SM can hold: it builds,
// then fails with ErrBadKernel as soon as its simulation starts.
func unfitVariant(t *testing.T) Variant {
	v := longVariant(t)
	v.Launch.SharedMemPerBlock = 1 << 30
	return v
}

// runRow runs b after building both variants (so the timing covers the
// simulations only) and returns Run's error and wall time.
func runRow(t *testing.T, ctx context.Context, b *Benchmark) (time.Duration, error) {
	t.Helper()
	for _, v := range []*Variant{&b.Base, &b.Opt} {
		if _, _, err := v.Build(); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := b.Run(ctx, RunOptions{Seed: 1})
	return time.Since(start), err
}

// TestRunReturnsFailingStepError pins the direct path's error contract:
// when one of the row's two simulations fails, Run cancels the other
// and returns the failing step's own error, never the sibling's induced
// cancellation.
func TestRunReturnsFailingStepError(t *testing.T) {
	for _, tc := range []struct {
		name, step string
		base, opt  Variant
	}{
		{"opt fails", "opt measure", longVariant(t), unfitVariant(t)},
		{"base fails", "advise", unfitVariant(t), longVariant(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &Benchmark{App: "test", Kernel: "solver_2", Optimization: tc.name,
				Base: tc.base, Opt: tc.opt}
			elapsed, err := runRow(t, context.Background(), b)
			if !errors.Is(err, gpa.ErrBadKernel) || errors.Is(err, gpa.ErrCanceled) {
				t.Fatalf("Run error %v, want the failing step's ErrBadKernel", err)
			}
			if !strings.Contains(err.Error(), tc.step) {
				t.Errorf("Run error %q does not name the failing step %q", err, tc.step)
			}
			if elapsed > siblingBound {
				t.Errorf("Run took %v after a step failed; the sibling was not canceled", elapsed)
			}
		})
	}
}

// TestRunCanceledMidRow cancels the caller's ctx while both simulations
// run: Run returns ErrCanceled promptly and leaves no goroutine behind.
func TestRunCanceledMidRow(t *testing.T) {
	b := &Benchmark{App: "test", Kernel: "solver_2", Optimization: "cancel",
		Base: longVariant(t), Opt: longVariant(t)}
	for _, v := range []*Variant{&b.Base, &b.Opt} {
		if _, _, err := v.Build(); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	elapsed, err := runRow(t, ctx, b)
	if !errors.Is(err, gpa.ErrCanceled) {
		t.Fatalf("Run error %v, want ErrCanceled", err)
	}
	if elapsed > siblingBound {
		t.Errorf("Run took %v to honor a cancel", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
