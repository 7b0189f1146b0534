package gpusim

// Steady-state loop memoization. Most kernels spend the bulk of their
// cycles in a periodic steady state inside their hot loops: every
// scheduler revisits the same relative state once per loop iteration,
// so simulating iteration i+1 re-derives exactly the state of
// iteration i shifted by a constant number of cycles. The memoizer
// detects that recurrence and fast-forwards whole periods analytically:
//
//  1. DETECT. Every time the anchor warp (warp 0, re-elected if it
//     parks) issues a taken backward branch, the run loop snapshots a
//     fingerprint of the SM's behaviorally visible state, encoded
//     RELATIVE to the current cycle (see (*sm).fingerprint). A
//     fingerprint matching the previous anchor's (or, for periods
//     spanning several back-edges, a retained power-of-two anchor à la
//     Brent's algorithm) makes the span a period candidate of P cycles.
//     Sampling state (the tick phase, the tick counter, each
//     scheduler's sampled-warp pointer) is not in the fingerprint: a
//     sample tick only reads simulation state, so sampled and unsampled
//     runs lock the same periods.
//  2. RECORD. The next candidate period is simulated normally while
//     recording a template: every branch execution (with its Taken
//     outcome), the sparse per-PC issue delta, and the
//     instruction-cache lines touched. With sampling on it also fills a
//     cell table: at every relative cycle r ≡ r₀ (mod g), g =
//     gcd(P, SamplePeriod), the (PC, Reason, Active) each warp would
//     report if a tick landed there. Ticks inside a fast-forwarded span
//     fall only on those residues, so P/g rows of cells cover every
//     tick of every skipped period whatever the tick phase. The
//     recording is valid only if it lasts exactly P cycles, the
//     fingerprint at the end matches the start, and the period was
//     instruction-cache-miss free (then the untouched LRU stamps are
//     never read in-period and stay out of the fingerprint soundly).
//  3. FAST-FORWARD. At an anchor whose fingerprint matches the
//     template's, k whole periods are skipped at once: the workload is
//     asked (through the TakenStability capability) for how many
//     periods the recorded branch outcomes stay valid, k is capped by
//     MaxCycles, every pending absolute cycle field is shifted by k·P
//     (sentinels and expired gates preserved), and visits and issue
//     counters advance by k times the recorded deltas. Each sample tick
//     inside the span is synthesized the way sampleTick would take it:
//     the tick counter picks the scheduler, the scheduler's sampled-warp
//     pointer walks its live warps, and the cell at
//     ((t − anchor − r_first) mod P)/g supplies what that warp reports —
//     byte-identical to stepping, because the span's state is
//     byte-equivalent by construction.
//
// Fall back to normal event-skipped stepping whenever no period is
// found, a recording is invalidated (fingerprint drift, icache miss,
// block rotation or barrier phase change — all of which perturb the
// fingerprint — or a period length other than the candidate's), the
// workload cannot promise future branch outcomes, zero whole periods
// fit before the next outcome change. A sampled anchor whose tick
// residue mod g differs from the recording's also falls back, and
// records the period again at its own phase. The retained cycle
// stepper (Config.stepEveryCycle) stays the oracle: results and sample
// streams must be bit-identical with memoization on.

// TakenStability is an optional Workload capability that enables
// steady-state fast-forward. Implementations promise that Taken is a
// pure function of (warp, pc, visit) and report how far ahead its
// outcomes are known. Workloads bound from a Spec and the NopWorkload
// implement it; a Workload without it never fast-forwards (stateful
// Taken callbacks stay observably untouched).
type TakenStability interface {
	// TakenRun reports for how many consecutive steps j = 0, 1, 2, ...
	// (up to limit) Taken(w, pc, visit+j*stride) equals want. A
	// negative result means "unknown": the simulator must not assume
	// anything about future outcomes.
	TakenRun(w WarpCtx, pc, visit, stride int, want bool, limit int64) int64
}

// snapshot is one fingerprint: the encoded relative state. Comparison
// is a plain word walk — non-periodic states diverge within the first
// few words (MSHR occupancy, release phases), so an early-exit compare
// beats maintaining a hash on every capture.
type snapshot struct {
	words []int64
}

func (s *snapshot) equal(o *snapshot) bool {
	if len(s.words) != len(o.words) {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

func (s *snapshot) copyFrom(o *snapshot) {
	s.words = append(s.words[:0], o.words...)
}

// steadyExec records one dynamic branch execution inside the template
// period. relVisit is the execution's visit counter relative to the
// period start for its (warp, pc) site; stride is how many times that
// site executes per period. probe marks conditional branches whose
// outcome must be re-validated before a fast-forward (unconditional
// branches advance the visit counter but have no outcome to check).
type steadyExec struct {
	widx, pc         int32
	relVisit, stride int32
	outcome, probe   bool
}

// steadyIssued is one entry of the sparse per-period issue-count delta.
type steadyIssued struct {
	pc    int32
	count int32
}

// steadyTouch records an icache line the period touches; relStamp is
// its end-of-period LRU stamp relative to the period-end cycle (≤ 0).
type steadyTouch struct {
	line     int32
	relStamp int64
}

// sampleCell is what one warp would report to a sample tick at one
// recorded relative cycle: the sampled PC, the stall reason, and
// whether its scheduler issued that cycle.
type sampleCell struct {
	pc     int32
	reason StallReason
	active bool
}

// steadyMaxCells caps a recording's cell table (rows × warps, 8 bytes a
// cell), which a pooled SM shell keeps between runs. A sampled period
// whose table would exceed it is not recorded and steps instead; the
// Table 3 baselines need 104–7,920 cells at sample period 64.
const steadyMaxCells = 1 << 16

// steadyState is the per-SM detector. It lives on the sm struct and is
// recycled with it: resetSteady keeps every backing array, so a warm
// run detects and fast-forwards without allocating.
type steadyState struct {
	stab    TakenStability // nil disables the memoizer
	enabled bool

	anchorWarp int
	anchorHit  bool // set by issue() on the anchor warp's taken back-edge
	anchorIdx  int64

	// Detection snapshots: the current anchor, the previous anchor
	// (period = 1 back-edge), and a retained power-of-two anchor for
	// longer periods (Brent's cycle-finding: the stored snapshot moves
	// to the current anchor at anchor indices 1, 2, 4, 8, ...). prevNow
	// and brentNow are the cycles they were taken at.
	cur, prev, brent   snapshot
	prevValid, brentOK bool
	brentIdx, brentPow int64
	prevNow, brentNow  int64

	// Recording state.
	recording  bool
	recordLeft int64 // anchors until the candidate period closes
	anchors    int64 // anchor back-edges per candidate period
	baseNow    int64
	baseMiss   int64
	base       snapshot // fingerprint at the period start
	issuedBase []int64  // issuedPerPC copy at the period start
	icacheBase []int64  // icacheUse copy at the period start
	strideMap  map[int64]int32

	// Sample cells, filled while recording with sampling on: one row of
	// len(warps) cells per relative cycle cellFirst + i·cellGap in
	// (0, period]. cellNext is the absolute cycle of the next capture
	// (farFuture when none is due).
	cells     []sampleCell
	cellGap   int64
	cellFirst int64
	cellNext  int64

	// Template (valid only while valid is set).
	valid       bool
	period      int64 // cycles per period (the candidate's while recording)
	execs       []steadyExec
	touches     []steadyTouch
	issuedDelta []steadyIssued

	missCount int64 // icache misses this run (recording validity check)

	// dry counts consecutive anchors with no fingerprint match at all;
	// past steadyGiveUp the detector disables itself for the run —
	// aperiodic kernels (per-warp latency spread keeps warp phases
	// drifting) should not pay the capture cost forever.
	dry int64

	// Counters surfaced through Result and FFStats.
	detected  int64
	ffCycles  int64
	fallbacks int64
}

// resetSteady reinitializes the detector for a run, keeping every
// backing array so a recycled SM shell detects without allocating.
func resetSteady(st steadyState, wl Workload, step bool) steadyState {
	stab, _ := wl.(TakenStability)
	out := steadyState{
		stab:     stab,
		enabled:  stab != nil && !step,
		brentPow: 1,
		cur:      snapshot{words: st.cur.words[:0]},
		prev:     snapshot{words: st.prev.words[:0]},
		brent:    snapshot{words: st.brent.words[:0]},
		base:     snapshot{words: st.base.words[:0]},

		issuedBase:  st.issuedBase[:0],
		icacheBase:  st.icacheBase[:0],
		strideMap:   st.strideMap,
		cells:       st.cells[:0],
		cellNext:    farFuture,
		execs:       st.execs[:0],
		touches:     st.touches[:0],
		issuedDelta: st.issuedDelta[:0],
	}
	return out
}

// reelect moves the anchor to a warp that still takes back-edges after
// the previous anchor warp parked (exited or barrier-blocked), and
// restarts detection from scratch: fingerprints keyed to the old
// anchor's phase are meaningless for the new one.
func (st *steadyState) reelect(widx int) {
	st.anchorWarp = widx
	st.anchorIdx = 0
	st.prevValid, st.brentOK, st.valid, st.recording = false, false, false, false
	st.brentIdx, st.brentPow = 0, 1
	st.cellNext = farFuture
}

// Fingerprint encodings for cycle-valued fields. Values at or below
// the current cycle are behaviorally spent — every consumer compares
// them against "now" with > — so they all encode as 0; pending values
// encode as their distance from now; the two wake-sentinels keep
// distinct codes (whether a scheduler's boundMSHR entries are still
// current is per-scheduler state, carried in its flags word).
const (
	encFar      = int64(-2)
	encMSHRLive = int64(-3)
	encIdle     = int64(-1) // absent / expired marker for paired fields
)

// steadyGiveUp is how many consecutive matchless anchors the detector
// tolerates before disabling itself for the run.
const steadyGiveUp = 128

func encTime(v, now int64) int64 {
	switch {
	case v == farFuture:
		return encFar
	case v == boundMSHR:
		return encMSHRLive
	case v <= now:
		return 0
	}
	return v - now
}

// fingerprint encodes the SM's behaviorally visible state relative to
// cycle now into snap. Two cycles with equal fingerprints are
// behaviorally equivalent: every future scheduling decision, sample,
// and issue depends only on the encoded quantities (plus the visit
// counters, which are deliberately excluded — they advance monotonically
// and are validated separately through TakenStability — and the icache
// LRU stamps, which recordings prove unread by requiring miss-free
// periods). Sampling state is excluded too: sampleTick writes only the
// tick counter and the sampled-warp pointers, and no simulation decision
// reads them.
func (s *sm) fingerprint(snap *snapshot, now int64) {
	w := snap.words[:0]

	// SM-globals.
	w = append(w,
		int64(s.nextBlock),
		int64(len(s.warps)),
		int64(s.mshrFree),
		encTime(s.minRelease, now),
		encTime(s.fetchBusy, now),
		int64(s.icacheResident),
		int64(len(s.releases)),
	)
	for _, r := range s.releases {
		w = append(w, r.cycle-now, int64(r.count))
	}
	for i := range s.slots {
		bs := &s.slots[i]
		flags := int64(bs.arrived)<<2 | int64(bs.aliveCount)<<10
		if bs.done {
			flags |= 1
		}
		w = append(w, flags)
	}
	// Instruction-cache residency bitvector (stamps excluded; see the
	// miss-free recording rule).
	var bitsAcc int64
	for line, use := range s.icacheUse {
		if use >= 0 {
			bitsAcc |= 1 << (line & 63)
		}
		if line&63 == 63 {
			w = append(w, bitsAcc)
			bitsAcc = 0
		}
	}
	w = append(w, bitsAcc)

	for si := range s.scheds {
		sc := &s.scheds[si]
		flags := int64(sc.rotate) << 2
		if sc.throttled {
			flags |= 1
		}
		if sc.mshrSeen != s.mshrGen {
			// Stale throttle bounds: the next scan re-probes every
			// boundMSHR entry, so staleness is behaviorally visible.
			flags |= 2
		}
		w = append(w, flags, encTime(sc.nextReady, now))
		for _, busy := range sc.unitBusy {
			w = append(w, encTime(busy, now))
		}
		for _, b := range sc.bounds {
			w = append(w, encTime(b, now))
		}
	}

	for i := range s.warps {
		wp := &s.warps[i]
		if wp.exited {
			w = append(w, encIdle)
			continue
		}
		flags := int64(wp.pc)<<2 | int64(wp.slot)<<32
		if wp.barWait {
			flags |= 1
		}
		w = append(w, flags, int64(wp.ctx.Block), int64(len(wp.callStack)))
		for _, ret := range wp.callStack {
			w = append(w, int64(ret))
		}
		if wp.nextIssue > now {
			w = append(w, wp.nextIssue-now, int64(wp.issueStall))
		} else {
			w = append(w, 0, encIdle)
		}
		w = append(w, encTime(wp.fetchReady, now))
		for b := range wp.barReady {
			if r := wp.barReady[b]; r > now {
				w = append(w, r-now, int64(wp.barReason[b]))
			} else {
				w = append(w, 0, encIdle)
			}
		}
		if wp.lastIssueCycle == now && now > 0 {
			w = append(w, int64(wp.lastIssuedPC))
		} else {
			w = append(w, encIdle)
		}
	}

	snap.words = w
}

// steadyAnchor runs the detector at a loop back-edge of the anchor
// warp: it advances detection, closes recordings, and applies a
// fast-forward when the template matches. It returns the (possibly
// advanced) current cycle and next sample tick.
func (s *sm) steadyAnchor(now, nextTick, samplePeriod, maxCycles int64) (int64, int64) {
	st := &s.steady
	st.anchorIdx++
	s.fingerprint(&st.cur, now)

	closing := false
	if st.recording {
		if st.recordLeft--; st.recordLeft <= 0 {
			st.recording = false
			st.cellNext = farFuture
			closing = true
			if st.cur.equal(&st.base) && st.missCount == st.baseMiss && now-st.baseNow == st.period {
				s.finalizeTemplate(now)
			} else {
				st.fallbacks++
			}
		}
	}

	if !st.recording {
		if st.valid && st.cur.equal(&st.base) {
			st.dry = 0
			if s.sink != nil && samplePeriod > 0 && (nextTick-now-st.cellFirst)%st.cellGap != 0 {
				// The tick phase moved since the recording (an outer
				// loop re-entered this steady state): the cell table
				// covers none of this span's ticks. Re-record the same
				// period at the current phase.
				st.fallbacks++
				s.startRecord(now, nextTick, samplePeriod, st.anchors, st.period)
			} else if k := s.steadyK(now, maxCycles); k >= 1 {
				now, nextTick = s.fastForward(now, nextTick, samplePeriod, k)
			} else {
				st.fallbacks++
			}
		} else if !closing && st.prevValid && st.cur.equal(&st.prev) {
			st.dry = 0
			s.startRecord(now, nextTick, samplePeriod, 1, now-st.prevNow)
		} else if !closing && st.brentOK && st.anchorIdx > st.brentIdx && st.cur.equal(&st.brent) {
			st.dry = 0
			s.startRecord(now, nextTick, samplePeriod, st.anchorIdx-st.brentIdx, now-st.brentNow)
		} else if st.dry++; st.dry > steadyGiveUp && !st.valid {
			// Nothing has ever matched: this SM's state is drifting, not
			// cycling (typical for latency-bound loops whose per-warp
			// constant latencies differ). Stop paying the capture cost.
			st.enabled = false
		}
	} else {
		st.dry = 0
	}

	// Rotate the detection snapshots. A fast-forward leaves the
	// relative state (hence cur) unchanged, so cur stays the correct
	// previous-anchor snapshot either way.
	st.prev.copyFrom(&st.cur)
	st.prevValid = true
	st.prevNow = now
	if st.anchorIdx >= st.brentPow {
		st.brent.copyFrom(&st.cur)
		st.brentIdx = st.anchorIdx
		st.brentNow = now
		st.brentOK = true
		st.brentPow *= 2
	}
	return now, nextTick
}

// startRecord begins recording a candidate period of the given length
// in anchor back-edges and cycles. With sampling on it arms the cell
// captures: the first relative cycle in (0, cycles] on the pending
// tick's residue mod g, then every g cycles.
func (s *sm) startRecord(now, nextTick, samplePeriod, anchors, cycles int64) {
	st := &s.steady
	sampled := s.sink != nil && samplePeriod > 0
	g := gcd64(cycles, samplePeriod)
	if sampled && cycles/g*int64(len(s.warps)) > steadyMaxCells {
		st.fallbacks++
		return
	}
	st.cells = st.cells[:0]
	st.cellNext = farFuture
	if sampled {
		st.cellGap = g
		st.cellFirst = (nextTick-now-1)%g + 1
		st.cellNext = now + st.cellFirst
	}
	st.recording = true
	st.valid = false
	st.recordLeft = anchors
	st.anchors = anchors
	st.period = cycles
	st.baseNow = now
	st.baseMiss = st.missCount
	st.base.copyFrom(&st.cur)
	st.execs = st.execs[:0]
	st.issuedBase = append(st.issuedBase[:0], s.issuedPerPC...)
	st.icacheBase = append(st.icacheBase[:0], s.icacheUse...)
}

// captureCells appends the cell row for cycle at: what each warp would
// report to a sample tick there (exited warps are never sampled and
// keep a zero cell). The run loop calls it at each armed capture cycle,
// in the loop body or inside an event skip, exactly where a sample tick
// would fire.
func (s *sm) captureCells(at int64) {
	st := &s.steady
	for i := range s.warps {
		var c sampleCell
		if w := &s.warps[i]; !w.exited {
			c = s.observe(&s.scheds[i%len(s.scheds)], w, at)
		}
		st.cells = append(st.cells, c)
	}
	if st.cellNext += st.cellGap; st.cellNext-st.baseNow > st.period {
		st.cellNext = farFuture
	}
}

// finalizeTemplate turns a validated recording into an applicable
// template: per-site visit strides, the sparse issue delta, and the
// touched icache lines with their end-of-period stamps.
func (s *sm) finalizeTemplate(now int64) {
	st := &s.steady
	if st.strideMap == nil {
		st.strideMap = make(map[int64]int32, 16)
	}
	clear(st.strideMap)
	for i := range st.execs {
		e := &st.execs[i]
		key := int64(e.widx)<<32 | int64(e.pc)
		e.relVisit = st.strideMap[key]
		st.strideMap[key] = e.relVisit + 1
	}
	for i := range st.execs {
		e := &st.execs[i]
		e.stride = st.strideMap[int64(e.widx)<<32|int64(e.pc)]
	}
	st.issuedDelta = st.issuedDelta[:0]
	for pc, n := range s.issuedPerPC {
		if d := n - st.issuedBase[pc]; d != 0 {
			st.issuedDelta = append(st.issuedDelta, steadyIssued{pc: int32(pc), count: int32(d)})
		}
	}
	st.touches = st.touches[:0]
	for line, use := range s.icacheUse {
		if use != st.icacheBase[line] {
			st.touches = append(st.touches, steadyTouch{line: int32(line), relStamp: use - now})
		}
	}
	st.valid = true
	st.detected++
}

// steadyK computes how many whole periods can be skipped from the
// current anchor: the minimum over every conditional branch in the
// template of how long the workload promises its recorded outcome,
// capped so the run never overshoots MaxCycles.
func (s *sm) steadyK(now, maxCycles int64) int64 {
	st := &s.steady
	k := (maxCycles - now) / st.period
	if k <= 0 {
		return 0
	}
	for i := range st.execs {
		e := &st.execs[i]
		if !e.probe {
			continue
		}
		w := &s.warps[e.widx]
		visit := int(w.visits[e.pc]) + int(e.relVisit)
		n := st.stab.TakenRun(w.ctx, int(e.pc), visit, int(e.stride), e.outcome, k)
		if n <= 0 {
			return 0
		}
		if n < k {
			k = n
		}
	}
	return k
}

// fastForward skips k whole periods: cycles advance by k·P, pending
// time gates shift with them (expired gates and wake-sentinels are
// preserved — both compare identically at every future cycle), visit
// and issue counters advance by k times the recorded deltas, touched
// icache stamps land where the final period left them, and every
// sample tick inside the span is synthesized from the cell table.
func (s *sm) fastForward(now, nextTick, samplePeriod, k int64) (int64, int64) {
	st := &s.steady
	shift := k * st.period
	newNow := now + shift

	if samplePeriod > 0 {
		if s.sink == nil {
			// sampleTick records nothing and advances nothing without a
			// sink; only the tick schedule moves on.
			if nextTick <= newNow {
				nextTick += ((newNow-nextTick)/samplePeriod + 1) * samplePeriod
			}
		}
		for ; nextTick <= newNow; nextTick += samplePeriod {
			si, widx := s.nextSampled()
			if widx < 0 {
				continue
			}
			row := (nextTick - now - st.cellFirst) % st.period / st.cellGap
			c := st.cells[row*int64(len(s.warps))+int64(widx)]
			s.sink.Record(Sample{
				SM: s.id, Scheduler: si, Warp: widx, Cycle: nextTick,
				PC: int(c.pc), Active: c.active, Reason: c.reason,
			})
		}
	}

	for i := range s.warps {
		w := &s.warps[i]
		if w.exited {
			continue
		}
		if w.nextIssue > now {
			w.nextIssue += shift
		}
		if w.fetchReady > now {
			w.fetchReady += shift
		}
		for b := range w.barReady {
			if w.barReady[b] > now {
				w.barReady[b] += shift
			}
		}
		if w.lastIssueCycle == now {
			w.lastIssueCycle = newNow
		}
	}
	for si := range s.scheds {
		sc := &s.scheds[si]
		sc.nextReady = shiftTime(sc.nextReady, now, shift)
		for c := range sc.unitBusy {
			if sc.unitBusy[c] > now {
				sc.unitBusy[c] += shift
			}
		}
		for i := range sc.bounds {
			sc.bounds[i] = shiftTime(sc.bounds[i], now, shift)
		}
	}
	for i := range s.releases {
		s.releases[i].cycle += shift
	}
	if s.minRelease < boundMSHR {
		s.minRelease += shift
	}
	s.fetchBusy = shiftTime(s.fetchBusy, now, shift)
	s.lastProgress = newNow
	for _, t := range st.touches {
		s.icacheUse[t.line] = newNow + t.relStamp
	}
	for i := range st.execs {
		e := &st.execs[i]
		if e.relVisit == 0 {
			s.warps[e.widx].visits[e.pc] += int32(k * int64(e.stride))
		}
	}
	for _, d := range st.issuedDelta {
		s.issuedPerPC[d.pc] += k * int64(d.count)
	}
	st.ffCycles += shift
	return newNow, nextTick
}

// shiftTime shifts a pending cycle value by a fast-forwarded span,
// preserving the wake-sentinels (they compare above any cycle either
// way) and expired values (spent gates stay spent).
func shiftTime(v, now, shift int64) int64 {
	if v >= boundMSHR || v <= now {
		return v
	}
	return v + shift
}
