package gpusim

import (
	"context"
	"fmt"
	"math/bits"

	"gpa/internal/apierr"
	"gpa/internal/arch"
	"gpa/internal/sass"
)

// farFuture is the sentinel "no event scheduled" cycle: the warp (or
// SM) cannot make progress until an explicit wake — barrier release or
// block rotation — resets it.
const farFuture = int64(1<<62 - 1)

// maxCallDepth caps each warp's call stack. The corpus nests calls 1-2
// deep; an unbounded recursion ("CAL k" inside k) would otherwise grow
// the stack of every resident warp until the cycle limit.
const maxCallDepth = 1024

// boundMSHR is the sentinel bound of a warp stalled on a full MSHR
// pool (ReasonMemoryThrottle). It is distinct from farFuture because
// the wake source differs: an MSHR release (tracked by sm.mshrGen)
// can make such a warp ready, while every other cached bound is a pure
// time bound no release can move. Both sentinels compare above any
// reachable cycle.
const boundMSHR = farFuture - 1

type warpState struct {
	ctx        WarpCtx
	slot       int // block slot index
	pc         int
	callStack  []int
	exited     bool
	barWait    bool
	nextIssue  int64
	issueStall StallReason // reason reported while nextIssue is pending
	fetchReady int64
	barReady   [sass.NumBarriers]int64
	barReason  [sass.NumBarriers]StallReason
	// visits[pc] counts dynamic executions of branch/variable-latency
	// instructions, indexed by flat PC (flattened from a map: the
	// per-issue lookup is on the hot path).
	visits []int32
	// lastIssuedPC / lastIssueCycle feed active "selected" samples.
	lastIssuedPC   int
	lastIssueCycle int64
}

// Warp bounds cache a lower bound on each warp's earliest possible
// issue cycle. A warp's time gates (fetchReady, nextIssue, barReady)
// change only through its own issue, which refreshes the cache, so a
// time bound stays valid until it expires; shared gates (unitBusy)
// only grow, which keeps the cached value a lower bound. The sentinels
// need an external wake instead: boundMSHR entries are valid while the
// scheduler's mshrSeen generation matches sm.mshrGen (MSHR releases
// expire the whole scheduler's throttle bounds at once), and farFuture
// is reset to 0 directly by the event that wakes the warp (barrier
// release, block rotation). Bounds live in a dense int64 array parallel
// to sm.warps (not in warpState) so the scheduler scan's cache-valid
// fast path touches 8 bytes per warp instead of the whole warp record.

type blockSlot struct {
	warps      []int // indices into sm.warps
	arrived    int   // warps waiting at BAR.SYNC
	aliveCount int
	done       bool
}

type scheduler struct {
	warps []int // indices into sm.warps
	// bounds[i] is warps[i]'s cached issue-cycle lower bound:
	// contiguous per scheduler so the scan's cache-valid fast path is a
	// sequential walk. For warp index w the entry lives at scheduler
	// w%NumScheds, slot w/NumScheds (warps are dealt round-robin in
	// index order).
	bounds []int64
	// mshrSeen is the sm.mshrGen value this scheduler's boundMSHR
	// entries were computed under; a mismatch means a release has freed
	// slots since, so every throttle bound must be re-probed.
	mshrSeen  uint64
	rotate    int  // LRR issue pointer
	samplePtr int  // round-robin sampled-warp pointer
	issuedNow bool // issued at the current cycle
	// nextReady is a lower bound on the next cycle any resident warp
	// could issue, letting the run loop skip fruitless full-warp scans
	// and feed the whole-SM cycle skip. 0 forces a scan; events that
	// can wake this scheduler's warps asynchronously (MSHR release when
	// throttled, barrier release, block rotation) reset it.
	nextReady int64
	// throttled records whether the last scan saw a warp stalled on the
	// MSHR pool; only such schedulers need a rescan when a release
	// frees slots.
	throttled bool
	// unitBusy models per-partition execution-unit throughput: on
	// Volta-family SMs (Volta, Turing, Ampere) each scheduler owns its
	// FP32/INT/FP64/SFU pipes; the per-class costs come from
	// arch.GPU.IssueCost.
	unitBusy [16]int64 // per exec class
}

type mshrRelease struct {
	cycle int64
	count int
}

// runTables holds per-run, per-PC tables shared read-only by every SM of
// one Run call: GPU-dependent issue costs and default memory latencies,
// and workload-dependent transaction counts. Precomputing them once per
// run keeps Opcode.Info, latency switches, and Workload.Transactions
// calls off the per-cycle path.
type runTables struct {
	issueCost []int64 // per PC: scheduler dispatch occupancy
	baseLat   []int64 // per PC: default variable-latency base (0 = fixed)
	tx        []int32 // per PC: max(1, workload transactions)
}

type sm struct {
	id     int
	p      *Program
	meta   []instrMeta
	rt     *runTables
	wl     Workload
	gpu    *arch.GPU
	cfg    Config
	launch LaunchConfig
	entry  int

	scheds []scheduler
	warps  []warpState
	slots  []blockSlot

	blockQueue []int // global block IDs still to run
	nextBlock  int
	// doneSlots counts block slots that have drained with the queue
	// empty; allDone is O(1) against it instead of walking the slots.
	doneSlots int

	mshrFree int
	releases []mshrRelease
	// minRelease caches the earliest pending MSHR release cycle so the
	// run loop only compacts the release list when one is actually due.
	minRelease int64

	// icacheUse[line] is the line's last-use cycle (-1 = not resident);
	// flattened from a map since lines are dense and few.
	icacheUse      []int64
	icacheResident int
	icacheCap      int
	// icacheLine caches GPU.ICacheLineInstrs: line membership is checked
	// on every sequential-flow issue.
	icacheLine int
	// fetchBusy serializes instruction-cache miss handling: the fetch
	// unit services one miss at a time.
	fetchBusy int64

	issuedPerPC []int64
	warpsPerBlk int
	tick        int64 // sampling tick counter
	sink        SampleSink
	// wakeSeq increments on every explicit wake (barrier release, block
	// rotation), letting the scheduler scan detect that an issue's side
	// effects invalidated the nextReady bound it was accumulating.
	wakeSeq uint64
	// mshrGen increments whenever processReleases frees MSHR slots;
	// cached boundMSHR warp bounds are valid only for the generation
	// they were computed in.
	mshrGen uint64
	// lastProgress is the cycle of the most recent issue, reported by
	// the livelock guard.
	lastProgress int64
	// fault is a runaway an issue detected (the call-depth cap); run
	// returns it after the scan that set it.
	fault error
	// steady is the steady-state loop memoizer (see steady.go): period
	// detection, the recorded period template, and the fast-forward
	// counters.
	steady steadyState
}

// newSM (re)initializes an SM shell for one run. The shell comes from
// the program's run-state arena: every slice it carries is resized in
// place and reused, so a warm shell initializes without heap
// allocations (see pool.go for the recycling contract).
func newSM(shell *sm, id int, p *Program, rt *runTables, wl Workload, cfg Config, launch LaunchConfig,
	occ arch.Occupancy, entry int, blocks []int, warpsPerBlock int, sink SampleSink) *sm {
	s := shell
	lines := (len(p.Instrs) + cfg.GPU.ICacheLineInstrs - 1) / cfg.GPU.ICacheLineInstrs
	*s = sm{
		id: id, p: p, meta: p.meta, rt: rt, wl: wl, gpu: cfg.GPU, cfg: cfg, launch: launch,
		entry:       entry,
		scheds:      resetScheds(s.scheds, cfg.GPU.SchedulersPerSM),
		warps:       s.warps[:0],
		slots:       s.slots[:0],
		blockQueue:  blocks,
		mshrFree:    cfg.GPU.MSHRsPerSM,
		releases:    s.releases[:0],
		minRelease:  farFuture,
		icacheLine:  cfg.GPU.ICacheLineInstrs,
		icacheUse:   resetICache(s.icacheUse, lines),
		icacheCap:   max(1, cfg.GPU.ICacheInstrs/cfg.GPU.ICacheLineInstrs),
		issuedPerPC: resizeInt64(s.issuedPerPC, len(p.Instrs)),
		warpsPerBlk: warpsPerBlock,
		sink:        sink,
		steady:      resetSteady(s.steady, wl, cfg.stepEveryCycle),
	}
	resident := occ.BlocksPerSM
	if resident > len(blocks) {
		resident = len(blocks)
	}
	for slot := 0; slot < resident; slot++ {
		s.slots = growSlot(s.slots)
		s.startBlock(slot, 0)
	}
	return s
}

// wakeAll forces every scheduler to rescan its warps; block rotation
// uses it because a rotated-in block's fresh warps are spread over all
// schedulers.
func (s *sm) wakeAll() {
	s.wakeSeq++
	for i := range s.scheds {
		s.scheds[i].nextReady = 0
	}
}

// startBlock (re)fills a block slot with the next queued block at the
// given cycle; it returns false when the queue is empty.
func (s *sm) startBlock(slot int, now int64) bool {
	if s.nextBlock >= len(s.blockQueue) {
		if !s.slots[slot].done {
			s.slots[slot].done = true
			s.doneSlots++
		}
		return false
	}
	blockID := s.blockQueue[s.nextBlock]
	s.nextBlock++
	bs := &s.slots[slot]
	bs.arrived = 0
	bs.aliveCount = s.warpsPerBlk
	bs.done = false
	if len(bs.warps) == 0 {
		for wi := 0; wi < s.warpsPerBlk; wi++ {
			widx := len(s.warps)
			bs.warps = append(bs.warps, widx)
			s.warps = growWarp(s.warps)
			// Warps are distributed round-robin over schedulers.
			sc := widx % len(s.scheds)
			s.scheds[sc].warps = append(s.scheds[sc].warps, widx)
			s.scheds[sc].bounds = append(s.scheds[sc].bounds, 0)
		}
	}
	for wi, widx := range bs.warps {
		*s.boundOf(widx) = 0
		w := &s.warps[widx]
		visits := w.visits
		if visits == nil {
			visits = make([]int32, len(s.p.Instrs))
		} else {
			clear(visits)
		}
		*w = warpState{
			slot: slot,
			ctx: WarpCtx{
				SM:          s.id,
				Block:       blockID,
				WarpInBlock: wi,
				GlobalWarp:  blockID*s.warpsPerBlk + wi,
			},
			pc:        s.entry,
			nextIssue: now + int64(s.gpu.BlockLaunchOverhead),
			visits:    visits,
			callStack: w.callStack[:0],
		}
	}
	s.wakeAll()
	return true
}

// growWarp extends warps by one entry, reusing a recycled entry's
// visits and callStack backing when spare capacity exists.
func growWarp(warps []warpState) []warpState {
	if n := len(warps); n < cap(warps) {
		return warps[:n+1]
	}
	return append(warps, warpState{})
}

// boundOf locates warp widx's cached bound inside its scheduler's
// dense bound array (round-robin deal: scheduler widx%N, slot widx/N).
func (s *sm) boundOf(widx int) *int64 {
	n := len(s.scheds)
	return &s.scheds[widx%n].bounds[widx/n]
}

func (s *sm) allDone() bool {
	return s.nextBlock >= len(s.blockQueue) && s.doneSlots == len(s.slots)
}

// ready reports whether warp w can issue at cycle now, the stall reason
// when it cannot, and a lower bound on the first cycle it could become
// ready absent asynchronous wake events (farFuture when only such an
// event can wake it). The returned reason for a ready warp is
// ReasonNotSelected (callers override to ReasonNone for the issuer).
func (s *sm) ready(sc *scheduler, w *warpState, now int64) (bool, StallReason, int64) {
	if w.exited {
		return false, ReasonIdle, farFuture
	}
	if w.barWait {
		return false, ReasonSync, farFuture
	}
	m := &s.meta[w.pc]
	bound := w.fetchReady
	if w.nextIssue > bound {
		bound = w.nextIssue
	}
	if busy := sc.unitBusy[m.class]; busy > bound {
		bound = busy
	}
	// Scoreboard wait mask: the slowest pending barrier gates issue.
	var worst int64
	reason := ReasonNone
	for wm := m.waitMask; wm != 0; wm &= wm - 1 {
		b := bits.TrailingZeros8(wm)
		if r := w.barReady[b]; r > now && r > worst {
			worst = r
			reason = w.barReason[b]
		}
	}
	if worst > bound {
		bound = worst
	}
	if w.fetchReady > now {
		return false, ReasonInstructionFetch, bound
	}
	if worst > 0 {
		return false, reason, bound
	}
	if w.nextIssue > now {
		return false, w.issueStall, bound
	}
	if m.flags&metaNeedMSHR != 0 && s.mshrFree < int(s.rt.tx[w.pc]) {
		return false, ReasonMemoryThrottle, boundMSHR
	}
	if sc.unitBusy[m.class] > now {
		return false, ReasonPipeBusy, bound
	}
	return true, ReasonNotSelected, now
}

func spaceNeedsMSHR(op sass.Opcode) bool {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemLocal, sass.ClassMemGeneric:
		return true
	}
	return false
}

// memLatency models the completion latency of a variable-latency
// instruction.
func (s *sm) memLatency(w *warpState, pc int, tx int) int64 {
	visit := int(w.visits[pc])
	if lat := s.wl.Latency(w.ctx, pc, visit); lat > 0 {
		return int64(lat)
	}
	base := s.rt.baseLat[pc]
	// Deterministic jitter: ±12% keyed by (seed, warp, pc, visit).
	h := splitmix(s.cfg.Seed ^ uint64(w.ctx.GlobalWarp)<<32 ^ uint64(pc)<<8 ^ uint64(visit))
	jitter := int64(h%uint64(max(1, base/4))) - base/8
	// Uncoalesced accesses serialize their extra transactions.
	extra := int64(0)
	if tx > 1 && s.meta[pc].flags&metaNeedMSHR != 0 {
		extra = int64(tx-1) * int64(s.gpu.UncoalescedPenalty)
	}
	lat := base + jitter + extra
	if lat < 2 {
		lat = 2
	}
	return lat
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// barrierReasonFor maps a variable-latency producer to the stall reason
// a consumer waiting on its barrier reports.
func barrierReasonFor(op sass.Opcode) StallReason {
	switch op.Info().Class {
	case sass.ClassMemGlobal, sass.ClassMemLocal, sass.ClassMemConst, sass.ClassMemGeneric:
		return ReasonMemoryDependency
	case sass.ClassMemShared:
		return ReasonExecutionDependency
	}
	// MUFU, IDIV, S2R, SHFL and read-barrier (WAR) waits are execution
	// dependencies.
	return ReasonExecutionDependency
}

// icacheCheck models the instruction cache at a control transfer to
// target; sequential flow never misses (hardware prefetches linearly).
func (s *sm) icacheCheck(w *warpState, target int, now int64) {
	line := target / s.icacheLine
	if s.icacheUse[line] >= 0 {
		s.icacheUse[line] = now
		return
	}
	// Miss: evict LRU if full, install, stall the warp. Misses are
	// serviced through a shared fetch unit, so concurrent misses
	// serialize (GPU.FetchSerializeCycles each).
	s.steady.missCount++
	if s.icacheResident >= s.icacheCap {
		lruLine := -1
		lruCycle := farFuture
		for l, c := range s.icacheUse {
			if c >= 0 && c < lruCycle {
				lruCycle, lruLine = c, l
			}
		}
		s.icacheUse[lruLine] = -1
		s.icacheResident--
	}
	s.icacheUse[line] = now
	s.icacheResident++
	start := now
	if s.fetchBusy > start {
		start = s.fetchBusy
	}
	w.fetchReady = start + int64(s.gpu.IFetchMissLatency)
	s.fetchBusy = start + int64(s.gpu.FetchSerializeCycles)
}

// issue executes one instruction for warp w at cycle now.
func (s *sm) issue(sc *scheduler, widx int, now int64) {
	w := &s.warps[widx]
	pc := w.pc
	in := &s.p.Instrs[pc]
	m := &s.meta[pc]
	s.issuedPerPC[pc]++
	w.lastIssuedPC = pc
	w.lastIssueCycle = now

	stall := int64(m.stall)
	if stall < 1 {
		stall = 1
	}
	w.nextIssue = now + stall
	w.issueStall = m.issueStall
	sc.unitBusy[m.class] = now + s.rt.issueCost[pc]

	if m.flags&metaVarLat != 0 {
		tx := int(s.rt.tx[pc])
		lat := s.memLatency(w, pc, tx)
		if m.flags&metaNeedMSHR != 0 {
			s.mshrFree -= tx
			s.pushRelease(mshrRelease{cycle: now + lat, count: tx})
		}
		if wb := m.writeBar; wb != int8(sass.NoBarrier) {
			w.barReady[wb] = now + lat
			w.barReason[wb] = m.barReason
		}
		if rb := m.readBar; rb != int8(sass.NoBarrier) {
			// Source operands are consumed well before the result
			// lands; WAR hazards clear earlier.
			readDone := now + min(lat, 20)
			if w.barReady[rb] < readDone {
				w.barReady[rb] = readDone
				w.barReason[rb] = ReasonExecutionDependency
			}
		}
	}

	// Control flow.
	switch in.Opcode {
	case sass.OpBRA, sass.OpJMP, sass.OpBRX:
		visit := int(w.visits[pc])
		w.visits[pc]++
		taken := in.Unconditional() || s.wl.Taken(w.ctx, pc, visit)
		if st := &s.steady; st.enabled {
			if st.recording {
				st.execs = append(st.execs, steadyExec{
					widx: int32(widx), pc: int32(pc),
					outcome: taken, probe: !in.Unconditional(),
				})
			}
			if taken && s.p.Target(pc) <= pc {
				// A taken backward branch is a loop back-edge: the
				// anchor warp's back-edges are where fingerprints are
				// compared. If the anchor warp parked (exited or
				// barrier-blocked), the first other warp to take a
				// back-edge inherits the anchor.
				if widx == st.anchorWarp {
					st.anchorHit = true
				} else if aw := &s.warps[st.anchorWarp]; aw.exited || aw.barWait {
					st.reelect(widx)
					st.anchorHit = true
				}
			}
		}
		if taken {
			w.pc = s.p.Target(pc)
			s.icacheCheck(w, w.pc, now)
		} else {
			w.pc = pc + 1
			if w.pc/s.icacheLine != pc/s.icacheLine {
				s.icacheCheck(w, w.pc, now)
			}
		}
	case sass.OpCAL:
		if len(w.callStack) == maxCallDepth {
			s.fault = fmt.Errorf("gpusim: %w: SM %d warp %d: call depth exceeds %d (unbounded recursion?)",
				apierr.ErrSimLimit, s.id, w.ctx.GlobalWarp, maxCallDepth)
			return
		}
		w.callStack = append(w.callStack, pc+1)
		w.pc = s.p.Target(pc)
		s.icacheCheck(w, w.pc, now)
	case sass.OpRET:
		if len(w.callStack) == 0 {
			s.exitWarp(w)
			return
		}
		w.pc = w.callStack[len(w.callStack)-1]
		w.callStack = w.callStack[:len(w.callStack)-1]
		s.icacheCheck(w, w.pc, now)
	case sass.OpEXIT:
		s.exitWarp(w)
	case sass.OpBAR:
		w.barWait = true
		w.pc = pc + 1
		slot := &s.slots[w.slot]
		slot.arrived++
		s.maybeReleaseBarrier(slot)
	default:
		w.pc = pc + 1
		// Sequential flow fetches new lines as well: bodies larger than
		// the cache evict their own head and pay misses continuously.
		if w.pc/s.icacheLine != pc/s.icacheLine {
			s.icacheCheck(w, w.pc, now)
		}
	}
}

func (s *sm) exitWarp(w *warpState) {
	w.exited = true
	slot := &s.slots[w.slot]
	slot.aliveCount--
	s.maybeReleaseBarrier(slot)
	if slot.aliveCount == 0 {
		s.startBlock(w.slot, w.lastIssueCycle)
	}
}

// maybeReleaseBarrier wakes only the block's own warps: a barrier
// release cannot change any other warp's readiness, so their cached
// bounds stay valid.
func (s *sm) maybeReleaseBarrier(slot *blockSlot) {
	if slot.aliveCount > 0 && slot.arrived >= slot.aliveCount {
		for _, widx := range slot.warps {
			s.warps[widx].barWait = false
			*s.boundOf(widx) = 0
			s.scheds[widx%len(s.scheds)].nextReady = 0
		}
		slot.arrived = 0
		s.wakeSeq++
	}
}

// processReleases returns MSHR slots whose transactions completed.
// Freed slots can only wake warps stalled on ReasonMemoryThrottle:
// their cached boundMSHR entries expire (mshrGen) and their throttled
// schedulers rescan. Every other cached bound is a pure time bound a
// release cannot move, so it survives. The pending releases form a
// binary min-heap on cycle, so a call pops only the due entries
// instead of compacting the whole list.
func (s *sm) processReleases(now int64) {
	released := false
	for len(s.releases) > 0 && s.releases[0].cycle <= now {
		s.mshrFree += s.releases[0].count
		released = true
		s.popRelease()
	}
	if len(s.releases) > 0 {
		s.minRelease = s.releases[0].cycle
	} else {
		s.minRelease = farFuture
	}
	if released {
		s.mshrGen++
		for si := range s.scheds {
			if s.scheds[si].throttled {
				s.scheds[si].nextReady = 0
			}
		}
	}
}

// pushRelease adds a pending MSHR release to the min-heap and keeps
// minRelease at the root.
func (s *sm) pushRelease(r mshrRelease) {
	h := append(s.releases, r)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].cycle <= h[i].cycle {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	s.releases = h
	if h[0].cycle < s.minRelease {
		s.minRelease = h[0].cycle
	}
}

// popRelease removes the heap root (the earliest pending release).
func (s *sm) popRelease() {
	h := s.releases
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		if r := l + 1; r < last && h[r].cycle < h[l].cycle {
			l = r
		}
		if h[i].cycle <= h[l].cycle {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	s.releases = h
}

// sampleTick records one PC sample: the sampling unit cycles round-robin
// over the warp schedulers (one scheduler per period, per Figure 1 of
// the paper) and rotates over the scheduler's resident warps.
func (s *sm) sampleTick(now int64) {
	if s.sink == nil {
		return
	}
	si, widx := s.nextSampled()
	if widx < 0 {
		return
	}
	c := s.observe(&s.scheds[si], &s.warps[widx], now)
	s.sink.Record(Sample{
		SM: s.id, Scheduler: si, Warp: widx, Cycle: now,
		PC: int(c.pc), Active: c.active, Reason: c.reason,
	})
}

// nextSampled advances the sampling unit by one tick: it picks the
// tick's scheduler and the next non-exited warp in that scheduler's
// rotation (-1 when it has none). It is the only writer of the
// sampling state, and it reads nothing but the exited flags.
func (s *sm) nextSampled() (sched, widx int) {
	sched = int(s.tick) % len(s.scheds)
	s.tick++
	sc := &s.scheds[sched]
	n := len(sc.warps)
	for i := 0; i < n; i++ {
		cand := sc.warps[(sc.samplePtr+i)%n]
		if !s.warps[cand].exited {
			sc.samplePtr = (sc.samplePtr + i + 1) % n
			return sched, cand
		}
	}
	return sched, -1
}

// observe is what warp w reports to a sample tick at cycle now: the
// instruction it issued this cycle ("selected"), else its current PC
// and stall reason; Active is whether its scheduler issued this cycle.
func (s *sm) observe(sc *scheduler, w *warpState, now int64) sampleCell {
	if w.lastIssueCycle == now && now > 0 {
		return sampleCell{pc: int32(w.lastIssuedPC), reason: ReasonNone, active: sc.issuedNow}
	}
	_, reason, _ := s.ready(sc, w, now)
	return sampleCell{pc: int32(w.pc), reason: reason, active: sc.issuedNow}
}

// run drives the SM to completion and returns the final cycle.
// cancelCheckInterval is how many run-loop iterations pass between
// context polls. Each iteration advances at least one cycle (often
// many, via the event-driven skip), so cancellation lands within a
// bounded, small slice of simulated work while the per-iteration cost
// stays one counter decrement on the hot path.
const cancelCheckInterval = 4096

// run's loop is event-driven: after scanning the schedulers whose
// nextReady cursors are due, it jumps straight to the next interesting
// cycle — the minimum over the per-scheduler cursors and the earliest
// pending MSHR release. Fetch completions, scoreboard-barrier expiries,
// and pipe drains are folded into the cursors (a warp's cached bound is
// the max of its gates); barrier releases and block rotations reset the
// affected cursors at the issue that causes them, so they can never be
// skipped over. Sample ticks fire on the way through a jump: the
// skipped span contains no issue and no state change, so each tick
// observes exactly the state a cycle-by-cycle walk would have seen
// (Config.stepEveryCycle retains that naive walk as a test oracle).
func (s *sm) run(ctx context.Context, maxCycles int64) (int64, error) {
	now := int64(0)
	period := int64(s.cfg.SamplePeriod)
	nextTick := period
	step := s.cfg.stepEveryCycle
	s.lastProgress = 0
	checkIn := cancelCheckInterval
	for !s.allDone() {
		if checkIn--; checkIn <= 0 {
			checkIn = cancelCheckInterval
			if err := apierr.CtxErr(ctx); err != nil {
				return 0, fmt.Errorf("gpusim: SM %d: %w", s.id, err)
			}
		}
		if now > maxCycles {
			return 0, fmt.Errorf("gpusim: %w: SM %d exceeded %d cycles (possible livelock; last progress at %d)",
				apierr.ErrSimLimit, s.id, maxCycles, s.lastProgress)
		}
		if s.minRelease <= now {
			s.processReleases(now)
		}
		for si := range s.scheds {
			sc := &s.scheds[si]
			sc.issuedNow = false
			if !step && sc.nextReady > now {
				continue
			}
			s.scan(sc, now, step)
		}
		if s.fault != nil {
			return 0, s.fault
		}
		if period > 0 && now >= nextTick {
			s.sampleTick(now)
			nextTick += period
		}
		if s.steady.cellNext == now {
			s.captureCells(now)
		}
		if s.steady.anchorHit {
			// The anchor warp took a loop back-edge this cycle: run the
			// steady-state detector on the post-scan, post-tick state —
			// it may fast-forward whole periods (see steady.go).
			s.steady.anchorHit = false
			now, nextTick = s.steadyAnchor(now, nextTick, period, maxCycles)
		}
		if step || s.allDone() {
			// Stepper mode walks cycle by cycle; a completed SM (the
			// pass above issued its last EXIT) finishes one cycle after
			// its final issue — never at a later stale event such as an
			// exited warp's still-pending MSHR release.
			now++
			continue
		}
		// Whole-SM skip: the next cycle anything can happen is the
		// earliest scheduler cursor or MSHR release.
		next := s.minRelease
		for si := range s.scheds {
			if nr := s.scheds[si].nextReady; nr < next {
				next = nr
			}
		}
		if next >= boundMSHR {
			// No future event can wake this SM (deadlock or a throttle
			// no release will clear): jump straight to the livelock
			// guard instead of grinding one cycle at a time.
			next = maxCycles + 1
		}
		if next <= now {
			next = now + 1
		}
		if (period > 0 && nextTick < next) || s.steady.cellNext < next {
			// Fire the sample ticks (and a recording's cell captures)
			// inside the skipped span; they all observe the same
			// stalled state.
			for si := range s.scheds {
				s.scheds[si].issuedNow = false
			}
			for period > 0 && nextTick < next {
				s.sampleTick(nextTick)
				nextTick += period
			}
			for s.steady.cellNext < next {
				s.captureCells(s.steady.cellNext)
			}
		}
		now = next
	}
	return now, nil
}

// scan walks one scheduler's warps in LRR order: issue the first ready
// one, then keep scanning for bounds only, so the refreshed nextReady
// cursor covers a whole issue epoch instead of forcing a rescan every
// cycle. step disables the warp-bound cache (the cycle-stepper oracle
// re-evaluates every warp every cycle).
func (s *sm) scan(sc *scheduler, now int64, step bool) {
	warps := sc.warps
	n := len(warps)
	bound := farFuture
	seq := s.wakeSeq
	mshrStale := sc.mshrSeen != s.mshrGen
	sc.throttled = false
	throttled := false
	complete := true
	// Walk [start, n) then [0, start): two contiguous ranges instead of
	// a modular index on every iteration. start is captured up front —
	// an issue moves sc.rotate mid-scan, but the scan must still cover
	// every warp exactly once in the original rotation order.
	start := sc.rotate
scanLoop:
	for pass := 0; pass < 2; pass++ {
		lo, hi := start, n
		if pass == 1 {
			lo, hi = 0, start
		}
		bounds := sc.bounds[lo:hi:hi]
		for i, wb := range bounds {
			slot := lo + i
			if step || wb <= now || (wb == boundMSHR && mshrStale) {
				widx := warps[slot]
				w := &s.warps[widx]
				ok, _, b := s.ready(sc, w, now)
				if ok && !sc.issuedNow {
					s.issue(sc, widx, now)
					sc.issuedNow = true
					s.lastProgress = now
					// The LRR pointer restarts after the issuer.
					sc.rotate = slot + 1
					if sc.rotate >= n {
						sc.rotate = 0
					}
					// Post-issue the warp is stalled at least one
					// cycle; its refreshed gates bound its next issue.
					_, _, b = s.ready(sc, w, now)
				}
				bounds[i] = b
				wb = b
			}
			if wb == boundMSHR {
				throttled = true
			}
			if wb < bound {
				bound = wb
			}
			if !step && sc.issuedNow && bound <= now+1 {
				// Early out: this scheduler has issued and its cursor is
				// already pinned at (or below) the next cycle, so it
				// rescans then no matter what the remaining warps'
				// bounds are. Stopping here skips the bound gathering
				// for the rest of the list; the unscanned warps keep
				// their caches (still valid lower bounds), and the
				// throttled flag only matters for schedulers whose
				// cursor lets them sleep — which an early-out cursor
				// never does.
				complete = false
				break scanLoop
			}
		}
	}
	if complete {
		// Every boundMSHR entry was re-probed under the current MSHR
		// generation; an early-out scan leaves mshrSeen stale so the
		// skipped entries are re-probed next time.
		sc.mshrSeen = s.mshrGen
	}
	sc.throttled = throttled
	if s.wakeSeq != seq {
		// An issue released a barrier or rotated a block; bounds
		// gathered before that are stale. Rescan next cycle.
		sc.nextReady = 0
	} else {
		sc.nextReady = bound
	}
}
