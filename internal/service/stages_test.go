package service

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"gpa/internal/arch"
	"gpa/internal/gpusim"
	"gpa/internal/qos"
	"gpa/internal/store"
)

func TestStageKeysFactorThePipeline(t *testing.T) {
	base := testRequest(t, KindAdvise).normalized()
	sk, ok, err := base.stageKeys()
	if err != nil || !ok {
		t.Fatalf("stageKeys: %v, ok=%v", err, ok)
	}

	// Kind is excluded: a profile request over the same inputs shares
	// the profile artifact that feeds advise.
	prof := testRequest(t, KindProfile).normalized()
	skProf, _, err := prof.stageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if skProf.profile != sk.profile {
		t.Error("profile and advise requests must share the profile stage key")
	}
	if skProf.frontend != sk.frontend {
		t.Error("content-equal modules must share the frontend stage key")
	}

	// Parallelism is excluded everywhere (bit-identical results).
	par := testRequest(t, KindAdvise)
	par.Parallelism = 4
	np := par.normalized()
	skPar, _, err := np.stageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if skPar != sk {
		t.Error("parallelism changed a stage key")
	}

	// The sampling period feeds profile and advice but not measure.
	period := testRequest(t, KindAdvise)
	period.SamplePeriod = 128
	npd := period.normalized()
	skPeriod, _, err := npd.stageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if skPeriod.measure != sk.measure {
		t.Error("sampling period must not affect the measure stage key")
	}
	if skPeriod.profile == sk.profile || skPeriod.advice == sk.advice {
		t.Error("sampling period must change the profile and advice stage keys")
	}

	// Blamer options feed only the advice stage.
	bl := testRequest(t, KindAdvise)
	bl.Blamer.MaxSliceSteps = 3
	nbl := bl.normalized()
	skBl, _, err := nbl.stageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if skBl.profile != sk.profile || skBl.measure != sk.measure || skBl.frontend != sk.frontend {
		t.Error("blamer options must not affect upstream stage keys")
	}
	if skBl.advice == sk.advice {
		t.Error("blamer options must change the advice stage key")
	}

	// The architecture model feeds simulation but not the front-end.
	t4 := testRequest(t, KindAdvise)
	t4.GPU = arch.TuringT4()
	nt4 := t4.normalized()
	skT4, _, err := nt4.stageKeys()
	if err != nil {
		t.Fatal(err)
	}
	if skT4.frontend != sk.frontend {
		t.Error("architecture must not affect the frontend stage key")
	}
	if skT4.measure == sk.measure || skT4.profile == sk.profile {
		t.Error("architecture must change the simulation stage keys")
	}

	// A workload without a key still has no stable identity.
	wl := testRequest(t, KindAdvise)
	prog, err := gpusim.Load(wl.Module)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := (&gpusim.Spec{}).Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	wl.Workload = bound
	nwl := wl.normalized()
	if _, ok, _ := nwl.stageKeys(); ok {
		t.Error("workload without key must be uncacheable for stages too")
	}
}

// TestSweepStructureAnalysisOnce pins the sweep-reuse contract: a
// concurrent sweep of one module across every registered architecture
// performs the arch-independent front-end (structure analysis) exactly
// once, while producing per-arch results byte-identical to isolated
// cold runs.
func TestSweepStructureAnalysisOnce(t *testing.T) {
	gpus := arch.All()
	if len(gpus) < 2 {
		t.Skip("needs at least two registered architectures")
	}

	// Cold per-arch baselines on engines without memory caching.
	want := make([]string, len(gpus))
	wantDigest := make([]string, len(gpus))
	for i, g := range gpus {
		e := New(Options{Workers: 1, CacheEntries: -1})
		r := testRequest(t, KindAdvise)
		r.GPU = g
		resp, err := e.Do(context.Background(), r)
		if err != nil {
			t.Fatalf("%s: %v", arch.KeyOf(g), err)
		}
		want[i] = resp.Report
		wantDigest[i] = resp.ProfileDigest
		if st := e.Stats(); st.StructureBuilds != 1 {
			t.Fatalf("%s: engine without memory caching built structure %d times, want 1",
				arch.KeyOf(g), st.StructureBuilds)
		}
	}

	// The sweep: one engine, memory caching on, all archs concurrently.
	// Each request assembles its own content-equal module, so reuse
	// must come from content addressing, not pointer identity.
	e := New(Options{Workers: 4})
	var wg sync.WaitGroup
	resps := make([]*Response, len(gpus))
	errs := make([]error, len(gpus))
	for i, g := range gpus {
		wg.Add(1)
		go func(i int, g *arch.GPU) {
			defer wg.Done()
			r := testRequest(t, KindAdvise)
			r.GPU = g
			resps[i], errs[i] = e.Do(context.Background(), r)
		}(i, g)
	}
	wg.Wait()
	for i, g := range gpus {
		if errs[i] != nil {
			t.Fatalf("%s: %v", arch.KeyOf(g), errs[i])
		}
		if resps[i].Report != want[i] {
			t.Errorf("%s: sweep report differs from isolated cold run", arch.KeyOf(g))
		}
		if resps[i].ProfileDigest != wantDigest[i] {
			t.Errorf("%s: sweep profile digest differs from isolated cold run", arch.KeyOf(g))
		}
	}
	st := e.Stats()
	if st.StructureBuilds != 1 {
		t.Errorf("sweep built structure %d times for one module, want 1", st.StructureBuilds)
	}
	if st.Runs != int64(len(gpus)) {
		t.Errorf("sweep runs = %d, want %d (one per arch)", st.Runs, len(gpus))
	}
}

// TestProfileFeedsAdvise pins cross-kind stage reuse: an advise job
// arriving after a profile job over the same inputs reuses the stored
// profile instead of re-simulating.
func TestProfileFeedsAdvise(t *testing.T) {
	// The cold advise baseline (separate engine, no memory caching).
	cold := New(Options{Workers: 1, CacheEntries: -1})
	coldResp, err := cold.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 1})
	profResp, err := e.Do(context.Background(), testRequest(t, KindProfile))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Sims != 1 {
		t.Fatalf("profile job: sims = %d, want 1", st.Sims)
	}
	advResp, err := e.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Sims != 1 {
		t.Errorf("advise after profile re-simulated: sims = %d, want 1", st.Sims)
	}
	if st.Runs != 2 {
		t.Errorf("runs = %d, want 2 (profile + advise-over-stored-profile)", st.Runs)
	}
	if advResp.ProfileDigest != profResp.ProfileDigest {
		t.Error("advise served a different profile than the profile job produced")
	}
	if advResp.Report != coldResp.Report {
		t.Error("advise over a stored profile differs from a cold advise run")
	}
	if advResp.ProfileDigest != coldResp.ProfileDigest {
		t.Error("stage-reused profile digest differs from cold run")
	}
	if advResp.Cycles != coldResp.Cycles {
		t.Errorf("cycles = %d, want %d", advResp.Cycles, coldResp.Cycles)
	}
}

// newDiskEngine builds an engine backed by an on-disk store at dir.
func newDiskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Workers: 2, Disk: d})
}

// mustEqualServed asserts a store-served response matches the cold
// original in every result-bearing byte (the Cached flag is the one
// permitted difference; ElapsedMS replays the producing run's value).
func mustEqualServed(t *testing.T, label string, cold, warm *Response) {
	t.Helper()
	if !warm.Cached {
		t.Errorf("%s: store-served response not marked Cached", label)
	}
	if warm.Cycles != cold.Cycles {
		t.Errorf("%s: cycles = %d, want %d", label, warm.Cycles, cold.Cycles)
	}
	if warm.ElapsedMS != cold.ElapsedMS {
		t.Errorf("%s: elapsedMs = %v, want the producing run's %v", label, warm.ElapsedMS, cold.ElapsedMS)
	}
	if warm.ProfileDigest != cold.ProfileDigest {
		t.Errorf("%s: profile digest drifted across the store", label)
	}
	if warm.Report != cold.Report {
		t.Errorf("%s: report text drifted across the store", label)
	}
	if (warm.Profile == nil) != (cold.Profile == nil) {
		t.Errorf("%s: profile presence differs", label)
	}
	if warm.Profile != nil && cold.Profile != nil {
		wj, err1 := json.Marshal(warm.Profile)
		cj, err2 := json.Marshal(cold.Profile)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: marshal: %v, %v", label, err1, err2)
		}
		if string(wj) != string(cj) {
			t.Errorf("%s: profile JSON drifted across the store", label)
		}
	}
}

// TestDiskStoreRestartWarm pins the tentpole contract: a fresh engine
// on a populated store directory serves every kind with Runs==0 and
// Sims==0, byte-identical to the cold run.
func TestDiskStoreRestartWarm(t *testing.T) {
	dir := t.TempDir()
	kinds := []Kind{KindMeasure, KindProfile, KindAdvise}

	colds := make([]*Response, len(kinds))
	e1 := newDiskEngine(t, dir)
	for i, k := range kinds {
		resp, err := e1.Do(context.Background(), testRequest(t, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		colds[i] = resp
	}

	// Restart: a brand-new engine over the same directory.
	e2 := newDiskEngine(t, dir)
	for i, k := range kinds {
		warm, err := e2.Do(context.Background(), testRequest(t, k))
		if err != nil {
			t.Fatalf("%v restart: %v", k, err)
		}
		mustEqualServed(t, k.String(), colds[i], warm)
	}
	st := e2.Stats()
	if st.Runs != 0 || st.Sims != 0 {
		t.Errorf("restarted engine ran: runs=%d sims=%d, want 0/0", st.Runs, st.Sims)
	}
	if st.StageServed != int64(len(kinds)) {
		t.Errorf("stageServed = %d, want %d", st.StageServed, len(kinds))
	}
	if st.StoreHits == 0 {
		t.Errorf("restart served without disk hits: %+v", st)
	}
}

// TestDiskStoreFaultInjectionRecomputes drives every corruption
// scenario through the ENGINE: a damaged blob of any stage must
// degrade to a recomputed miss whose output is byte-identical to the
// cold run, with the corruption counted, never an error.
func TestDiskStoreFaultInjectionRecomputes(t *testing.T) {
	// Store-free cold references, one per kind (the simulator is
	// deterministic, so these are THE right answers everywhere).
	coldEng := New(Options{Workers: 1, CacheEntries: -1})
	cold, err := coldEng.Do(context.Background(), testRequest(t, KindAdvise))
	if err != nil {
		t.Fatal(err)
	}
	coldMeasure, err := coldEng.Do(context.Background(), testRequest(t, KindMeasure))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(t *testing.T, path, stage string, key store.Key){
		"truncated": func(t *testing.T, path, _ string, _ store.Key) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o666); err != nil {
				t.Fatal(err)
			}
		},
		"flipped-byte": func(t *testing.T, path, _ string, _ store.Key) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x04 // inside the payload
			if err := os.WriteFile(path, data, 0o666); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-schema": func(t *testing.T, path, stage string, key store.Key) {
			// A well-formed, checksum-valid blob framed under an alien
			// payload schema (as a build with a different encoding would
			// have written): rejected by the framing's schema check.
			blob := store.EncodeBlob("gpa-stage/0+ancient", stage, key, []byte(`{}`))
			if err := os.WriteFile(path, blob, 0o666); err != nil {
				t.Fatal(err)
			}
		},
		"unreadable": func(t *testing.T, path, _ string, _ store.Key) {
			// Root ignores permission bits, so force the read error
			// structurally: a directory where the blob should be.
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o777); err != nil {
				t.Fatal(err)
			}
		},
		"garbage-payload": func(t *testing.T, path, stage string, key store.Key) {
			// A checksum-valid blob whose payload is not a decodable
			// stage envelope: caught by artifact validation, not framing.
			blob := store.EncodeBlob(StoreSchema(), stage, key, []byte(`{"not":"an envelope"}`))
			if err := os.WriteFile(path, blob, 0o666); err != nil {
				t.Fatal(err)
			}
		},
	}

	for _, stage := range []string{store.StageMeasure, store.StageProfile, store.StageAdvice} {
		kind := KindAdvise
		if stage == store.StageMeasure {
			kind = KindMeasure
		}
		for name, mutate := range corruptions {
			t.Run(stage+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				d, err := OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				// Populate.
				if _, err := New(Options{Workers: 1, Disk: d}).Do(context.Background(), testRequest(t, kind)); err != nil {
					t.Fatal(err)
				}
				n := testRequest(t, kind).normalized()
				sk, ok, err := n.stageKeys()
				if err != nil || !ok {
					t.Fatalf("stageKeys: %v, ok=%v", err, ok)
				}
				keys := map[string]store.Key{
					store.StageMeasure: sk.measure,
					store.StageProfile: sk.profile,
					store.StageAdvice:  sk.advice,
				}
				mutate(t, d.Path(stage, keys[stage]), stage, keys[stage])

				// A fresh engine over the damaged store must recompute and
				// still answer byte-identically.
				d2, err := OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				e := New(Options{Workers: 1, Disk: d2})
				resp, err := e.Do(context.Background(), testRequest(t, kind))
				if err != nil {
					t.Fatalf("corrupted store surfaced an error: %v", err)
				}
				if kind == KindAdvise {
					if resp.Report != cold.Report {
						t.Error("recomputed report differs from cold run")
					}
					if resp.ProfileDigest != cold.ProfileDigest {
						t.Error("recomputed profile digest differs from cold run")
					}
				} else if resp.Cycles != coldMeasure.Cycles {
					t.Errorf("recomputed cycles = %d, want %d", resp.Cycles, coldMeasure.Cycles)
				}
				if st := e.Stats(); st.StoreCorrupt == 0 {
					t.Errorf("corruption not counted in storeCorrupt: %+v", st)
				}
				// The corruption healed: the recomputed artifact was
				// rewritten, so one more fresh engine serves it whole.
				d3, err := OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				e3 := New(Options{Workers: 1, Disk: d3})
				healed, err := e3.Do(context.Background(), testRequest(t, kind))
				if err != nil {
					t.Fatal(err)
				}
				if !healed.Cached {
					t.Error("store did not heal: repeat restart still recomputes")
				}
				if kind == KindAdvise && healed.Report != cold.Report {
					t.Error("healed report differs from cold run")
				}
			})
		}
	}
}

// TestStageKeysGolden pins the four stage keys of one fixed request.
// Stage keys name blobs in on-disk store directories, so any change to
// their derivation must come with a stageSchema bump; an unintended
// change here would silently turn every existing store into misses.
func TestStageKeysGolden(t *testing.T) {
	sk, ok, err := testRequest(t, KindAdvise).stageKeys()
	if err != nil || !ok {
		t.Fatalf("stageKeys: %v, ok=%v", err, ok)
	}
	for _, c := range []struct {
		stage string
		got   store.Key
		want  string
	}{
		{store.StageFrontend, sk.frontend, "6b237b7f6c800acd828fff8a509374155e4827bec11ed84e564c44165162eb2d"},
		{store.StageMeasure, sk.measure, "ffe0326e11ca48e36d45b876cc6c3965d34172db65d5f6fb9e65c3ef60fa038a"},
		{store.StageProfile, sk.profile, "70e2ab6521250e6f8b2c32e7ea5a7145e9dada4bf9c5742a95dba8dc340192cf"},
		{store.StageAdvice, sk.advice, "4b4bc1f861b533f3c4bd3f917b03c7485e346dd74b00e72dd470e518bf7f9c06"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s key = %s, want %s", c.stage, got, c.want)
		}
	}
	// The final key follows the kind; measure requests normalize the
	// sampling period away, so their measure key is the same.
	for kind, want := range map[Kind]store.Key{KindMeasure: sk.measure, KindProfile: sk.profile, KindAdvise: sk.advice} {
		ks, _, err := testRequest(t, kind).stageKeys()
		if err != nil {
			t.Fatal(err)
		}
		if ks.final != want {
			t.Errorf("%v: final key is not the %v stage's", kind, kind)
		}
		if d, _ := testRequest(t, kind).Digest(); d != hex.EncodeToString(want[:]) {
			t.Errorf("%v: Digest = %s, want the final stage key", kind, d)
		}
	}
}

// TestProfileIgnoresBlamerOptions: blamer options feed only the advice
// stage, so two profile requests differing only in them share one key,
// one flight and one simulation.
func TestProfileIgnoresBlamerOptions(t *testing.T) {
	a := testRequest(t, KindProfile)
	b := testRequest(t, KindProfile)
	b.Blamer.DisableOpcodePrune = true
	b.Blamer.MaxSliceSteps = 3
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if db, _ := b.Digest(); db != da {
		t.Fatalf("blamer options changed a profile request's key: %s vs %s", da, db)
	}

	e := New(Options{Workers: 1})
	// Hold the only worker so the first flight queues and the second
	// request can only join it.
	release, err := e.adm.Acquire(context.Background(), "hog", qos.LaneInteractive)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	resps := make([]*Response, 2)
	for i, r := range []*Request{a, b} {
		wg.Add(1)
		go func(i int, r *Request) {
			defer wg.Done()
			resp, err := e.Do(context.Background(), r)
			if err != nil {
				t.Error(err)
			}
			resps[i] = resp
		}(i, r)
		if i == 0 {
			waitForQueued(t, e, 1)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second request never joined the flight: %+v", e.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
	release()
	wg.Wait()
	st := e.Stats()
	if st.Misses != 1 || st.Coalesced != 1 || st.Runs != 1 || st.Sims != 1 {
		t.Errorf("misses/coalesced/runs/sims = %d/%d/%d/%d, want 1/1/1/1",
			st.Misses, st.Coalesced, st.Runs, st.Sims)
	}
	if resps[0] == nil || resps[1] == nil || resps[0].ProfileDigest != resps[1].ProfileDigest {
		t.Error("the two profile requests got different profiles")
	}
}

// TestMemoryViewHit: a repeat of a request whose final-stage artifact
// is in memory is answered with that artifact's prebuilt view. It
// counts a hit and touches no other tier: no flight (misses), no run,
// and no store-served flight — both after an in-process run and after
// a restart that served the first request from disk.
func TestMemoryViewHit(t *testing.T) {
	dir := t.TempDir()
	for _, k := range []Kind{KindMeasure, KindProfile, KindAdvise} {
		if _, err := newDiskEngine(t, dir).Do(context.Background(), testRequest(t, k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, label := range []string{"in-process", "restarted"} {
		e := New(Options{Workers: 1})
		if label == "restarted" {
			e = newDiskEngine(t, dir)
		}
		for _, k := range []Kind{KindMeasure, KindProfile, KindAdvise} {
			first, err := e.Do(context.Background(), testRequest(t, k))
			if err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			warm, err := e.Do(context.Background(), testRequest(t, k))
			if err != nil {
				t.Fatal(err)
			}
			again, err := e.Do(context.Background(), testRequest(t, k))
			if err != nil {
				t.Fatal(err)
			}
			after := e.Stats()
			if !warm.Cached || warm != again {
				t.Errorf("%s %v: memory hits must return the one prebuilt Cached view", label, k)
			}
			if warm.Report != first.Report || warm.ProfileDigest != first.ProfileDigest || warm.Cycles != first.Cycles {
				t.Errorf("%s %v: memory hit differs from the first answer", label, k)
			}
			if (warm.Context != nil) != (label == "in-process" && k == KindAdvise) {
				t.Errorf("%s %v: Context = %v, want it only on views built by an in-process run", label, k, warm.Context)
			}
			if after.Hits != before.Hits+2 || after.Runs != before.Runs ||
				after.Misses != before.Misses || after.StageServed != before.StageServed {
				t.Errorf("%s %v: hits/runs/misses/stageServed moved %d/%d/%d/%d, want +2/0/0/0", label, k,
					after.Hits-before.Hits, after.Runs-before.Runs,
					after.Misses-before.Misses, after.StageServed-before.StageServed)
			}
		}
		if st := e.Stats(); label == "restarted" && (st.Runs != 0 || st.StageServed != 3) {
			t.Errorf("restarted engine: runs=%d stageServed=%d, want 0/3", st.Runs, st.StageServed)
		}
	}
}
