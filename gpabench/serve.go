package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// serveSpec fixes one serving workload's load shape.
type serveSpec struct {
	// rate is the open loop's arrival rate in requests per second.
	rate float64
	// limit is the latency limit slo_attainment counts against.
	limit time.Duration
	// setups is how many times a run sets up; setup_s is the median.
	setups int
}

var (
	// serve-cold's setup takes tens of milliseconds, so process start
	// jitter needs more repetitions to even out than serve-warm's.
	coldSpec = serveSpec{rate: 60, limit: 50 * time.Millisecond, setups: 9}
	warmSpec = serveSpec{rate: 300, limit: 20 * time.Millisecond, setups: setupReps}
)

const (
	// warmSeeds is how many simulation seeds each serve-warm app is
	// requested at: 21 apps x 24 seeds x {advise, profile} = 1008 keys,
	// about twice gpad's 512-entry result cache.
	warmSeeds = 24
	// resultCacheEntries is gpad's default result-cache capacity.
	resultCacheEntries = 512
	// zipfS is the serve-warm key popularity skew.
	zipfS = 1.1
	// estPerRow and estWarmSeeds size the est_error_pct samples of the
	// serving workloads: the first estPerRow bench-form advise requests
	// of every row (serve-cold), and every app at the first
	// estWarmSeeds seeds (serve-warm).
	estPerRow    = 3
	estWarmSeeds = 4
	// refEvery and refMax pick the seeded sample of responses checked
	// against an in-process engine.
	refEvery = 40
	refMax   = 40
	// drainLimit bounds how long requests still queued at the end of
	// the schedule may take before they count as failed.
	drainLimit = 10 * time.Second
	// latenessLimit is how late the generator's dispatch may run at p99
	// before the run is invalid: beyond it the load, not gpad, is
	// being measured.
	latenessLimit = 20 * time.Millisecond
	// replayMax caps the requests a traced run replays in process.
	replayMax = 400
)

// Request forms and endpoints.
const (
	formBench   = "bench"
	formAsm     = "asm"
	formBinary  = "binary"
	pathAdvise  = "/v1/advise"
	pathProfile = "/v1/profile"
)

// request is one generated gpad request. Bodies are attached
// separately (see attachBodies), so generation stays cheap and
// comparable.
type request struct {
	Index int
	Path  string
	Form  string
	// Row indexes kernels.All(); Opt selects the optimized variant
	// (asm and binary forms only: a bench name serves the baseline).
	Row int
	Opt bool
	// App is set when the request names a bundled app rather than a
	// Table 3 row ID (serve-warm).
	App  string
	Seed uint64
	// Key is the serve-warm key index (-1 on serve-cold).
	Key  int
	Body []byte
}

// genCold generates serve-cold's stream: one of the 52 Table 3 kernels
// per request (half by bench name, a quarter as SASS text, a quarter as
// CUBIN), four in five to /v1/advise, each with a fresh seed so every
// request misses. Requests come in rounds that hold every row once, in
// a shuffled order, and each row deals its form and kind from its own
// shuffled deck of those proportions. So every seed sends the same mix,
// and the heavy rows never bunch up by chance.
func genCold(seed uint64, n, rows int) []request {
	type card struct {
		form string
		opt  bool
		path string
	}
	var deck []card
	for _, c := range []card{{form: formBench}, {form: formBench}, {form: formBench}, {form: formBench},
		{form: formAsm}, {form: formAsm, opt: true}, {form: formBinary}, {form: formBinary, opt: true}} {
		for k := 0; k < 5; k++ {
			c.path = pathAdvise
			if k == 0 {
				c.path = pathProfile
			}
			deck = append(deck, c)
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	decks := make([][]card, rows)
	dealt := make([]int, rows)
	round := make([]int, rows)
	for row := range decks {
		decks[row] = append([]card(nil), deck...)
		round[row] = row
	}
	out := make([]request, n)
	for i := range out {
		if i%rows == 0 {
			rng.Shuffle(rows, func(a, b int) { round[a], round[b] = round[b], round[a] })
		}
		row := round[i%rows]
		d := decks[row]
		if dealt[row]%len(d) == 0 {
			rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		}
		c := d[dealt[row]%len(d)]
		dealt[row]++
		out[i] = request{Index: i, Path: c.path, Form: c.form, Row: row, Opt: c.opt,
			Seed: mix(seed, uint64(i)), Key: -1}
	}
	return out
}

// warmKey is one serve-warm cache key: a bundled app at a seed on one
// endpoint.
type warmKey struct {
	App  string
	Row  int
	Seed uint64
	Path string
}

// appRows returns every bundled app with the index of its first row,
// the row gpad serves for a bench request naming the app.
func appRows() (apps []string, rows []int) {
	seen := map[string]bool{}
	for i, b := range kernels.All() {
		if !seen[b.App] {
			seen[b.App] = true
			apps = append(apps, b.App)
			rows = append(rows, i)
		}
	}
	return apps, rows
}

// warmKeySet returns serve-warm's keys, ordered by seed, then app, then
// endpoint.
func warmKeySet(seed uint64, apps []string, rows []int) []warmKey {
	var keys []warmKey
	for s := 0; s < warmSeeds; s++ {
		for i, app := range apps {
			for _, path := range []string{pathAdvise, pathProfile} {
				keys = append(keys, warmKey{App: app, Row: rows[i], Seed: mix(seed^0x3a3a, uint64(s)), Path: path})
			}
		}
	}
	return keys
}

// genWarm generates serve-warm's stream: keys drawn Zipf-distributed,
// with popularity ranks assigned by a seeded permutation.
func genWarm(seed uint64, n int, keys []warmKey) []request {
	rng := rand.New(rand.NewPCG(seed, 0x3a3a))
	perm := rng.Perm(len(keys))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	out := make([]request, n)
	for i := range out {
		k := perm[zipf.Uint64()]
		out[i] = request{Index: i, Path: keys[k].Path, Form: formBench, Row: keys[k].Row,
			App: keys[k].App, Seed: keys[k].Seed, Key: k}
	}
	return out
}

// corpusKernel is one Table 3 kernel in every request form.
type corpusKernel struct {
	v    *kernels.Variant
	blob []byte
}

// corpus holds the 52 kernels, indexed [row][opt].
type corpus [][2]corpusKernel

// loadCorpus assembles every Table 3 kernel and packs its CUBIN blob.
func loadCorpus() (corpus, error) {
	rows := kernels.All()
	c := make(corpus, len(rows))
	for i, b := range rows {
		for j, v := range []*kernels.Variant{&b.Base, &b.Opt} {
			k, _, err := buildVariant(v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID(), err)
			}
			blob, err := k.SaveBinary()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID(), err)
			}
			c[i][j] = corpusKernel{v: v, blob: blob}
		}
	}
	return c, nil
}

func (c corpus) kernel(q *request) corpusKernel {
	if q.Opt {
		return c[q.Row][1]
	}
	return c[q.Row][0]
}

// wireRequest mirrors the JSON body gpad's kernel endpoints accept.
type wireRequest struct {
	Bench             string  `json:"bench,omitempty"`
	Asm               string  `json:"asm,omitempty"`
	Binary            []byte  `json:"binary,omitempty"`
	Entry             string  `json:"entry,omitempty"`
	GridX             int     `json:"gridX,omitempty"`
	GridY             int     `json:"gridY,omitempty"`
	GridZ             int     `json:"gridZ,omitempty"`
	BlockX            int     `json:"blockX,omitempty"`
	BlockY            int     `json:"blockY,omitempty"`
	BlockZ            int     `json:"blockZ,omitempty"`
	RegsPerThread     int     `json:"regsPerThread,omitempty"`
	SharedMemPerBlock int     `json:"sharedMemPerBlock,omitempty"`
	Seed              *uint64 `json:"seed,omitempty"`
}

// attachBodies encodes every request's JSON body.
func attachBodies(reqs []request, c corpus) error {
	rows := kernels.All()
	for i := range reqs {
		q := &reqs[i]
		seed := q.Seed
		w := wireRequest{Seed: &seed}
		switch {
		case q.Form == formBench && q.App != "":
			w.Bench = q.App
		case q.Form == formBench:
			w.Bench = rows[q.Row].ID()
		default:
			k := c.kernel(q)
			l := k.v.Launch
			w.Entry, w.GridX, w.GridY, w.GridZ = l.Entry, l.GridX, l.GridY, l.GridZ
			w.BlockX, w.BlockY, w.BlockZ = l.BlockX, l.BlockY, l.BlockZ
			w.RegsPerThread, w.SharedMemPerBlock = l.RegsPerThread, l.SharedMemPerBlock
			if q.Form == formAsm {
				w.Asm = k.v.Asm
			} else {
				w.Binary = k.blob
			}
		}
		body, err := json.Marshal(w)
		if err != nil {
			return err
		}
		q.Body = body
	}
	return nil
}

// entryOf is the kernel name a response to q must carry.
func entryOf(q *request, c corpus) string {
	if q.Form == formBench {
		return kernels.All()[q.Row].Base.Launch.Entry
	}
	return c.kernel(q).v.Launch.Entry
}

// gpadProc is one running gpad.
type gpadProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startGpad starts gpad with its defaults plus -store-dir on a free
// loopback port and waits until /healthz answers.
func startGpad(ctx context.Context, bin, storeDir string) (*gpadProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(bin, "-addr", addr, "-store-dir", storeDir)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start gpad: %w", err)
		}
		g := &gpadProc{cmd: cmd, base: "http://" + addr, client: newClient(), exited: make(chan struct{})}
		go func() { _ = cmd.Wait(); close(g.exited) }()
		if lastErr = g.waitHealthy(ctx); lastErr == nil {
			return g, nil
		}
		g.stop()
	}
	return nil, fmt.Errorf("gpad never became healthy: %w", lastErr)
}

// newClient returns an HTTP client holding at most one connection per
// CPU.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}}
}

func (g *gpadProc) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-g.exited:
			return errors.New("gpad exited")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := g.client.Get(g.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return errors.New("gpad /healthz timed out")
}

// stop sends SIGTERM, waits for gpad to exit, and kills it if it has
// not exited within its drain window.
func (g *gpadProc) stop() {
	g.client.CloseIdleConnections()
	_ = g.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-g.exited:
	case <-time.After(15 * time.Second):
		_ = g.cmd.Process.Kill()
		<-g.exited
	}
}

// getJSON decodes a GET endpoint's JSON body.
func (g *gpadProc) getJSON(path string, dst any) error {
	resp, err := g.client.Get(g.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// scrape is one reading of gpad's counters: /statsz numbers and
// /metrics series, plus the process's CPU time.
type scrape struct {
	statsz  map[string]any
	metrics map[string]float64
	cpu     time.Duration
}

func (g *gpadProc) scrape() (scrape, error) {
	var s scrape
	if err := g.getJSON("/statsz", &s.statsz); err != nil {
		return s, err
	}
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	s.metrics = parseProm(string(data))
	s.cpu, err = cpuTime(g.cmd.Process.Pid)
	return s, err
}

// parseProm reads Prometheus text exposition into series -> value.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// counter returns the delta of one /statsz counter field. Only counter
// fields are differenced; gauges and ratios are never subtracted.
func counter(before, after scrape, field string) float64 {
	a, _ := after.statsz[field].(float64)
	b, _ := before.statsz[field].(float64)
	return a - b
}

// series returns the delta of one /metrics counter series.
func series(before, after scrape, name string) float64 {
	return after.metrics[name] - before.metrics[name]
}

// checked is one response's verdict, written by the goroutine that
// received it.
type checked struct {
	ok      bool
	problem string
	// hash digests the body without its per-request fields.
	hash [32]byte
	// est is the served estimate for the row's optimizer (bench-form
	// advise responses).
	est float64
	// norm keeps the normalized body of sampled responses.
	norm []byte
	// badLine marks a body citing source line 4294967295: a kernel
	// without line information that reached gpad as CUBIN, whose
	// unpacking reads the packed line -1 back unsigned.
	badLine bool
}

// servedResult is the part of a gpa-result/2 body the checks read.
type servedResult struct {
	SchemaVersion string `json:"schemaVersion"`
	Kernel        string `json:"kernel"`
	Kind          string `json:"kind"`
	Cycles        int64  `json:"cycles"`
	Advice        []struct {
		Optimizer string  `json:"optimizer"`
		Speedup   float64 `json:"estimatedSpeedup"`
	} `json:"advice"`
}

// normalize drops the top-level fields that legitimately differ between
// answers to the same request: traceId, cached and elapsedMs.
func normalize(body []byte) []byte {
	lines := bytes.SplitAfter(body, []byte("\n"))
	out := make([]byte, 0, len(body))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte(`  "traceId": `)) || bytes.HasPrefix(l, []byte(`  "cached": `)) ||
			bytes.HasPrefix(l, []byte(`  "elapsedMs": `)) {
			continue
		}
		out = append(out, l...)
	}
	return out
}

// checkBody verifies one 200 body: schema, requested kernel and kind,
// cycles > 0.
func checkBody(q *request, c corpus, body []byte, keep bool) checked {
	var res servedResult
	if err := json.Unmarshal(body, &res); err != nil {
		return checked{problem: fmt.Sprintf("request %d: undecodable body: %v", q.Index, err)}
	}
	kind := strings.TrimPrefix(q.Path, "/v1/")
	if res.SchemaVersion != gpa.ResultSchemaVersion || res.Kernel != entryOf(q, c) || res.Kind != kind || res.Cycles <= 0 {
		return checked{problem: fmt.Sprintf("request %d: got schema %q kernel %q kind %q cycles %d",
			q.Index, res.SchemaVersion, res.Kernel, res.Kind, res.Cycles)}
	}
	norm := normalize(body)
	out := checked{ok: true, hash: sha256.Sum256(norm), badLine: bytes.Contains(body, []byte("at Line 4294967295"))}
	if keep {
		out.norm = norm
	}
	if q.Form == formBench && q.Path == pathAdvise {
		want := kernels.All()[q.Row].Optimizer
		for _, e := range res.Advice {
			if e.Optimizer == want {
				out.est = e.Speedup
				break
			}
		}
	}
	return out
}

// post sends one request and returns the status and body.
func (g *gpadProc) post(ctx context.Context, q *request) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+q.Path, bytes.NewReader(q.Body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// loadResult is what an open-loop run observed.
type loadResult struct {
	// latency is each request's time from its due time to its answer,
	// rtt from its actual send; both in ms, valid where verdict.ok.
	latency, rtt []float64
	verdicts     []checked
	// lateness is each dispatch's delay past its due time, in ms.
	lateness []float64
	// backlogEnd is how many due requests still waited for a connection
	// when the schedule ended.
	backlogEnd int
	// queuedMax is the highest /statsz "queued" gauge sampled.
	queuedMax float64
	elapsed   time.Duration
}

// openLoop sends reqs on a fixed schedule at rate regardless of how
// fast gpad answers, over at most one connection per CPU. Requests
// still waiting drainLimit after the schedule ends are abandoned and
// count as failed.
func openLoop(ctx context.Context, g *gpadProc, reqs []request, rate float64, c corpus,
	keep []bool, sampleQueue bool) loadResult {
	n := len(reqs)
	res := loadResult{latency: make([]float64, n), rtt: make([]float64, n),
		verdicts: make([]checked, n), lateness: make([]float64, n)}
	interval := time.Duration(float64(time.Second) / rate)
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan int, n) // sized to the number of sends: dispatch never blocks
	start := time.Now()
	due := func(i int) time.Duration { return time.Duration(i) * interval }
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				q := &reqs[i]
				sent := time.Since(start)
				status, body, err := g.post(dctx, q)
				done := time.Since(start)
				res.latency[i], res.rtt[i] = ms(done-due(i)), ms(done-sent)
				switch {
				case err != nil:
					res.verdicts[i] = checked{problem: fmt.Sprintf("request %d: %v", i, err)}
				case status != http.StatusOK:
					res.verdicts[i] = checked{problem: fmt.Sprintf("request %d: status %d: %.200s", i, status, body)}
				default:
					res.verdicts[i] = checkBody(q, c, body, keep[i])
				}
			}
		}()
	}
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	if sampleQueue {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
					var st map[string]any
					if g.getJSON("/statsz", &st) == nil {
						if v, _ := st["queued"].(float64); v > res.queuedMax {
							res.queuedMax = v
						}
					}
				}
			}
		}()
	}
	for i := 0; i < n && dctx.Err() == nil; i++ {
		if d := due(i) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		res.lateness[i] = ms(time.Since(start) - due(i))
		work <- i
	}
	res.backlogEnd = len(work)
	close(work)
	timer := time.AfterFunc(drainLimit, cancel)
	wg.Wait()
	timer.Stop()
	res.elapsed = time.Since(start)
	close(stopSampling)
	sampler.Wait()
	return res
}

// servePhase is what both serving workloads share after setup: the
// timed open loop against g, its counter deltas and its checks.
type servePhase struct {
	r      *run
	spec   serveSpec
	corpus corpus
	reqs   []request
	g      *gpadProc
	before scrape
	after  scrape
	load   loadResult
}

// sampled reports whether request i is in the seeded sample checked
// against an in-process engine.
func sampled(seed uint64, i int) bool { return mix(seed^0x5eed, uint64(i))%refEvery == 0 }

// timed runs the open loop and records the end-to-end metrics.
func (p *servePhase) timed(ctx context.Context) error {
	r := p.r
	var err error
	if p.before, err = p.g.scrape(); err != nil {
		return err
	}
	refs := 0
	keep := make([]bool, len(p.reqs))
	for i := range p.reqs {
		if refs < refMax && sampled(r.cfg.seed, i) {
			keep[i] = true
			refs++
		}
	}
	p.load = openLoop(ctx, p.g, p.reqs, p.spec.rate, p.corpus, keep, r.cfg.trace)
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.after, err = p.g.scrape(); err != nil {
		return err
	}
	rss, err := peakRSSMB(p.g.cmd.Process.Pid)
	if err != nil {
		return err
	}
	var ok, inLimit, badLine int
	var lat []float64
	for i, v := range p.load.verdicts {
		r.attempted++
		if !v.ok {
			r.failed++
			if v.problem == "" {
				v.problem = fmt.Sprintf("request %d: not answered", i)
			}
			r.fail("%s", v.problem)
			continue
		}
		ok++
		if v.badLine {
			badLine++
		}
		lat = append(lat, p.load.latency[i])
		if p.load.latency[i] <= ms(p.spec.limit) {
			inLimit++
		}
	}
	if ok == 0 {
		return fmt.Errorf("%s: no request succeeded", r.cfg.workload)
	}
	lats := summarize(lat)
	late := append([]float64(nil), p.load.lateness...)
	sort.Float64s(late)
	latenessP99 := percentile(late, 99)
	r.detail["latency"] = lats
	r.detail["bodies_citing_line_4294967295"] = badLine
	r.detail["rate_per_s"] = p.spec.rate
	r.detail["latency_limit_ms"] = ms(p.spec.limit)
	r.detail["generator"] = map[string]any{
		"lateness_p50_ms": percentile(late, 50), "lateness_p99_ms": latenessP99,
		"backlog_end": p.load.backlogEnd, "connections": runtime.NumCPU(),
	}
	if latenessP99 > ms(latenessLimit) {
		r.detail["invalid"] = fmt.Sprintf("generator lateness p99 %.1fms exceeds %.0fms", latenessP99, ms(latenessLimit))
	}
	r.e2e["ops_per_s"] = float64(ok) / p.load.elapsed.Seconds()
	r.e2e["latency_p50_ms"] = lats.P50
	r.e2e["slo_attainment"] = float64(inLimit) / float64(len(p.reqs))
	r.e2e["ok_ratio"] = float64(ok) / float64(len(p.reqs))
	r.e2e["cpu_ms_per_op"] = ms(p.after.cpu-p.before.cpu) / float64(ok)
	r.e2e["peak_rss_mb"] = rss
	r.layer["loadgen.lateness_p99_ms"] = latenessP99
	r.layer["loadgen.backlog_end"] = float64(p.load.backlogEnd)
	return nil
}

// checkReferences compares the sampled responses with an in-process
// engine's answers to the same requests. With inOrder the engine first
// answers every earlier request of the stream, in the order gpad got
// them, so it holds the state gpad held when it answered each sampled
// one; without it the engine answers the sampled requests only, which
// suffices where answers cannot depend on earlier requests.
func (p *servePhase) checkReferences(ctx context.Context, inOrder bool) {
	eng := gpa.NewEngine(nil)
	defer eng.Shutdown(context.Background())
	n := 0
	last := -1
	for i, v := range p.load.verdicts {
		if v.norm != nil {
			last = i
		}
	}
	for i := 0; i <= last; i++ {
		v := p.load.verdicts[i]
		if v.norm == nil && !inOrder {
			continue
		}
		want, err := referenceBody(ctx, eng, &p.reqs[i], p.corpus)
		if err != nil {
			p.r.fail("reference %d: %v", i, err)
			continue
		}
		if v.norm == nil {
			continue
		}
		n++
		if !bytes.Equal(normalize(want), v.norm) {
			p.r.fail("request %d: body differs from the in-process engine's", i)
		}
	}
	p.r.detail["reference_checked"] = n
}

// layerCounters records the /statsz and /metrics deltas of the timed
// run as per-layer metrics.
func (p *servePhase) layerCounters() {
	r, b, a := p.r, p.before, p.after
	reqs := counter(b, a, "hits") + counter(b, a, "misses") + counter(b, a, "coalesced") + counter(b, a, "bypass")
	r.ratio("service.hit_ratio", counter(b, a, "hits"), reqs)
	r.ratio("service.sims_per_req", counter(b, a, "sims"), reqs)
	if lookups := counter(b, a, "stageHits") + counter(b, a, "stageMisses"); lookups > 0 {
		r.ratio("service.stage_hit_ratio", counter(b, a, "stageHits"), lookups)
	} else {
		r.notExercised("service.stage_hit_ratio")
	}
	for name, field := range map[string]string{
		"service.stage_served":     "stageServed",
		"service.structure_builds": "structureBuilds",
		"service.coalesced":        "coalesced",
		"store.hits":               "storeHits",
		"store.misses":             "storeMisses",
		"store.puts":               "storePuts",
		"store.errors":             "storeErrors",
		"qos.shed":                 "shed",
	} {
		r.layer[name] = counter(b, a, field)
	}
	r.layer["qos.queued_max"] = p.load.queuedMax
	for _, stage := range []string{"assemble", "simulate", "blame", "advise"} {
		name := "gpad.stage_ms." + stage
		sel := `{stage="` + stage + `"}`
		count := series(b, a, "gpa_stage_duration_seconds_count"+sel)
		if count == 0 {
			r.notExercised(name)
			continue
		}
		r.ratio(name, 1000*series(b, a, "gpa_stage_duration_seconds_sum"+sel), count)
	}
	var httpSum, httpCount float64
	for _, route := range []string{pathAdvise, pathProfile} {
		sel := `{route="` + route + `"}`
		httpSum += series(b, a, "gpa_http_request_duration_seconds_sum"+sel)
		httpCount += series(b, a, "gpa_http_request_duration_seconds_count"+sel)
	}
	r.ratio("gpad.http_ms", 1000*httpSum, httpCount)
	r.ratio("gpad.allocs_per_req", series(b, a, "go_gc_heap_allocs_objects_total"), httpCount)
	r.ratio("gpad.gc_per_kreq", 1000*series(b, a, "go_gc_cycles_total"), httpCount)
	r.detail["statsz_delta"] = map[string]float64{
		"hits": counter(b, a, "hits"), "misses": counter(b, a, "misses"), "sims": counter(b, a, "sims"),
		"stageServed": counter(b, a, "stageServed"), "storeHits": counter(b, a, "storeHits"),
		"storePuts": counter(b, a, "storePuts"), "errors": counter(b, a, "errors"),
	}
}

// setupLoop repeats setup reps times and records setup_s as the
// median. Each repetition tears the previous one's gpad down, untimed;
// the last one's gpad serves the timed run.
func setupLoop(r *run, reps int, once func(rep int) (*gpadProc, error)) (*gpadProc, error) {
	var setups []float64
	var g *gpadProc
	for rep := 0; rep < reps; rep++ {
		if g != nil {
			g.stop()
		}
		t := time.Now()
		var err error
		if g, err = once(rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.e2e["setup_s"] = median(setups)
	r.detail["setup_s_samples"] = setups
	return g, nil
}

// storeDir returns a fresh store directory for repetition rep.
func storeDir(r *run, rep int) string {
	return filepath.Join(r.cfg.work, fmt.Sprintf("store-%d", rep))
}

// runServeCold is serve-cold: an open loop at a fixed rate where every
// request misses, exercising the untrusted front end, the full
// pipeline and the store write path under queueing.
func runServeCold(ctx context.Context, r *run) error {
	n := int(coldSpec.rate * r.cfg.seconds)
	p := &servePhase{r: r, spec: coldSpec}
	g, err := setupLoop(r, coldSpec.setups, func(rep int) (*gpadProc, error) {
		var err error
		if p.corpus, err = loadCorpus(); err != nil {
			return nil, err
		}
		p.reqs = genCold(r.cfg.seed, n, len(p.corpus))
		if err := attachBodies(p.reqs, p.corpus); err != nil {
			return nil, err
		}
		return startGpad(ctx, r.cfg.gpad, storeDir(r, rep))
	})
	if err != nil {
		return err
	}
	p.g = g
	defer g.stop()
	if err := p.timed(ctx); err != nil {
		return err
	}
	if sims := counter(p.before, p.after, "sims"); sims < float64(len(p.reqs)-r.failed) {
		r.fail("serve-cold: %g simulations for %d answered requests: requests hit a cache", sims, len(p.reqs)-r.failed)
	}
	g.stop()
	// A CUBIN kernel and its SASS source share one content hash, and
	// gpad keeps the first module it is sent under a hash, so the
	// answer for one form depends on which form came first.
	p.checkReferences(ctx, true)
	// est_error_pct: the first estPerRow bench-form advise answers of
	// every row, against achieved speedups measured in process.
	var pairs []estPair
	perRow := map[int]int{}
	for i, q := range p.reqs {
		if q.Form == formBench && q.Path == pathAdvise && perRow[q.Row] < estPerRow {
			perRow[q.Row]++
			pairs = append(pairs, estPair{row: q.Row, seed: q.Seed, served: p.load.verdicts[i]})
		}
	}
	if err := estError(ctx, r, pairs); err != nil {
		return err
	}
	if r.cfg.trace {
		p.layerCounters()
		return p.replayLayers(ctx, "")
	}
	return nil
}

// runServeWarm is serve-warm: a restarted gpad serving Zipf-distributed
// keys from a store filled in setup, exercising digest, result-cache
// probe, stage memory, the store read path, encode and HTTP.
func runServeWarm(ctx context.Context, r *run) error {
	n := int(warmSpec.rate * r.cfg.seconds)
	apps, appRow := appRows()
	keys := warmKeySet(r.cfg.seed, apps, appRow)
	p := &servePhase{r: r, spec: warmSpec}
	var keyHash [][32]byte
	var keyEst []float64
	g, err := setupLoop(r, warmSpec.setups, func(rep int) (*gpadProc, error) {
		var err error
		if p.corpus, err = loadCorpus(); err != nil {
			return nil, err
		}
		fill := make([]request, len(keys))
		for i, k := range keys {
			fill[i] = request{Index: i, Path: k.Path, Form: formBench, Row: k.Row, App: k.App, Seed: k.Seed, Key: i}
		}
		if err := attachBodies(fill, p.corpus); err != nil {
			return nil, err
		}
		dir := storeDir(r, rep)
		first, err := startGpad(ctx, r.cfg.gpad, dir)
		if err != nil {
			return nil, err
		}
		verdicts := populate(ctx, first, fill, p.corpus)
		first.stop()
		keyHash, keyEst = make([][32]byte, len(keys)), make([]float64, len(keys))
		for i, v := range verdicts {
			if !v.ok {
				return nil, fmt.Errorf("populate: %s", v.problem)
			}
			keyHash[i], keyEst[i] = v.hash, v.est
		}
		p.reqs = genWarm(r.cfg.seed, n, keys)
		if err := attachBodies(p.reqs, p.corpus); err != nil {
			return nil, err
		}
		return startGpad(ctx, r.cfg.gpad, dir)
	})
	if err != nil {
		return err
	}
	p.g = g
	defer g.stop()
	if err := p.timed(ctx); err != nil {
		return err
	}
	if sims := counter(p.before, p.after, "sims"); sims != 0 {
		r.fail("serve-warm: %g simulations on a warm store", sims)
	}
	// Every answer must equal what the cold population computed for
	// its key, apart from traceId, cached and elapsedMs.
	distinct := map[int]bool{}
	for i, v := range p.load.verdicts {
		if v.ok {
			k := p.reqs[i].Key
			distinct[k] = true
			if v.hash != keyHash[k] {
				r.fail("request %d: key %d body differs from its cold answer", i, k)
			}
		}
	}
	r.detail["keys"] = len(keys)
	r.detail["distinct_keys_requested"] = len(distinct)
	g.stop()
	p.checkReferences(ctx, false)
	var pairs []estPair
	for i, k := range keys[:estWarmSeeds*len(apps)*2] {
		if k.Path == pathAdvise {
			pairs = append(pairs, estPair{row: k.Row, seed: k.Seed, served: checked{ok: true, est: keyEst[i]}})
		}
	}
	if err := estError(ctx, r, pairs); err != nil {
		return err
	}
	if r.cfg.trace {
		p.layerCounters()
		return p.replayLayers(ctx, storeDir(r, warmSpec.setups-1))
	}
	return nil
}

// populate sends every request once, one connection per CPU, and
// returns each verdict.
func populate(ctx context.Context, g *gpadProc, reqs []request, c corpus) []checked {
	out := make([]checked, len(reqs))
	next := make(chan int, len(reqs)) // sized to the number of sends
	for i := range reqs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				status, body, err := g.post(ctx, &reqs[i])
				switch {
				case err != nil:
					out[i] = checked{problem: err.Error()}
				case status != http.StatusOK:
					out[i] = checked{problem: fmt.Sprintf("status %d: %.200s", status, body)}
				default:
					out[i] = checkBody(&reqs[i], c, body, false)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// estPair is one served advise answer for a Table 3 row at a seed.
type estPair struct {
	row    int
	seed   uint64
	served checked
}

// estError sets est_error_pct from served estimates: each must equal
// Benchmark.Run's estimate at the same seed, and the error is against
// the achieved speedup Benchmark.Run measures.
func estError(ctx context.Context, r *run, pairs []estPair) error {
	rows := kernels.All()
	var sum float64
	n := 0
	for _, pr := range pairs {
		if !pr.served.ok {
			continue // already counted as a failed request
		}
		o, err := rows[pr.row].Run(ctx, kernels.RunOptions{Seed: pr.seed})
		if err != nil {
			return err
		}
		if o.Estimated != pr.served.est {
			r.fail("%s seed %d: served estimate %g, Benchmark.Run %g", rows[pr.row].ID(), pr.seed, pr.served.est, o.Estimated)
		}
		sum += o.Error
		n++
	}
	if n == 0 {
		return errors.New("est_error_pct: no served estimate")
	}
	r.e2e["est_error_pct"] = 100 * sum / float64(n)
	r.detail["est_error_pairs"] = n
	return nil
}
