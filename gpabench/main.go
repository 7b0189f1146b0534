// Command gpabench is the repository's benchmark. It runs one workload
// for a fixed time, checks that every output is correct, and prints one
// JSON result line with the end-to-end metrics (or, with -trace 1, the
// per-layer metrics from a traced run):
//
//	bash gpabench/run.sh --workload serve-warm --seed 7 --seconds 20 --trace 0
//
// Workloads: table3-offline (the paper's Table 3 in process),
// serve-cold (every request a cache miss at gpad) and serve-warm
// (Zipf-distributed hits over a restarted gpad's store). README.md
// beside this file defines every metric and why each workload exists.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"slo_attainment", "ratio"},
	{"ok_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"est_error_pct", "%"},
}

// perLayer lists the per-layer metrics every traced run prints.
var perLayer = []struct{ name, unit string }{
	{"gpusim.measure_ms", "ms"},
	{"gpusim.measure_ns_per_cycle", "ns/cycle"},
	{"gpusim.ff_share.measure", "ratio"},
	{"gpusim.ff_share.profile", "ratio"},
	{"gpusim.sim_cycles_per_op", "cycles/op"},
	{"profiler.profile_ms", "ms"},
	{"profiler.ns_per_cycle", "ns/cycle"},
	{"profiler.samples_per_op", "samples/op"},
	{"blamer.context_ms", "ms"},
	{"advisor.advise_ms", "ms"},
	{"sass.assemble_ms", "ms"},
	{"structure.analyze_ms", "ms"},
	{"frontend.load_ms", "ms"},
	{"service.do_ms", "ms"},
	{"encode.result_ms", "ms"},
	{"http.self_ms", "ms"},
	{"store.open_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.stage_hit_ratio", "ratio"},
	{"service.stage_served", "count"},
	{"service.sims_per_req", "ratio"},
	{"service.structure_builds", "count"},
	{"service.coalesced", "count"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.puts", "count"},
	{"store.errors", "count"},
	{"qos.queued_max", "count"},
	{"qos.shed", "count"},
	{"gpad.stage_ms.assemble", "ms"},
	{"gpad.stage_ms.simulate", "ms"},
	{"gpad.stage_ms.blame", "ms"},
	{"gpad.stage_ms.advise", "ms"},
	{"gpad.http_ms", "ms"},
	{"gpad.allocs_per_req", "allocs/req"},
	{"gpad.gc_per_kreq", "gc/kreq"},
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.backlog_end", "count"},
	{"trace.overhead_ms", "ms"},
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root
	gpad     string // gpad binary
	work     string // per-run scratch directory inside the checkout
}

// run accumulates one invocation's outcome.
type run struct {
	cfg       config
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	// detail holds provenance, sample counts and ratio bases; it is
	// printed on the line before the result.
	detail map[string]any
}

// fail records a failed correctness gate; any failure makes the run
// incorrect.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ratio derives a per-layer ratio from counter deltas and records its
// base beside it.
func (r *run) ratio(name string, num, base float64) {
	v, err := ratio(num, base)
	if err != nil {
		r.fail("%s: %v", name, err)
		return
	}
	r.layer[name] = v.Value
	bases, _ := r.detail["ratio_bases"].(map[string]ratioOf)
	if bases == nil {
		bases = map[string]ratioOf{}
		r.detail["ratio_bases"] = bases
	}
	bases[name] = v
}

var workloads = map[string]func(context.Context, *run) error{
	"table3-offline": runOffline,
	"serve-cold":     runServeCold,
	"serve-warm":     runServeWarm,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "table3-offline, serve-cold or serve-warm")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "root of the gpa checkout")
	flag.StringVar(&cfg.gpad, "gpad", "", "gpad binary built from the checkout")
	flag.Parse()
	cfg.trace = traceFlag == 1
	fn := workloads[cfg.workload]
	if fn == nil || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "gpabench: usage: --workload table3-offline|serve-cold|serve-warm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(execute(ctx, cfg, fn))
}

// execute runs one workload and prints its result; it returns the
// process exit code.
func execute(ctx context.Context, cfg config, fn func(context.Context, *run) error) int {
	cfg.work = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "gpabench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	r := &run{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
	r.detail["workload"] = cfg.workload
	r.detail["seed"] = cfg.seed
	r.detail["trace"] = cfg.trace
	r.detail["host"] = fingerprint(cfg.root)
	steal0, total0 := cpuSteal()
	if err := fn(ctx, r); err != nil {
		fmt.Fprintln(os.Stderr, "gpabench:", err)
		return 1
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		// Time the hypervisor gave other guests: on a shared VM it is
		// the first suspect when a run's timings stray.
		r.detail["host_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if len(r.problems) > 0 {
		r.detail["problems"] = r.problems
	}
	detail, err := json.Marshal(map[string]any{"gpabench": r.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpabench:", err)
		return 1
	}
	if invalid, _ := r.detail["invalid"].(string); invalid != "" {
		// A generator that fell behind measured itself, not gpad. The
		// record says so; a median over repeated runs absorbs the run.
		fmt.Fprintln(os.Stderr, "gpabench: run invalid:", invalid)
	}
	names, values := endToEnd, r.e2e
	if cfg.trace {
		names, values = perLayer, r.layer
	}
	metrics := map[string]any{}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gpabench: metric %s was not measured\n", m.name)
			return 1
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpabench:", err)
		return 1
	}
	fmt.Println(string(detail))
	fmt.Println(string(out))
	return 0
}

// notExercised sets per-layer metrics whose layer this workload does
// not reach to 0 and lists them, so a 0 is never mistaken for a
// measurement.
func (r *run) notExercised(names ...string) {
	list, _ := r.detail["not_exercised"].([]string)
	for _, n := range names {
		r.layer[n] = 0
		list = append(list, n)
	}
	r.detail["not_exercised"] = list
}

// fingerprint identifies the host and the source tree a result came
// from.
func fingerprint(root string) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":     model,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(root),
	}
}

// sourceDigest hashes the checkout's Go sources, go.mod files and
// DRIFT.txt, naming the code a result measured even where the checkout
// is not a git repository.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "DRIFT.txt" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\n", rel)
		if fh, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal returns the machine-wide steal and total CPU times from
// /proc/stat, in clock ticks (0, 0 where unavailable).
func cpuSteal() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// cpuTime returns a process's user+system CPU time from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("cpu time of %d: malformed stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("cpu time of %d: short stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("cpu time of %d: malformed stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss of %d: no VmHWM", pid)
}

// mix derives a well-spread 64-bit value from a seed and an index
// (splitmix64), so per-pass and per-request seeds never collide in
// practice and depend only on the workload seed.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
