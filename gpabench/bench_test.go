package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics gpabench prints in
// step with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		want []metric
		got  []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: gpabench prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: gpabench prints %s (%s), BENCHMARK.json declares %s (%s)",
					c.kind, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rankOf(got, tc.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves fewer than %d samples beyond it", tc.n, got, minBeyond)
		}
	}
}

func TestSummarizeCapsTailAtP99(t *testing.T) {
	ms := make([]float64, 20000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	if s := summarize(ms); s.N != 20000 || s.TailPct != 99 || s.Tail != 19800 || s.P50 != 10000 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(ms[:500]); s.TailPct != 95 || s.Tail != 475 {
		t.Fatalf("summarize of 500 = %+v", s)
	}
}

func TestRatioRejectsZeroBase(t *testing.T) {
	if _, err := ratio(5, 0); err == nil {
		t.Fatal("ratio(5, 0) succeeded")
	}
	if _, err := ratio(0, -1); err == nil {
		t.Fatal("ratio(0, -1) succeeded")
	}
	v, err := ratio(3, 4)
	if err != nil || v.Value != 0.75 || v.Num != 3 || v.Base != 4 {
		t.Fatalf("ratio(3, 4) = %+v, %v", v, err)
	}
}

func TestColdGeneratorIsSeeded(t *testing.T) {
	a, b := genCold(7, 500, 26), genCold(7, 500, 26)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-cold streams")
	}
	if reflect.DeepEqual(a, genCold(8, 500, 26)) {
		t.Fatal("different seeds gave the same serve-cold stream")
	}
	seeds := map[uint64]bool{}
	forms := map[string]int{}
	for _, q := range a {
		if seeds[q.Seed] {
			t.Fatalf("request %d reuses simulation seed %d: it would hit the cache", q.Index, q.Seed)
		}
		seeds[q.Seed] = true
		forms[q.Form]++
	}
	if forms[formBench] < 200 || forms[formAsm] < 90 || forms[formBinary] < 90 {
		t.Fatalf("form mix %v, want about half bench, a quarter each asm and binary", forms)
	}
}

func TestWarmGeneratorIsSeeded(t *testing.T) {
	apps, rows := appRows()
	keys := warmKeySet(3, apps, rows)
	a, b := genWarm(3, 2000, keys), genWarm(3, 2000, keys)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serve-warm streams")
	}
	if reflect.DeepEqual(a, genWarm(4, 2000, warmKeySet(4, apps, rows))) {
		t.Fatal("different seeds gave the same serve-warm stream")
	}
}

func TestWarmKeySetExceedsResultCache(t *testing.T) {
	apps, rows := appRows()
	keys := warmKeySet(1, apps, rows)
	distinct := map[warmKey]bool{}
	for _, k := range keys {
		distinct[k] = true
	}
	if len(distinct) != len(keys) {
		t.Fatalf("%d keys, %d distinct", len(keys), len(distinct))
	}
	if len(keys) <= resultCacheEntries {
		t.Fatalf("%d serve-warm keys fit in the %d-entry result cache", len(keys), resultCacheEntries)
	}
}

func TestNormalizeDropsPerRequestFields(t *testing.T) {
	a := []byte("{\n  \"kernel\": \"k\",\n  \"traceId\": \"a\",\n  \"cached\": false,\n  \"elapsedMs\": 2.5,\n  \"cycles\": 3\n}\n")
	b := []byte("{\n  \"kernel\": \"k\",\n  \"traceId\": \"b\",\n  \"cached\": true,\n  \"elapsedMs\": 0.1,\n  \"cycles\": 3\n}\n")
	if string(normalize(a)) != string(normalize(b)) {
		t.Fatalf("normalize kept a per-request field:\n%s\n%s", normalize(a), normalize(b))
	}
	c := []byte("{\n  \"kernel\": \"k\",\n  \"traceId\": \"a\",\n  \"cycles\": 4\n}\n")
	if string(normalize(a)) == string(normalize(c)) {
		t.Fatal("normalize dropped a result field")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Op: 0, ID: 0, Parent: -1, Name: "row", Start: 0, End: 10 * time.Millisecond},
		{Op: 0, ID: 1, Parent: 0, Name: "a", Start: 1 * time.Millisecond, End: 4 * time.Millisecond},
		{Op: 0, ID: 2, Parent: 0, Name: "b", Start: 3 * time.Millisecond, End: 6 * time.Millisecond},
	}}
	self := tr.selfMS()
	if got := self["row"]; len(got) != 1 || got[0] != 5 {
		t.Fatalf("row self time %v, want [5]", got)
	}
	if got := self["a"]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("leaf self time %v, want [3]", got)
	}
}

func TestOpenLoopAnswersEveryRequestOnSchedule(t *testing.T) {
	rows := kernels.All()
	var mu sync.Mutex
	seen := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wireRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen[fmt.Sprint(*req.Seed)]++
		mu.Unlock()
		entry := ""
		for _, b := range rows {
			if b.App == req.Bench {
				entry = b.Base.Launch.Entry
				break
			}
		}
		fmt.Fprintf(w, "{\n  \"schemaVersion\": %q,\n  \"kernel\": %q,\n  \"kind\": %q,\n  \"traceId\": \"x\",\n  \"cycles\": 7\n}\n",
			gpa.ResultSchemaVersion, entry, strings.TrimPrefix(r.URL.Path, "/v1/"))
	}))
	defer srv.Close()
	apps, appRow := appRows()
	reqs := genWarm(5, 60, warmKeySet(5, apps, appRow))
	for i := range reqs {
		reqs[i].Seed = uint64(i) // one distinct seed per request, to count deliveries
	}
	if err := attachBodies(reqs, nil); err != nil {
		t.Fatal(err)
	}
	keep := make([]bool, len(reqs))
	keep[3] = true
	g := &gpadProc{base: srv.URL, client: newClient()}
	res := openLoop(context.Background(), g, reqs, 300, nil, keep, false)
	if len(seen) != len(reqs) {
		t.Fatalf("server saw %d distinct requests, want %d", len(seen), len(reqs))
	}
	for i, v := range res.verdicts {
		if !v.ok {
			t.Fatalf("request %d: %s", i, v.problem)
		}
		if seen[fmt.Sprint(i)] != 1 {
			t.Fatalf("request %d delivered %d times", i, seen[fmt.Sprint(i)])
		}
		if res.latency[i] < res.rtt[i] {
			t.Fatalf("request %d: latency from due %.3fms shorter than its round trip %.3fms", i, res.latency[i], res.rtt[i])
		}
		if (v.norm != nil) != keep[i] {
			t.Fatalf("request %d: kept body %v, want %v", i, v.norm != nil, keep[i])
		}
	}
	if want := time.Duration(len(reqs)-1) * time.Second / 300; res.elapsed < want {
		t.Fatalf("schedule took %v, want at least %v", res.elapsed, want)
	}
}
