package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests hold the benchmark to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

func shortRun(t *testing.T, workload string, trace bool) result {
	t.Helper()
	o := options{workload: workload, seed: 1, seconds: 1, trace: trace, clients: 2}
	res, err := benchmark(o, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res
}

// TestShortRuns runs every workload briefly, untraced and traced. Each run
// must print every metric BENCHMARK.json names, with its unit, and every
// answer must equal the library's. No operation may fail.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cluster")
	}
	s := readSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloadNames))
	}
	for _, wl := range s.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := shortRun(t, wl.Name, trace)
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace %v: metric %s missing", trace, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s has unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("trace %v: correct=%v attempted=%d", trace, res.Correct, res.Attempted)
				}
				if res.Failed != 0 {
					t.Errorf("trace %v: %d of %d operations failed", trace, res.Failed, res.Attempted)
				}
				if trace {
					checkDesign(t, wl.Name, res.Metrics)
				}
			}
		})
	}
}

// checkDesign holds a traced run to the workload design: the blocking
// path's self times add up to the client's time, and each workload
// exercises the layers it was built for.
func checkDesign(t *testing.T, workload string, m metrics) {
	t.Helper()
	v := func(name string) float64 { return m[name].Value }
	if r := v("trace.addup_ratio"); r < 0.9 || r > 1.1 {
		t.Errorf("blocking-path self times add up to %.3f of the client time, want within 10%%", r)
	}
	switch workload {
	case "zipf-hot":
		if h := v("batch.hit_rate"); h <= 0 || h >= 1 {
			t.Errorf("batch.hit_rate = %v, want strictly between 0 and 1", h)
		}
		if v("batch.evictions_per_job") <= 0 || v("core.share_heur") <= 0 {
			t.Errorf("evictions_per_job = %v, share_heur = %v, want both > 0", v("batch.evictions_per_job"), v("core.share_heur"))
		}
	case "unique-scan":
		if v("batch.hit_rate") != 0 || v("core.share_heur") != 0 {
			t.Errorf("hit_rate = %v, share_heur = %v, want both 0", v("batch.hit_rate"), v("core.share_heur"))
		}
		if v("batch.evictions_per_job") <= 0 {
			t.Errorf("evictions_per_job = %v, want > 0", v("batch.evictions_per_job"))
		}
	case "pareto-sweep":
		if v("pareto.points") <= 0 || v("pareto.sweep_ms") <= 0 {
			t.Errorf("pareto.points = %v, pareto.sweep_ms = %v, want both > 0", v("pareto.points"), v("pareto.sweep_ms"))
		}
	}
}

// perturbOnce rewrites the value of the first successful result slot of
// the first /v1/batch response that has one.
func perturbOnce(done *atomic.Bool) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && r.URL.Path == "/v1/batch" && !done.Load() {
				if out, ok := perturb(body); ok && done.CompareAndSwap(false, true) {
					body = out
				}
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func perturb(body []byte) ([]byte, bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc map[string]any
	if dec.Decode(&doc) != nil {
		return nil, false
	}
	results, _ := doc["results"].([]any)
	for _, r := range results {
		slot, _ := r.(map[string]any)
		if v, ok := slot["value"].(json.Number); ok {
			x, err := v.Float64()
			if err != nil {
				return nil, false
			}
			slot["value"] = x*2 + 1
			out, err := json.Marshal(doc)
			return out, err == nil
		}
	}
	return nil, false
}

// TestCheckerCatchesWrongAnswer proves the checker can fail: a replica
// that changes one answer's value must cost exactly one wrong operation.
func TestCheckerCatchesWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cluster")
	}
	w, err := buildWorkload("zipf-hot", 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	c, err := startCluster(nil, perturbOnce(&done))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	d := &clientLoop{w: w, url: c.url, http: &http.Client{Timeout: time.Minute}, clients: 2}
	recs, _ := d.run(-1, time.Now().Add(500*time.Millisecond), false)
	if !done.Load() {
		t.Fatal("no answer was perturbed")
	}
	v := newChecker(w).check(recs)
	if v.wrong != 1 || v.failed != 1 {
		t.Fatalf("perturbed one answer: checker counted %d wrong, %d failed of %d (first: %s)", v.wrong, v.failed, v.ops, v.first)
	}
}

func TestCovered(t *testing.T) {
	iv := func(a, b time.Duration) [2]time.Duration { return [2]time.Duration{a, b} }
	for _, tc := range []struct {
		in   [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{iv(1, 4)}, 3},
		{[][2]time.Duration{iv(5, 9), iv(1, 4)}, 7},
		{[][2]time.Duration{iv(1, 6), iv(2, 3), iv(5, 8)}, 7},
		{[][2]time.Duration{iv(1, 3), iv(3, 5)}, 4},
	} {
		if got := covered(tc.in); got != tc.want {
			t.Errorf("covered(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
