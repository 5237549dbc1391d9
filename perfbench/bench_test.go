package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs a workload at the self-test size and parses its last line.
func runTiny(t *testing.T, workload string, trace bool, exp *expected) result {
	t.Helper()
	o := &options{workload: workload, seed: 1, seconds: 0.2, trace: trace, out: t.TempDir(), setupReps: 1, tiny: true, exp: exp}
	var stdout, stderr bytes.Buffer
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%v: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%v: last line %q: %v", workload, trace, lines[len(lines)-1], err)
	}
	return r
}

func mustLoadExpected(t *testing.T) *expected {
	t.Helper()
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWorkloadsPrintEveryMetric runs every workload untraced and traced and
// checks that each prints every metric BENCHMARK.json names, with its unit,
// and that every op passed its output check.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			r := runTiny(t, w.Name, trace, mustLoadExpected(t))
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedExpectedValueFails checks that each workload's output check
// bites: one wrong expected value must produce failed ops, not a pass.
func TestTamperedExpectedValueFails(t *testing.T) {
	tamper := map[string]func(e *expected){
		"paper-sweep": func(e *expected) {
			r := e.Sweep["html"]["memento"]
			r.Cycles++
			e.Sweep["html"]["memento"] = r
		},
		"fleet-scale": func(e *expected) {
			e.Fleet[recordedKey(1, true)][0].P99++
		},
		"service-mix": func(e *expected) {
			id := serviceUniverse(true)[0].id
			j := e.Service[id]
			j.Digest = strings.Repeat("0", len(j.Digest))
			e.Service[id] = j
		},
	}
	for workload, fn := range tamper {
		e := mustLoadExpected(t)
		fn(e)
		r := runTiny(t, workload, false, e)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s with a tampered expected value: correct=%v failed=%d, want failed ops", workload, r.Correct, r.Failed)
		}
	}
}

// TestPkgOf checks that profile frames are attributed to their package,
// including generic functions whose type arguments name other packages.
func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"memento/internal/cache.(*Hierarchy).Access": "memento/internal/cache",
		"runtime.mallocgc":                           "runtime",
		"main.forEach[go.shape.struct { Class memento/internal/workload.Class }]": "main",
		"memento/internal/fleet.(*ring[go.shape.int]).push":                       "memento/internal/fleet",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
