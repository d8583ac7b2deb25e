package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which names every
// metric a run must print, in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}

	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.name)
	}
	var jw []string
	for _, w := range b.Workloads {
		jw = append(jw, w.Name)
	}
	if !sameSet(wls, jw) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", wls, jw)
	}

	want := map[string]string{"setup_s": "s"}
	for k, v := range endToEnd(newResult(0)) {
		want[k] = v.Unit
	}
	checkNamed(t, "end_to_end", want, b.EndToEnd)

	want = map[string]string{}
	for _, mu := range layerMetricUnits() {
		want[mu[0]] = mu[1]
	}
	checkNamed(t, "per_layer", want, b.PerLayer)
}

// named is one entry of a BENCHMARK.json list.
type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func checkNamed(t *testing.T, list string, want map[string]string, got []named) {
	t.Helper()
	seen := map[string]bool{}
	for _, g := range got {
		if seen[g.Name] {
			t.Errorf("%s: %s listed twice", list, g.Name)
		}
		seen[g.Name] = true
		if u, ok := want[g.Name]; !ok {
			t.Errorf("%s: %s is not reported by the program", list, g.Name)
		} else if u != g.Unit {
			t.Errorf("%s: %s unit %q, program reports %q", list, g.Name, g.Unit, u)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: program reports %s, BENCHMARK.json does not list it", list, name)
		}
	}
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
