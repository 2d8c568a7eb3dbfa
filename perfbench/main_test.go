package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// declared reads the metric lists the repository's BENCHMARK.json
// promises, so the smoke test holds the benchmark to its contract.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload string, trace, tamper bool) (result, string) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.4, trace: trace, tiny: true, traceDir: t.TempDir(), tamper: tamper}
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestSmoke runs every workload at tiny size, untraced and traced: each
// must answer correctly and print every declared metric with its unit,
// both in the result and as a "metric" line.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res, out := tinyRun(t, name, trace, false)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				if !strings.Contains(out, "\nmetric error_rate 0 fraction\n") {
					t.Errorf("error_rate 0 not printed:\n%s", out)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", m, got, unit)
					}
					if !printed(out, m, unit) {
						t.Errorf("metric %s not printed with unit %s", m, unit)
					}
				}
			})
		}
	}
}

// TestTamperedOracle corrupts one oracle answer: the run must count the
// mismatch as a failed op and report correct false.
func TestTamperedOracle(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, out := tinyRun(t, name, false, true)
			if res.Failed == 0 || res.Correct {
				t.Fatalf("tampered oracle went unnoticed: failed=%d correct=%v\n%s", res.Failed, res.Correct, out)
			}
			if !printed(out, "error_rate", "fraction") || strings.Contains(out, "\nmetric error_rate 0 fraction\n") {
				t.Errorf("error_rate still 0:\n%s", out)
			}
		})
	}
}

// printed reports whether out has a "metric <name> <value> <unit>" line.
func printed(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "churn", "--seed", "3", "--seconds", "2", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "churn" || o.seed != 3 || o.seconds != 2 || !o.trace || o.tiny {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "churn", "--trace", "2"},
		{"--workload", "churn", "--seconds", "0"},
		{"--workload", "churn", "extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	if r := rank(100, 0.9); r != 89 {
		t.Errorf("rank(100, 0.9) = %d, want 89", r)
	}
	if b := beyond(100, 0.9); b != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", b)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
