package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tiny is a self-test run: a small network and a one-second window.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace, scale: 0.05,
		workdir: t.TempDir(), flipExpected: -1, dropReplayOp: -1,
	}
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// benchmarkJSON is the part of BENCHMARK.json the tables must match.
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

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) || !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	check := func(kind string, js []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(js) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(js), len(defs))
			return
		}
		for i, m := range js {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func equal(a, b []string) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryMetricPrints runs every workload untraced and traced and
// checks that each named metric prints with its unit and a sane value.
func TestEveryMetricPrints(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, name, trace)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.workdir, "spans-"+name+"-seed7.tsv")); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

// TestOracleTripsOnFlippedAnswer flips one expected answer and expects
// every workload to fail the run.
func TestOracleTripsOnFlippedAnswer(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := tiny(t, name, false)
		cfg.flipExpected = 0
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: a flipped expected answer still reported correct", name)
		}
	}
}

// TestParityTripsOnDroppedOp leaves one acknowledged edge out of the
// churn replay — the only out-edge of a user the stream added, never
// deleted later — and expects the parity check to catch it.
func TestParityTripsOnDroppedOp(t *testing.T) {
	cfg := tiny(t, "update-churn", false)
	path := filepath.Join(cfg.workdir, "base.gsn")
	if _, err := writeNetwork("gowalla-like", cfg.scale, path); err != nil {
		t.Fatal(err)
	}
	base, err := parseNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	// New users are under 1% of the stream, so not every seed's tiny
	// stream has one; take the first seed whose stream does.
	drop := -1
	for ; cfg.seed < 100; cfg.seed++ {
		if drop = droppableOp(churnStream(base, rand.New(rand.NewSource(cfg.seed)), churnLen(cfg.seconds))); drop >= 0 {
			break
		}
	}
	if drop < 0 {
		t.Fatal("no tiny stream below seed 100 has an added user with exactly one kept out-edge")
	}

	res, err := run(cfg)
	if err != nil || !res.Correct {
		t.Fatalf("the unmodified replay must pass: correct=%v err=%v", res != nil && res.Correct, err)
	}
	cfg.dropReplayOp = drop
	if res, err = run(cfg); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Errorf("replay without op %d of seed %d still passed the parity check", drop, cfg.seed)
	}
}

// droppableOp returns the index of an add_edge that is the only
// out-edge of a user the stream added and is never deleted, or -1.
func droppableOp(ops []updateOp) int {
	out := map[int][]int{}
	deleted := map[[2]int]bool{}
	for i, op := range ops {
		switch op.kind {
		case opAddUser:
			out[op.id] = []int{}
		case opCheckin, opFriendAdd:
			if o, ok := out[op.from]; ok {
				out[op.from] = append(o, i)
			}
		case opDelEdge:
			deleted[[2]int{op.from, op.to}] = true
		}
	}
	for i, op := range ops {
		if o := out[op.from]; (op.kind == opCheckin || op.kind == opFriendAdd) && len(o) == 1 && o[0] == i && !deleted[[2]int{op.from, op.to}] {
			return i
		}
	}
	return -1
}
