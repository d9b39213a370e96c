package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// heldOutSeed is a seed no workload was sized or tuned on.
const heldOutSeed = 1000003

// TestWorkloadsHeldOutSeed sets every workload up twice on the held-out
// seed and runs one round each, the second traced and profiled. Every
// output check must pass, and the exact counts must be identical across
// the two runs.
func TestWorkloadsHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := oneRound(t, w, nil)
			tr, p := newTracer(), newProfile()
			var second *roundResult
			if err := p.record(func() { second = oneRound(t, w, tr) }); err != nil {
				t.Fatal(err)
			}
			if len(first.exact) == 0 {
				t.Fatal("no exact counts")
			}
			for k, v := range first.exact {
				if second.exact[k] != v {
					t.Errorf("exact count %s: %v then %v", k, v, second.exact[k])
				}
			}
			if len(tr.spans) == 0 {
				t.Error("traced round recorded no spans")
			}
			var shares float64
			for _, l := range layers {
				shares += p.layerNS[l]
			}
			if p.totalNS == 0 || shares != p.totalNS {
				t.Errorf("profile folds %v ns of %v into layers", shares, p.totalNS)
			}
		})
	}
}

func oneRound(t *testing.T, w workload, tr *tracer) *roundResult {
	t.Helper()
	c, err := w.setup(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	r := c.round(tr)
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
	}
	return r
}

// TestReportLine runs the command end to end on the cheapest workload and
// checks the last line of its output against the report contract.
func TestReportLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, traced := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "sedov-campaign", "--seed", "5", "--seconds", "0.1",
			"--trace", traced, "--trace-dir", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 || len(rep.Metrics) == 0 {
			t.Fatalf("trace %s: report %+v", traced, rep)
		}
		for name, m := range rep.Metrics {
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", name)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sedov-campaign", "--trace", "2"},
		{"--workload", "sedov-campaign", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := percentile(xs, c.p); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples")
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Errorf("covered = %v, want 60", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"amrtools/internal/mpi.(*World).queueFor":                          "mpi",
		"amrtools/internal/mpi.(*ring[...]).push":                          "mpi",
		"amrtools/internal/harness.Run[go.shape.*amrtools/internal/x.Res]": "harness",
		"amrtools/internal/physics.(*Sedov).WantRefine":                    "other",
		"main.(*driverCampaign).round.func1":                               "bench",
		"runtime.mallocgc":                                                 "",
		"sort.Slice":                                                       "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
