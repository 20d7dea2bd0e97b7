package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig is the smallest configuration that still runs every
// phase: scale 1, one-second timed phases.
func smokeConfig(t *testing.T) (runConfig, *spec) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := ensureDirs(root); err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{root: root, bin: bin, scale: 1, seed: 42, seconds: 1}, sp
}

// checkResult fails unless the run was correct and measured, with the
// right unit, every metric BENCHMARK.json names for its trace mode.
func checkResult(t *testing.T, sp *spec, res *workloadResult) {
	t.Helper()
	for _, n := range res.Notes {
		t.Log(n)
	}
	if !res.Correct || res.Failed != 0 || res.Metrics["error_rate"].Value != 0 {
		t.Errorf("%s: correct=%v failed=%d error_rate=%v", res.Workload, res.Correct, res.Failed, res.Metrics["error_rate"].Value)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: nothing attempted", res.Workload)
	}
	if _, err := driverLine(sp, res); err != nil {
		t.Error(err)
	}
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program both ways:
// the workloads are the program's four, and the end-to-end list is the
// program's five.
func TestSpecMatchesProgram(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, workloadNames)
	}
	want := "setup_s,search_p50_ms,search_qps,build_s,store_mb"
	got = got[:0]
	for _, m := range sp.EndToEnd {
		got = append(got, m.Name)
	}
	if strings.Join(got, ",") != want {
		t.Errorf("BENCHMARK.json end_to_end %v, program measures %s", got, want)
	}
}

// TestSmoke runs all four workloads untraced and one traced run, then
// the ladder a second time: counts must repeat exactly for one seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots toposerve subprocesses; skipped under -short")
	}
	cfg, sp := smokeConfig(t)

	// The serve workloads check answers, not speed, so three of the four
	// share the two cores; live-update runs alone because it invalidates
	// itself when its generator is starved.
	t.Run("untraced", func(t *testing.T) {
		for _, name := range []string{wlServeHot, wlServeCold, wlOfflineBuild} {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(cfg, name, 0)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, sp, res)
			})
		}
	})
	res, err := runWorkload(cfg, wlLiveUpdate, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, sp, res)
	if res.Metrics["methods.cache_invalidated"].Value == 0 {
		t.Error("live-update: no cache entry was invalidated by the batches")
	}

	traced, err := runWorkload(cfg, wlOfflineBuild, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, sp, traced)
	listed := map[string]bool{}
	for _, m := range sp.PerLayer {
		listed[m.Name] = true
	}
	for name := range traced.Metrics {
		// Layer metrics are named layer.metric; everything else printed
		// is an end-to-end metric or a printed-only extra.
		if strings.Contains(name, ".") && !listed[name] {
			t.Errorf("traced run measures %s, which BENCHMARK.json per_layer does not list", name)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.root, outDir, "trace-"+wlOfflineBuild+".json")); err != nil {
		t.Errorf("span file: %v", err)
	}

	pass, _ := tracedPass(cfg, wlOfflineBuild)
	again, err := runLadder(ladderInput{cfg: cfg, workload: wlOfflineBuild, pass: pass, reps: 1,
		batches: []growthBatch{newGrowthBatch(cfg.seed, 0)}, offlinePasses: 1, rec: newSpanRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range again.metrics {
		if m.Unit == "count" && (strings.HasPrefix(name, "engine.") || strings.HasPrefix(name, "core.")) {
			if first := traced.Metrics[name]; first.Value != m.Value {
				t.Errorf("%s: %v on the first run, %v on the second run of the same seed", name, first.Value, m.Value)
			}
		}
	}
}
