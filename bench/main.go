// Command bench is the repository's one benchmark: four workloads
// driven end to end against a real toposerve subprocess (and the public
// toposearch API for the offline phase), a traced run that times each
// layer's public functions down a latency ladder, and an A-A comparison
// that knows its own noise floor. BENCHMARK.json at the module root
// names the gated metrics and their bounds; README.md explains why each
// workload exists and which layer should move which metric.
//
// Usage (from the module root):
//
//	go run ./bench                              all four workloads, untraced
//	go run ./bench -trace 1                     all four traced runs
//	go run ./bench -workload serve-cold         one workload
//	go run ./bench -runs 5                      five complete sets (for -compare)
//	go run ./bench -compare a.json b.json       A-A / before-after comparison
//
// With -workload the last line of stdout is the one-object summary the
// acceptance driver reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the single list of gated metrics, so the
// program and the file cannot drift apart.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// gated returns the spec's metric list for a trace mode.
func (sp *spec) gated(trace int) []specMetric {
	if trace == 1 {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// environment stamps a result with the machine and settings it came
// from; a number without it is not comparable to anything.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Commit     string `json:"commit"`
	Scale      int    `json:"scale"`
	DataSeed   int64  `json:"data_seed"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	WarmupMs   int64  `json:"warmup_ms"`
	Clients    int    `json:"clients"`
	Time       string `json:"time"`
}

func stampEnvironment(cfg runConfig) environment {
	// The commit comes from the build's VCS stamp, or from git when the
	// build had none (run.sh builds unstamped); a checkout that is not a
	// git repository is "unknown".
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = cfg.root
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		} else {
			commit = "unknown"
		}
	}
	return environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit,
		Scale: cfg.scale, DataSeed: dataSeed, Seed: cfg.seed, Seconds: cfg.seconds,
		WarmupMs: cfg.warmup().Milliseconds(), Clients: clients,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// resultFile is the one result schema: bench/out/result.json, and the
// input of -compare. Claim is always null: the benchmark measures, a
// later change claims.
type resultFile struct {
	Env   environment         `json:"env"`
	Runs  [][]*workloadResult `json:"runs"`
	Claim *string             `json:"claim"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric as `workload metric value unit
// n=<samples>`, gated metrics first in BENCHMARK.json order.
func printResult(sp *spec, r *workloadResult) {
	seen := map[string]bool{}
	line := func(name string, m metric) {
		extra := ""
		if m.Median != 0 || m.Q3 != 0 {
			extra = fmt.Sprintf(" q1=%.6g med=%.6g q3=%.6g min=%.6g max=%.6g", m.Q1, m.Median, m.Q3, m.Min, m.Max)
		}
		fmt.Printf("%-14s %-32s %14.6f %-6s n=%d%s\n", r.Workload, name, m.Value, m.Unit, m.N, extra)
	}
	for _, g := range sp.gated(r.Trace) {
		if m, ok := r.Metrics[g.Name]; ok {
			line(g.Name, m)
			seen[g.Name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		line(name, r.Metrics[name])
	}
	for _, p := range r.Phases {
		fmt.Printf("%-14s phase %-14s sent=%d ok=%d failed=%d elapsed=%s\n",
			r.Workload, p.Name, p.Sent, p.OK, p.Failed, p.Elapsed.Round(time.Millisecond))
	}
	for _, c := range r.Classes {
		fmt.Printf("%-14s class %-22s n=%d", r.Workload, c.Class, c.N)
		var rungs []string
		for k := range c.Rungs {
			rungs = append(rungs, k)
		}
		sort.Strings(rungs)
		for _, k := range rungs {
			fmt.Printf(" %s=%.1fus", k, c.Rungs[k])
		}
		fmt.Println()
	}
	for _, n := range r.Notes {
		fmt.Printf("%-14s note: %s\n", r.Workload, n)
	}
}

// driverLine is the acceptance driver's contract: exactly these keys,
// and under metrics exactly the spec's list for the trace mode.
func driverLine(sp *spec, r *workloadResult) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, g := range sp.gated(r.Trace) {
		m, ok := r.Metrics[g.Name]
		if !ok {
			return "", fmt.Errorf("bench: workload %s did not measure %s, which BENCHMARK.json names", r.Workload, g.Name)
		}
		if m.Unit != g.Unit {
			return "", fmt.Errorf("bench: %s is measured in %q but BENCHMARK.json says %q", g.Name, m.Unit, g.Unit)
		}
		out.Metrics[g.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// runWorkload dispatches one run.
func runWorkload(cfg runConfig, name string, trace int) (*workloadResult, error) {
	switch {
	case trace == 1:
		return runTraced(cfg, name)
	case name == wlOfflineBuild:
		res, _, err := runOfflineBuild(cfg, nil)
		return res, err
	default:
		return runServeWorkload(cfg, name)
	}
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		workload = flag.String("workload", "", "run one workload (serve-hot, serve-cold, live-update, offline-build); empty runs all four")
		seed     = flag.Int64("seed", 42, "request-stream seed (the database is fixed by the data seed)")
		seconds  = flag.Int("seconds", 30, "timed-phase length of each workload, seconds")
		trace    = flag.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
		scale    = flag.Int("scale", 4, "synthetic database scale")
		runs     = flag.Int("runs", 1, "complete sets of runs to make (all-workloads mode); -compare reads their spread")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	sp, err := readSpec(root)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("bench: -compare takes two result files")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 || *scale < 1 || *runs < 1 {
		return errors.New("bench: -seconds, -scale and -runs must be at least 1")
	}
	if err := ensureDirs(root); err != nil {
		return err
	}
	cfg := runConfig{root: root, scale: *scale, seed: *seed, seconds: *seconds}
	file := resultFile{Env: stampEnvironment(cfg)}
	envLine, err := json.Marshal(file.Env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)

	if *workload == "" {
		return runAll(sp, cfg, file, *trace, *runs)
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known {
		return fmt.Errorf("bench: unknown workload %q (have %v)", *workload, workloadNames)
	}
	if cfg.bin, err = buildDaemon(root); err != nil {
		return err
	}
	res, err := runWorkload(cfg, *workload, *trace)
	if err != nil {
		return fmt.Errorf("bench: %s: %w", *workload, err)
	}
	printResult(sp, res)
	file.Runs = [][]*workloadResult{{res}}
	if err := writeJSON(filepath.Join(root, outDir, singleResultName(*workload, *trace)), file); err != nil {
		return err
	}
	// The driver reads correctness from the line, so an incorrect run
	// still exits 0; only a run that could not measure exits non-zero.
	line, err := driverLine(sp, res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

func singleResultName(workload string, trace int) string {
	return fmt.Sprintf("result-%s-trace%d.json", workload, trace)
}

// runAll is the all-workloads mode: runs complete sets, each workload
// of each set in a fresh process of this same binary, as the acceptance
// driver runs them. In one long-lived process the second and later
// builds skip the page faults a new heap costs and run 20 % faster
// (3.7 s against 4.6 s at scale 4), so the runs of a set would not be
// comparable with each other or with the driver's.
func runAll(sp *spec, cfg runConfig, file resultFile, trace, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	allCorrect := true
	for run := 0; run < runs; run++ {
		var set []*workloadResult
		for _, name := range workloadNames {
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(cfg.scale))
			cmd.Dir = cfg.root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("bench: %s: %w", name, err)
			}
			one, err := readResultFile(filepath.Join(cfg.root, outDir, singleResultName(name, trace)))
			if err != nil {
				return err
			}
			res := one.Runs[0][0]
			set = append(set, res)
			allCorrect = allCorrect && res.Correct
		}
		file.Runs = append(file.Runs, set)
	}
	out := filepath.Join(outDir, "result.json")
	if err := writeJSON(filepath.Join(cfg.root, out), file); err != nil {
		return err
	}
	fmt.Printf("{\"result\": %q, \"correct\": %v, \"claim\": null}\n", out, allCorrect)
	if !allCorrect {
		return errors.New("bench: incorrect outputs (see FAIL notes above)")
	}
	return nil
}
