// Command bench is the end-to-end benchmark of dcsim.Run. Each workload
// runs in its own process: set up three times (inputs, scenario checks, one
// warm-up iteration), then a closed loop of iterations, one dcsim.Run in
// flight at a time, for -seconds. With -trace 1 the process alternates
// plain iterations with ones run through a traced composition of the same
// engine and reports per-layer self times instead of end-to-end metrics.
//
//	bash bench/run.sh                                  # every workload, both passes
//	bash bench/run.sh -workload tableii-40 -trace 0    # one workload, one process
//	bash bench/run.sh compare A.json B.json            # verdicts against BENCHMARK.json
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricSpec is one reported metric: its unit, and whether lower or higher
// is better.
type metricSpec struct{ unit, better string }

// endToEnd are the metrics an untraced run reports. The consolidation
// metrics are normalized by the population's demand, so they move with the
// engine's decisions rather than with what the seed drew.
var endToEnd = map[string]metricSpec{
	"run_s":             {"s", "lower"},
	"setup_s":           {"s", "lower"},
	"peak_rss_mb":       {"MiB", "lower"},
	"alloc_mb":          {"MiB", "lower"},
	"energy_per_core_h": {"kJ/core-h", "lower"},
	"servers_per_core":  {"servers/core", "lower"},
}

// outputs are the runs' results, summed or averaged over an iteration. They
// are deterministic for a seed, so reports of one seed compare them exactly.
var outputs = map[string]metricSpec{
	"energy_kj":      {"kJ", "lower"},
	"violation_pct":  {"%", "lower"},
	"active_servers": {"servers", "lower"},
}

// perLayer are the metrics a traced run reports.
var perLayer = func() map[string]metricSpec {
	m := map[string]metricSpec{
		"runtime.gc.self_s":            {"s", "lower"},
		"runtime.gc.calls":             {"count", "lower"},
		"ingest.ns_per_sample":         {"ns", "lower"},
		"matrix.add.ns_per_pair":       {"ns", "lower"},
		"place.ms_per_call":            {"ms", "lower"},
		"governor.rescale.ns_per_call": {"ns", "lower"},
		"sim.vm_samples_per_s":         {"1/s", "higher"},
		"trace.coverage":               {"ratio", "higher"},
		"trace.overhead":               {"ratio", "lower"},
	}
	for _, s := range spanNames {
		m[s+".self_s"] = metricSpec{"s", "lower"}
		m[s+".calls"] = metricSpec{"count", "lower"}
	}
	return m
}()

// report is the file -json writes: the environment and one record per
// benchmark process.
type report struct {
	Env     env       `json:"env"`
	Records []*record `json:"records"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	var traceFlag int
	var jsonOut string
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "measurement time per process")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from traced iterations")
	flag.BoolVar(&o.quick, "quick", false, "toy-sized workloads (smoke test)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for recorded traces")
	flag.StringVar(&jsonOut, "json", "", "write every sample to this file")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	var err error
	if o.workload == "" {
		err = runAll(o, jsonOut)
	} else {
		err = runOne(o, jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its result line.
func runOne(o options, jsonOut string) error {
	rec, err := runWorkload(context.Background(), o)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		if err := writeReport(jsonOut, report{currentEnv(), []*record{rec}}); err != nil {
			return err
		}
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	e := currentEnv()
	fmt.Printf("workload %s  seed %d  trace %v  %s  nproc %d  GOMAXPROCS %d\n",
		rec.Workload, rec.Seed, rec.Trace, e.Go, e.NProc, e.GOMAXPROCS)
	printSamples(rec, specs)
	if !o.trace {
		printSamples(rec, outputs)
		printSamples(rec, map[string]metricSpec{"wall_s": {"s", "lower"}})
	}
	for _, f := range rec.Failures {
		fmt.Println("FAILED", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]value{}}
	for name, spec := range specs {
		line.Metrics[name] = value{median(rec.Samples[name]), spec.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printSamples prints each metric's median, range and sample count.
func printSamples(rec *record, specs map[string]metricSpec) {
	for _, name := range sortedKeys(specs) {
		xs := rec.Samples[name]
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Printf("  %-30s %14.6g %-12s  min %.6g  max %.6g  n %d\n", name, median(xs), specs[name].unit, lo, hi, len(xs))
	}
}

// runAll measures every workload, untraced then traced, each in a fresh
// process running this binary, one process at a time.
func runAll(o options, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	all := report{Env: currentEnv()}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			out := filepath.Join(o.workdir, fmt.Sprintf("%s-trace%s-%d.json", w.name, trace, os.Getpid()))
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
				"-workdir", o.workdir, "-json", out}
			if o.quick {
				args = append(args, "-quick")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			// Echo the child's report without its result line.
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			fmt.Println(strings.Join(lines[:max(len(lines)-1, 0)], "\n"))
			if err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
			r, err := readReport(out)
			os.Remove(out)
			if err != nil {
				return err
			}
			all.Records = append(all.Records, r.Records...)
		}
	}
	printSummary(all)
	if jsonOut != "" {
		return writeReport(jsonOut, all)
	}
	return nil
}

// printSummary prints the median per iteration of every metric, one column
// per workload: the untraced records' end-to-end metrics and outputs, then
// the traced records' per-layer metrics.
func printSummary(all report) {
	fmt.Printf("\nmedian per iteration (%s, nproc %d, GOMAXPROCS %d)\n", all.Env.Go, all.Env.NProc, all.Env.GOMAXPROCS)
	for _, traced := range []bool{false, true} {
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprint(tw, "metric\tunit\t")
		var recs []*record
		for _, r := range all.Records {
			if r.Trace == traced {
				recs = append(recs, r)
				fmt.Fprintf(tw, "%s\t", r.Workload)
			}
		}
		fmt.Fprint(tw, "\nfailed runs\t\t")
		for _, r := range recs {
			fmt.Fprintf(tw, "%d/%d\t", r.Failed, r.Attempted)
		}
		fmt.Fprintln(tw)
		specs := []map[string]metricSpec{endToEnd, outputs}
		if traced {
			specs = []map[string]metricSpec{perLayer}
		}
		for _, m := range specs {
			for _, name := range sortedKeys(m) {
				fmt.Fprintf(tw, "%s\t%s\t", name, m[name].unit)
				for _, r := range recs {
					fmt.Fprintf(tw, "%.6g\t", median(r.Samples[name]))
				}
				fmt.Fprintln(tw)
			}
		}
		fmt.Println()
		tw.Flush()
	}
}

func writeReport(path string, r report) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
