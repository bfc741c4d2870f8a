package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict compares side b against side a for one metric. A metric whose
// samples repeat exactly on both sides is compared exactly; otherwise b
// may move by up to bound (a share of a's median) and still be "same", and
// when either side's quartile spread exceeds the bound the verdict is
// "unresolved" unless every sample of b beats every sample of a.
func verdict(a, b []float64, better string, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	sign := 1.0 // positive = b is worse
	if better == "higher" {
		sign = -1
	}
	change := sign * relative(qb[1]-qa[1], qa[1])
	if constant(a) && constant(b) {
		bound = 0
	} else if max(relative(qa[2]-qa[0], qa[1]), relative(qb[2]-qb[0], qb[1])) > bound {
		if allBetter(a, b, sign) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case -change > bound:
		return "better"
	}
	return "same"
}

// relative is d as a share of base, or d itself when base is 0.
func relative(d, base float64) float64 {
	if base == 0 {
		return d
	}
	return d / math.Abs(base)
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// allBetter reports whether every sample of b beats every sample of a;
// sign is 1 when lower is better and -1 when higher is.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*y >= sign*x {
				return false
			}
		}
	}
	return true
}

// side holds one report's records by workload.
type side map[string][]*record

func loadSide(path string) (side, error) {
	r, err := readReport(path)
	if err != nil {
		return nil, err
	}
	s := side{}
	for _, rec := range r.Records {
		s[rec.Workload] = append(s[rec.Workload], rec)
	}
	return s, nil
}

// values are what the verdict on a metric compares: one median per process
// when the report ran the workload in several processes, so the spread is
// the one between processes, or else the one process's samples.
func (s side) values(workload, metric string) []float64 {
	var recs []*record
	for _, r := range s[workload] {
		if len(r.Samples[metric]) > 0 {
			recs = append(recs, r)
		}
	}
	if len(recs) == 1 {
		return recs[0].Samples[metric]
	}
	var out []float64
	for _, r := range recs {
		out = append(out, median(r.Samples[metric]))
	}
	return out
}

// bySeed maps each seed the workload ran with to what f reads from that
// seed's records (the last one wins; runs of one seed agree on these).
func (s side) bySeed(workload string, f func(*record) (string, bool)) map[int64]string {
	m := map[int64]string{}
	for _, r := range s[workload] {
		if v, ok := f(r); ok {
			m[r.Seed] = v
		}
	}
	return m
}

// exactVerdict compares per-seed values over the seeds both sides ran:
// "same" when all are equal, otherwise "worse" or "better" when every
// change goes one way (compared as numbers when both parse), else "changed".
func exactVerdict(a, b map[int64]string, better string) (string, int) {
	seeds, worse, improved := 0, 0, 0
	for seed, va := range a {
		vb, ok := b[seed]
		if !ok {
			continue
		}
		seeds++
		if va == vb {
			continue
		}
		var fa, fb float64
		if _, err := fmt.Sscan(va, &fa); err == nil {
			if _, err := fmt.Sscan(vb, &fb); err == nil && (fb > fa) == (better == "lower") {
				worse++
				continue
			}
		}
		improved++
	}
	switch {
	case worse == 0 && improved == 0:
		return "same", seeds
	case improved == 0 && better != "":
		return "worse", seeds
	case worse == 0 && better != "":
		return "better", seeds
	}
	return "changed", seeds
}

// compareMain prints, for every workload and end-to-end metric, the median
// and quartiles of both reports and a verdict against BENCHMARK.json's
// bound. The runs' outputs and result digests are compared exactly, seed by
// seed. It fails when any verdict is "worse", including b failing a larger
// share of its runs than a.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-benchmark BENCHMARK.json] A.json B.json")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	a, err := loadSide(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadSide(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("the reports share no workload")
	}
	worse := 0
	count := func(v string) string {
		if v == "worse" || v == "missing" {
			worse++
		}
		return v
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tbound\tverdict")
	for _, w := range names {
		fa, fb := failures(a[w]), failures(b[w])
		v := "same"
		if fb[0]*fa[1] > fa[0]*fb[1] {
			v = "worse"
		}
		fmt.Fprintf(tw, "%s\tfailed runs\t\t%d/%d\t%d/%d\t0\t%s\n", w, fa[0], fa[1], fb[0], fb[1], count(v))
		for _, m := range def.EndToEnd {
			xa, xb := a.values(w, m.Name), b.values(w, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t%.3g\t%s\n", w, m.Name, m.Unit, m.Bound, count("missing"))
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.3g\t%s\n", w, m.Name, m.Unit,
				quartileText(xa), quartileText(xb), m.Bound, count(verdict(xa, xb, m.Better, m.Bound)))
		}
		for _, name := range sortedKeys(outputs) {
			first := func(r *record) (string, bool) {
				if xs := r.Samples[name]; len(xs) > 0 {
					return fmt.Sprint(xs[0]), true
				}
				return "", false
			}
			v, seeds := exactVerdict(a.bySeed(w, first), b.bySeed(w, first), outputs[name].better)
			fmt.Fprintf(tw, "%s\t%s\t%s\t\t%d seeds\texact\t%s\n", w, name, outputs[name].unit, seeds, count(v))
		}
		digests := func(r *record) (string, bool) { return strings.Join(r.Digests, ","), len(r.Digests) > 0 }
		v, seeds := exactVerdict(a.bySeed(w, digests), b.bySeed(w, digests), "")
		fmt.Fprintf(tw, "%s\tdigests\t\t\t%d seeds\texact\t%s\n", w, seeds, v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d verdicts worse or missing", worse)
	}
	return nil
}

// failures sums failed and attempted runs over records.
func failures(recs []*record) [2]int {
	var f [2]int
	for _, r := range recs {
		f[0] += r.Failed
		f[1] += r.Attempted
	}
	return f
}

func quartileText(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}
