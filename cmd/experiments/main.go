// Command experiments regenerates every table and figure of the paper's
// evaluation (Figs 1, 3-6; Tables I, II(a), II(b)) plus the ablation
// studies, each selected by registry name and printed as text. Run with
// -quick for a fast smoke pass.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/pkg/dcsim/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	quick := flag.Bool("quick", false, "run shortened horizons (smoke test)")
	workers := flag.Int("workers", 1, "sweep-engine parallelism for Table II, the extended table and the ablation studies (results are identical at any count)")
	only := flag.String("only", "", "comma-separated subset: "+
		strings.Join(experiments.Names(), ",")+",ablations")
	flag.Parse()

	known := map[string]bool{"ablations": true}
	for _, n := range experiments.Names() {
		known[n] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(strings.ToLower(k))
			if !known[k] {
				log.Fatalf("unknown artifact %q (have %s, ablations)",
					k, strings.Join(experiments.Names(), ", "))
			}
			want[k] = true
		}
	}
	pick := func(key string) bool { return len(want) == 0 || want[key] }

	if want["ablations"] {
		for _, a := range experiments.Ablations() {
			want[a] = true
		}
	}
	o := experiments.Full()
	if *quick {
		o = experiments.Quick()
	}
	o.Workers = *workers

	// Iterate the live registry so late registrations run too; built-ins
	// are registered in the paper's presentation order.
	for _, name := range experiments.Names() {
		if !pick(name) {
			continue
		}
		res, err := experiments.RunOptions(name, o)
		if err != nil {
			log.Printf("%s failed: %v", name, err)
			os.Exit(1)
		}
		fmt.Println(res)
	}
}
