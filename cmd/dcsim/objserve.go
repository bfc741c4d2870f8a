package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"repro/internal/objstore"
)

// objserveMain implements "dcsim objserve": a minimal static object store
// over a recorded trace directory — strong ETags (content sha256), HEAD
// and GET — which is the protocol surface the "trace-obj" workload kind
// consumes. It exists so diskless-worker setups can be
// exercised and smoke-tested with no external object store; it is a test
// fixture with a listen flag, not a production file server. -fail-first
// answers 503 to the first N requests, letting scripts prove the fetcher's
// transient-fault retry heals real faults.
func objserveMain(args []string) {
	fs := flag.NewFlagSet("dcsim objserve", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "address to serve the object store on")
		dir       = fs.String("dir", "", "recorded trace directory to serve (required; see tracegen -dir)")
		failFirst = fs.Int64("fail-first", 0, "answer 503 to the first N requests (transient-fault injection)")
		quiet     = fs.Bool("quiet", false, "do not log per-request lines")
	)
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		log.Fatal("objserve: -dir is required")
	}
	if info, err := os.Stat(*dir); err != nil || !info.IsDir() {
		log.Fatalf("objserve: -dir %q is not a readable directory", *dir)
	}

	h := &objstore.DirServer{Dir: *dir}
	if !*quiet {
		h.Logf = log.Printf
	}
	h.FailFirst(*failFirst)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// The URL line is the machine-readable part of the output — scripts
	// capture it — so it goes to stdout while logging stays on stderr.
	fmt.Printf("http://%s\n", ln.Addr())
	log.Printf("objserve: serving %s on http://%s (fail-first=%d)", *dir, ln.Addr(), *failFirst)

	serveUntilInterrupt(ln, h, nil)
}
