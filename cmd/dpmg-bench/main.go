// Command dpmg-bench regenerates the experiment tables E1–E16 defined in
// internal/experiment, the empirical analogues of the paper's
// theorem-level claims.
// With -ingest it instead becomes a load generator for a dpmg-server
// streaming ingest listener (-ingest-addr), pushing pipelined binary item
// frames and reporting sustained items/second.
//
// Usage:
//
//	dpmg-bench                   # run every experiment at full size
//	dpmg-bench -experiment E1    # run a single experiment
//	dpmg-bench -quick            # reduced sizes (seconds instead of minutes)
//	dpmg-bench -csv              # emit CSV instead of aligned tables
//	dpmg-bench -ingest host:9090 # stream load at a server's -ingest-addr
//	           [-ingest-stream default] [-ingest-batch 4096]
//	           [-ingest-frames 1000] [-ingest-conns 1] [-d 1048576]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dpmg/internal/experiment"
)

func main() {
	var (
		id    = flag.String("experiment", "", "experiment ID (E1..E10); empty runs all")
		quick = flag.Bool("quick", false, "reduced problem sizes")
		csv   = flag.Bool("csv", false, "emit CSV")
		seed  = flag.Uint64("seed", 1, "base random seed")

		ingest       = flag.String("ingest", "", "streaming-ingest mode: address of a dpmg-server -ingest-addr listener (skips the experiments)")
		ingestStream = flag.String("ingest-stream", "default", "stream to bind the ingest connections to")
		ingestBatch  = flag.Int("ingest-batch", 4096, "items per data frame")
		ingestFrames = flag.Int("ingest-frames", 1000, "data frames per connection")
		ingestConns  = flag.Int("ingest-conns", 1, "concurrent streaming connections")
		ingestD      = flag.Uint64("d", 1<<20, "universe bound for generated items (must fit the target stream)")
	)
	flag.Parse()

	if *ingest != "" {
		if err := runIngest(ingestConfig{
			addr: *ingest, stream: *ingestStream, batch: *ingestBatch,
			frames: *ingestFrames, conns: *ingestConns, d: *ingestD, seed: *seed,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "dpmg-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiment.Config{Quick: *quick, Seed: *seed}
	ids := experiment.IDs()
	if *id != "" {
		ids = strings.Split(strings.ToUpper(*id), ",")
	}
	for _, eid := range ids {
		r, ok := experiment.Lookup(eid)
		if !ok {
			fmt.Fprintf(os.Stderr, "dpmg-bench: unknown experiment %q (have %s)\n",
				eid, strings.Join(experiment.IDs(), ", "))
			os.Exit(2)
		}
		start := time.Now()
		tab := r(cfg)
		if *csv {
			tab.CSV(os.Stdout)
		} else {
			tab.Render(os.Stdout)
			fmt.Printf("  (%s in %v)\n\n", eid, time.Since(start).Round(time.Millisecond))
		}
	}
}
