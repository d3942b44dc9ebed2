// Command traingen generates a labelled training dataset for a test
// system: ±10 % load samples each solved to optimality, serialized with
// encoding/gob for cmd/train.
//
// Usage:
//
//	traingen -case case9 -n 1000 -out case9.ds
package main

import (
	"flag"
	"log"
	"os"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traingen: ")
	caseName := flag.String("case", "case9", "test system")
	n := flag.Int("n", 0, "number of load samples (0 = per-system default, see core.TrainingDefaults; the paper uses 10,000)")
	seed := flag.Int64("seed", 1, "sampling seed")
	out := flag.String("out", "", "output file (default <case>.ds)")
	workers := flag.Int("workers", 0, "parallel solve workers (0 = all cores)")
	flag.Parse()
	if *out == "" {
		*out = *caseName + ".ds"
	}
	batch.SetDefaultWorkers(*workers)

	sys, err := core.LoadSystem(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	if *n == 0 {
		*n, _ = core.TrainingDefaults(sys.Case.NB())
		log.Printf("using the %s default of %d samples (-n overrides)", sys.Name, *n)
	}
	t0 := time.Now()
	set, err := sys.GenerateData(*n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := set.Save(f); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d samples (%d failed draws) to %s in %v",
		len(set.Samples), set.Failed, *out, time.Since(t0).Round(time.Millisecond))
	log.Printf("mean cold-start: %.1f iterations, %v per problem",
		set.MeanIterations(), set.MeanSolveTime().Round(time.Microsecond))
}
