// Command sensitivity regenerates Table I of the paper: the 16-way
// ablation of precise vs imprecise warm-start components {X, λ, µ, Z},
// reporting success rate and speedup per test system.
//
// Usage:
//
//	sensitivity -systems case5,case9,case14 -n 50
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sensitivity: ")
	systems := flag.String("systems", "case5,case9,case14", "comma-separated system list")
	n := flag.Int("n", 30, "problems per system")
	seed := flag.Int64("seed", 1, "load-sampling seed")
	workers := flag.Int("workers", 0, "parallel solve workers (0 = all cores)")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)

	names := strings.Split(*systems, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	// Resolve every system upfront, so a bad name fails before any solve.
	syss, err := core.LoadSystems(names)
	if err != nil {
		log.Fatal(err)
	}
	results := map[string][]core.SensRow{}
	for i, name := range names {
		t0 := time.Now()
		set, err := syss[i].GenerateData(*n, *seed)
		if err != nil {
			log.Fatal(err)
		}
		results[name] = core.SensitivityStudy(syss[i], set, 0)
		log.Printf("%s done in %v (%d problems)", name, time.Since(t0).Round(time.Millisecond), len(set.Samples))
	}
	core.PrintTableI(os.Stdout, names, results)
	fmt.Println("\nkey observations to compare with the paper:")
	fmt.Println("  row '1 1 1 1' (all precise) should show the highest speedups;")
	fmt.Println("  rows with precise Z but imprecise µ should lose success rate;")
	fmt.Println("  row '1 0 0 0' (X only) should keep SR at 100% with SU ≈ 1.")
}
