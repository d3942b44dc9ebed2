// Command smartpgsim runs the full Smart-PGSim pipeline on one system:
// offline phase (sample loads, solve to collect ground truth, train the
// physics-informed MTL model) followed by the online evaluation that
// regenerates the rows of Figures 4, 5, 6, 7 and 8 and Table III.
//
// Usage:
//
//	smartpgsim -case case9 -n 200 -epochs 300
//	smartpgsim -case case14 -n 100 -epochs 150 -variants
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/mtl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smartpgsim: ")
	caseName := flag.String("case", "case9", "test system")
	n := flag.Int("n", 120, "load samples (train+validation)")
	epochs := flag.Int("epochs", 200, "training epochs")
	seed := flag.Int64("seed", 1, "seed")
	variants := flag.Bool("variants", false, "also compare Sep models / MTL / Smart-PGSim (Figs 7-8)")
	maxEval := flag.Int("eval", 0, "cap on evaluated validation problems (0 = all)")
	workers := flag.Int("workers", 0, "parallel solve/evaluation workers (0 = all cores)")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)

	sys, err := core.LoadSystem(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("offline phase: generating %d problems on %s", *n, sys.Name)
	set, err := sys.GenerateData(*n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	train, val := set.Split(0.8)
	log.Printf("training Smart-PGSim model (%d train / %d val, %d epochs)",
		len(train.Samples), len(val.Samples), *epochs)
	m, err := sys.TrainModel(mtl.VariantSmartPGSim, train, *epochs, *seed, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("online phase: evaluating")
	ev := core.Evaluate(sys, m, val, *maxEval)
	fmt.Println()
	core.PrintFig4(os.Stdout, []core.EvalResult{ev})
	fmt.Println()
	core.PrintFig5(os.Stdout, []core.EvalResult{ev})
	fmt.Println()
	core.PrintFig6(os.Stdout, core.PredictionAccuracy(sys, m, val))
	fmt.Println()
	core.PrintTableIII(os.Stdout, []core.ReplacementResult{core.ReplacementStudy(sys, m, val, *maxEval)})

	if *variants {
		fmt.Println()
		log.Printf("training all three variants for Figures 7-8")
		rows, err := core.CompareModels(sys, train, val, *epochs, *seed, *maxEval, nil)
		if err != nil {
			log.Fatal(err)
		}
		core.PrintFig7(os.Stdout, sys.Name, rows)
		fmt.Println()
		core.PrintFig8(os.Stdout, sys.Name, rows)
	}

	fmt.Println()
	cases := core.ConvergenceStudy(sys, &val.Samples[0])
	core.PrintFig10(os.Stdout, cases)
}
