// Command train fits a Smart-PGSim model variant on a dataset produced by
// cmd/traingen and writes the trained weights (with normalization state).
//
// Usage:
//
//	train -case case9 -data case9.ds -epochs 400 -out case9.model
//	train -case case9 -data case9.ds -variant mtl
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mtl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	caseName := flag.String("case", "case9", "test system the dataset was generated on")
	data := flag.String("data", "", "dataset file from cmd/traingen (required)")
	variantName := flag.String("variant", "smartpgsim", "model variant: sep, mtl or smartpgsim")
	epochs := flag.Int("epochs", 0, "training epochs (0 = per-system default, see core.TrainingDefaults)")
	seed := flag.Int64("seed", 1, "initialization seed")
	out := flag.String("out", "", "output model file (default <case>.model)")
	workers := flag.Int("workers", 0, "parallel evaluation workers (0 = all cores)")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)
	if *data == "" {
		log.Fatal("-data is required (generate one with cmd/traingen)")
	}
	if *out == "" {
		*out = *caseName + ".model"
	}
	variant, err := mtl.ParseVariant(*variantName)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := core.LoadSystem(*caseName)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	set, err := dataset.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if set.CaseName != sys.Name {
		log.Fatalf("dataset was generated on %q, not %q", set.CaseName, sys.Name)
	}
	if *epochs == 0 {
		_, *epochs = core.TrainingDefaults(sys.Case.NB())
	}
	train, val := set.Split(0.8)
	log.Printf("training %s on %d samples for %d epochs (%d held out)", variant, len(train.Samples), *epochs, len(val.Samples))
	m, err := sys.TrainModel(variant, train, *epochs, *seed, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	of, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer of.Close()
	if err := m.Save(of); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote model to %s", *out)

	ev := core.Evaluate(sys, m, val, 0)
	core.PrintFig4(os.Stderr, []core.EvalResult{ev})
}
