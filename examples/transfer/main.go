// Transfer: the paper's Section VII-A claim — the physics-embedded
// objective f_AC lets the model transfer to a modified network topology
// (e.g., a transmission line suddenly broken) with little retraining.
//
// We train the Smart-PGSim model on the intact IEEE 14-bus system, take
// branch 13–14 out of service, and compare three models on the outaged
// grid: the stale base model, the base model fine-tuned for a few epochs
// on a small outage dataset, and a model trained from scratch on the same
// small dataset.
//
//	go run ./examples/transfer
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mtl"
	"repro/internal/opf"
)

func main() {
	base := core.MustLoadSystem("case14")
	fmt.Println("training base model on the intact 14-bus system...")
	baseSet, err := base.GenerateData(100, 3)
	if err != nil {
		log.Fatal(err)
	}
	baseTrain, _ := baseSet.Split(0.8)
	model, err := base.TrainModel(mtl.VariantSmartPGSim, baseTrain, 200, 3, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Break a line. case14 branches are unrated, so the constraint
	// layout (and with it every model head) keeps its shape.
	outCase := base.Case.Clone()
	for i := range outCase.Branches {
		if outCase.Branches[i].From == 13 && outCase.Branches[i].To == 14 {
			outCase.Branches[i].Status = false
		}
	}
	outCase.Name = "case14-outage"
	if err := outCase.Normalize(); err != nil {
		log.Fatal(err)
	}
	outSys := &core.System{Name: outCase.Name, Case: outCase, OPF: opf.Prepare(outCase)}

	fmt.Println("collecting a small dataset on the outaged grid (30 samples)...")
	outSet, err := dataset.Generate(outCase, dataset.DefaultPreparer, dataset.Options{N: 30, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	outTrain, outVal := outSet.Split(0.7)

	// Fine-tune the base model briefly on the new topology. The physics
	// losses rebuild around the outaged admittance matrix.
	phys := mtl.NewPhysics(outSys.OPF, dataset.InputVector(outCase))
	fineTuned := model.Clone()
	if _, err := mtl.Train(fineTuned, phys, outTrain, mtl.TrainConfig{Epochs: 40, BatchSize: 8, LR: 5e-4, Seed: 4}); err != nil {
		log.Fatal(err)
	}

	// Baseline: train from scratch with the same tiny budget.
	scratch := mtl.New(outSys.OPF.Lay, model.Cfg)
	if _, err := mtl.Train(scratch, phys, outTrain, mtl.TrainConfig{Epochs: 40, BatchSize: 8, Seed: 4}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-28s %10s %12s\n", "model on outaged grid", "SR", "mean iters")
	report(outSys, "stale base model", model, outVal)
	report(outSys, "fine-tuned (40 epochs)", fineTuned, outVal)
	report(outSys, "from scratch (40 epochs)", scratch, outVal)
	fmt.Println("\nexpected shape: fine-tuning recovers most of the warm-start")
	fmt.Println("quality with a fraction of the original data and epochs.")
}

func report(sys *core.System, label string, m *mtl.Model, val *dataset.Set) {
	var ok, iters int
	for _, s := range val.Samples {
		out := sys.SolveWarm(m, s.Factors, s.Input)
		if out.Converged {
			ok++
		}
		iters += out.Iterations
	}
	n := len(val.Samples)
	fmt.Printf("%-28s %9.0f%% %12.1f\n", label, 100*float64(ok)/float64(n), float64(iters)/float64(n))
}
