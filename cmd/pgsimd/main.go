// Command pgsimd is the warm-start OPF serving daemon: it loads one or
// more test systems, keeps their prepared problem structure and one
// model each resident, and serves solve requests over HTTP/JSON
// (POST /v1/solve), micro-batching concurrent requests onto the
// parallel worker pool. Warm starts fall back to a cold restart on
// non-convergence, so every answerable request is answered; the
// /metrics endpoint reports the live warm-start hit rate, iteration
// counts and latency histograms.
//
// Models come from cmd/train snapshots (-model) or, for a
// self-contained demo, are trained at boot (-train). Systems without
// either serve the cold path only.
//
// Usage:
//
//	pgsimd -systems case9 -train 120 -epochs 200
//	pgsimd -systems case9,case14 -model case9=case9.model -addr :8421
//	curl -s localhost:8421/v1/solve -d '{"system":"case9","scale":1.05}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lifecycle"
	"repro/internal/mtl"
	"repro/internal/serve"
)

// modelFlags collects repeated -model name=path pairs.
type modelFlags map[string]string

func (m modelFlags) String() string { return "" }

func (m modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want -model system=path, got %q", v)
	}
	m[name] = path
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgsimd: ")
	addr := flag.String("addr", ":8421", "listen address")
	systems := flag.String("systems", "case9", "comma-separated systems to serve ("+strings.Join(grid.Names(), ", ")+")")
	models := modelFlags{}
	flag.Var(models, "model", "system=path of a cmd/train snapshot (repeatable)")
	variantName := flag.String("variant", "smartpgsim", "variant of the -model snapshots: sep, mtl or smartpgsim")
	trainN := flag.Int("train", 0, "bootstrap-train a model at boot on this many load samples for systems without -model (0 = serve cold-only)")
	epochs := flag.Int("epochs", 200, "bootstrap training epochs")
	seed := flag.Int64("seed", 1, "bootstrap data/training seed")
	workers := flag.Int("workers", 0, "solver workers per micro-batch (0 = all cores)")
	maxBatch := flag.Int("max-batch", 16, "max requests coalesced into one micro-batch")
	window := flag.Duration("batch-window", 2*time.Millisecond, "how long to wait for requests to coalesce (negative = no wait)")
	queue := flag.Int("queue", 256, "pending-request bound (full queue answers 503)")
	captureDir := flag.String("capture-dir", "", "directory for served-traffic capture files and the model registry (empty = lifecycle off)")
	captureCap := flag.Int("capture-cap", 1024, "captured (instance, solution) pairs retained per system (ring buffer)")
	canaryFrac := flag.Float64("canary-frac", 0.2, "fraction of warm traffic routed to a canary candidate")
	canaryWindow := flag.Int("canary-window", 32, "warm solves per arm before a canary window decides")
	retrain := flag.Bool("retrain", false, "retrain automatically on detected drift (needs -capture-dir and a model)")
	retrainEpochs := flag.Int("retrain-epochs", 0, "epochs per drift-triggered retrain (0 = the variant's training default)")
	flag.Parse()
	batch.SetDefaultWorkers(*workers)

	variant, err := mtl.ParseVariant(*variantName)
	if err != nil {
		log.Fatal(err)
	}
	names := strings.Split(*systems, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	loaded, err := core.LoadSystems(names)
	if err != nil {
		log.Fatal(err)
	}

	srv := serve.New(serve.Config{
		Workers:     *workers,
		MaxBatch:    *maxBatch,
		BatchWindow: *window,
		QueueDepth:  *queue,
	})
	// With -capture-dir the daemon runs the full model lifecycle: served
	// traffic is captured to <dir>/<system>.capture, boot models are
	// registered in the versioned registry under <dir>/registry, and —
	// with -retrain — drift triggers a background retrain whose
	// candidate canaries at -canary-frac before promotion.
	var reg *lifecycle.Registry
	if *captureDir != "" {
		reg, err = lifecycle.NewRegistry(filepath.Join(*captureDir, "registry"), nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	for _, sys := range loaded {
		m, err := modelFor(sys, models, variant, *trainN, *epochs, *seed)
		if err != nil {
			log.Fatal(err)
		}
		mode := "cold-only"
		if m != nil {
			mode = "warm-start"
		}
		if *captureDir != "" && m != nil {
			v, err := reg.SaveIncumbent(sys.Name, m, "boot")
			if err != nil {
				log.Fatal(err)
			}
			srv.AddSystemVersion(sys, m, v.ID)
			mgr, err := lifecycle.NewManager(lifecycle.Config{
				System:  sys,
				Variant: variant,
				Capture: lifecycle.CaptureConfig{Dir: *captureDir, Cap: *captureCap},
				Canary:  lifecycle.CanaryConfig{Frac: *canaryFrac, Window: *canaryWindow},

				RetrainEpochs: *retrainEpochs,
				RetrainSeed:   *seed,
				Registry:      reg,
				Logf:          log.Printf,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := srv.AttachLifecycle(sys.Name, mgr, *retrain); err != nil {
				log.Fatal(err)
			}
			mode += ", lifecycle"
			if *retrain {
				mode += "+auto-retrain"
			}
		} else {
			srv.AddSystem(sys, m)
		}
		log.Printf("serving %s (%d buses, #λ=%d #µ=%d, %s)",
			sys.Name, sys.Case.NB(), sys.OPF.Lay.NEq, sys.OPF.Lay.NIq, mode)
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		log.Printf("listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	<-ctx.Done()
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close() // after the listener drains, so no handler waits forever
	log.Printf("bye")
}

// Connection timeouts: constants, not flags — no deployment has needed
// different values, and they only bound how long a client may take to
// send a request, never how long a solve may run.
const (
	readHeaderTimeout = 5 * time.Second  // a client that never finishes its headers
	readTimeout       = 30 * time.Second // headers + body; bodies are capped at 1 MiB
	idleTimeout       = 2 * time.Minute  // keep-alive connections between requests
)

// newHTTPServer returns the daemon's http.Server with the read-side
// timeouts set, so one slow or stalled client cannot hold a connection
// forever. WriteTimeout is deliberately left unset: it is an absolute
// deadline on the whole response, and /v1/trajectory streams NDJSON for
// the life of the run while a /v1/screen sweep can take seconds — a
// write deadline would cut off exactly the long answers that are valid.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// modelFor resolves a system's warm-start model: a -model snapshot if
// given, a bootstrap-trained model if -train > 0, else nil (cold-only).
func modelFor(sys *core.System, models modelFlags, variant mtl.Variant, trainN, epochs int, seed int64) (*mtl.Model, error) {
	if path, ok := models[sys.Name]; ok {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		m, err := sys.LoadModel(variant, f)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded %s model for %s from %s", variant, sys.Name, path)
		return m, nil
	}
	if trainN <= 0 {
		return nil, nil
	}
	log.Printf("bootstrap: generating %d samples on %s", trainN, sys.Name)
	set, err := sys.GenerateData(trainN, seed)
	if err != nil {
		return nil, err
	}
	train, _ := set.Split(0.8)
	log.Printf("bootstrap: training %s on %d samples (%d epochs)", variant, len(train.Samples), epochs)
	return sys.TrainModel(variant, train, epochs, seed, log.Printf)
}
