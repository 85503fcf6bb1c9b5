// Command spechpcd serves the simulated SPEChpc 2021 evaluation over
// HTTP: a long-lived daemon wrapping one asynchronous campaign
// scheduler, so any number of clients can submit benchmark jobs, poll
// their progress, and fetch results as JSON or CSV. Identical requests
// coalesce onto one simulation; with -cache-dir, results persist across
// restarts and repeated queries are served from disk without simulating
// (see docs/SERVICE.md for the API reference). Whole studies run through
// spechpc -scenario or figures -scenario; given the same -cache-dir,
// they share the daemon's results.
//
// Usage:
//
//	spechpcd -addr 127.0.0.1:8080 -cache-dir ~/.cache/spechpc-sim
//	spechpcd -addr 127.0.0.1:0                 # ephemeral port
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/api/v1/jobs -d '{"benchmark":"lbm","cluster":"A","ranks":72}'
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: in-flight HTTP
// requests get a drain window, queued-but-unstarted jobs are dropped,
// and simulations already running complete and persist before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/spechpc/spechpc-sim/internal/campaign"
	"github.com/spechpc/spechpc-sim/internal/service"
	"github.com/spechpc/spechpc-sim/internal/surrogate"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "scheduler worker pool size")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (results survive restarts)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight HTTP requests")
	surro := flag.Bool("surrogate", false, "serve mode=fast queries from analytic surrogate models fitted over cached results")
	maxBound := flag.Float64("surrogate-max-bound", surrogate.DefaultMaxBound, "surrogate accuracy tolerance: queries whose error bound exceeds it simulate exactly")
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	var dirStore *campaign.DirStore
	var store campaign.Store
	if *cacheDir != "" {
		ds, err := campaign.NewDirStore(*cacheDir)
		if err != nil {
			fatal(err)
		}
		dirStore, store = ds, ds
	}
	sched := campaign.NewScheduler(*parallel, store)

	// With -surrogate, warm-start the fast tier from every result already
	// persisted, then keep learning: the scheduler feeds each fresh exact
	// simulation back into the index (campaign.Observer).
	var idx *surrogate.Index
	if *surro {
		idx = surrogate.NewIndex()
		idx.MaxBound = *maxBound
		if dirStore != nil {
			n, err := idx.FitStore(dirStore)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spechpcd: surrogate warm-start:", err)
			}
			if _, err := idx.Load(dirStore.ModelsDir()); err != nil {
				fmt.Fprintln(os.Stderr, "spechpcd: surrogate model load:", err)
			}
			fitted, families := idx.Models()
			fmt.Printf("spechpcd: surrogate warm-start: %d cached results, %d/%d families fitted\n",
				n, fitted, families)
		}
	}

	svc := service.New(sched, service.Options{Surrogate: idx})

	// The resolved address line is load-bearing: scripts/service_smoke.sh
	// starts the daemon on an ephemeral port and parses the address from
	// its prefix.
	fmt.Printf("spechpcd: listening on http://%s (workers=%d cache-dir=%q)\n",
		ln.Addr(), sched.Workers(), *cacheDir)

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "spechpcd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "spechpcd: drain window expired:", err)
	}
	svc.Close()
	sched.Close() // drops queued jobs, waits for running simulations
	if idx != nil && dirStore != nil {
		// Persist each model's samples (own "m1-" prefix, models/ subdir).
		// The next boot's Load only re-seeds those samples, which the
		// index then refits; raw results stay authoritative.
		if n, err := idx.Save(dirStore.ModelsDir()); err != nil {
			fmt.Fprintln(os.Stderr, "spechpcd: surrogate model save:", err)
		} else {
			fmt.Fprintf(os.Stderr, "spechpcd: saved %d surrogate models\n", n)
		}
	}
	fmt.Fprintln(os.Stderr, sched.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spechpcd:", err)
	os.Exit(1)
}
