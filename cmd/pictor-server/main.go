// Command pictor-server is the benchmark-as-a-service control plane: a
// long-running HTTP/JSON API over the same experiment vocabulary the
// pictor-bench CLI runs in batch. See internal/serve for the endpoint
// and spec documentation.
//
// Usage:
//
//	pictor-server [-addr :8080] [-parallel 0] [-jobs 1] [-queue 64]
//
// Submit work with e.g.
//
//	curl -s localhost:8080/jobs -d '{"kind":"fleet","machines":4}'
//	curl -N localhost:8080/jobs/j1/events
//	curl -s localhost:8080/jobs/j1/results.csv
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pictor/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so one that never finishes them cannot hold a
// connection forever. It does not bound request bodies or the
// long-lived SSE progress streams.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	parallel := flag.Int("parallel", 0, "experiment-runner workers per job (0 = all cores)")
	jobs := flag.Int("jobs", 1, "concurrently running jobs (further submissions queue)")
	queueDepth := flag.Int("queue", 64, "pending-job queue depth (submissions beyond it get 503)")
	flag.Parse()

	srv := serve.New(serve.Config{Parallel: *parallel, Jobs: *jobs, QueueDepth: *queueDepth})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	go func() {
		log.Printf("pictor-server listening on %s (POST /jobs, GET /jobs/{id}/events)", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("listen: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("shutting down: cancelling jobs, draining connections")

	// Stop accepting connections first, then cancel the job queue —
	// running jobs stop at their next trial-unit boundary.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
}
