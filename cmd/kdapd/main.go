// Command kdapd serves the KDAP JSON API over HTTP.
//
// Usage:
//
//	kdapd [-addr :8080] [-db ebiz,online,reseller,DIR] [-log text|json]
//	      [-query-timeout 10s] [-max-inflight 0]
//	      [-answer-cache-size 512] [-answer-cache-ttl 5m]
//	      [-slo-target 250ms] [-segment-cache-mb 64]
//
// Each -db entry is a built-in warehouse, generated in memory, or a
// warehouse directory written by kdapgen -out, served under its base
// name. A directory's fact table is served disk-backed: scans page
// 8K-row segments in through a CLOCK cache bounded by -segment-cache-mb,
// and per-segment zone maps and Bloom filters let matching scans skip
// segments without touching disk. Rows ingested into it are in its
// files once the server shuts down. Answers are byte-identical to
// resident serving.
//
// A minimal web UI is served at /; the JSON endpoints live under /api.
// Prometheus metrics are exposed at /metrics, pprof profiles under
// /debug/pprof/, and access logs go to stderr via log/slog (-log json
// for machine-readable lines).
// See internal/server for the endpoint contract. Example session:
//
//	curl -s localhost:8080/api/query -d '{"db":"ebiz","q":"Columbus LCD"}'
//	curl -s localhost:8080/api/explore -d '{"session":"s1","pick":1}'
//
// The server shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kdap/internal/dataset"
	"kdap/internal/persist"
	"kdap/internal/server"
)

func main() {
	srvOpts := server.DefaultOptions()
	addr := flag.String("addr", ":8080", "listen address")
	dbs := flag.String("db", "ebiz,online,reseller",
		"comma-separated warehouses to serve: ebiz, online, reseller, or a warehouse directory (served under its base name)")
	logFormat := flag.String("log", "text", "access log format: text or json")
	flag.DurationVar(&srvOpts.QueryTimeout, "query-timeout", srvOpts.QueryTimeout,
		"per-request pipeline deadline (0 disables); overruns return 504")
	flag.IntVar(&srvOpts.MaxInflight, "max-inflight", srvOpts.MaxInflight,
		"max concurrently executing API requests (0 = unlimited); excess is queued briefly then shed with 503")
	flag.IntVar(&srvOpts.AnswerCacheSize, "answer-cache-size", srvOpts.AnswerCacheSize,
		"answer cache entries per warehouse and phase (0 disables caching and ETags)")
	flag.DurationVar(&srvOpts.AnswerCacheTTL, "answer-cache-ttl", srvOpts.AnswerCacheTTL,
		"answer cache entry lifetime (0 = no expiry)")
	flag.DurationVar(&srvOpts.SLOTarget, "slo-target", srvOpts.SLOTarget,
		"per-request latency target for kdap_slo_* classification and the /debug/queries slow ring")
	flag.IntVar(&srvOpts.SegmentCacheMB, "segment-cache-mb", srvOpts.SegmentCacheMB,
		"segment page-cache budget per warehouse directory, in MiB (0 = store default)")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	warehouses := make(map[string]*dataset.Warehouse)
	var stores []*persist.Store
	for _, name := range strings.Split(*dbs, ",") {
		switch name = strings.TrimSpace(name); name {
		case "ebiz":
			warehouses["ebiz"] = dataset.EBiz()
		case "online":
			warehouses["online"] = dataset.AWOnline()
		case "reseller":
			warehouses["reseller"] = dataset.AWReseller()
		case "":
		default:
			wh, store, err := persist.Open(name)
			if err != nil {
				log.Fatal(err)
			}
			warehouses[filepath.Base(name)] = wh
			stores = append(stores, store)
			fmt.Printf("warehouse %s: fact table disk-backed under %s\n", filepath.Base(name), name)
		}
	}
	if len(warehouses) == 0 {
		log.Fatal("no warehouses selected")
	}

	api := server.NewWithOptions(warehouses, srvOpts)
	api.SetLogger(logger)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	fmt.Printf("kdapd listening on %s, serving %d warehouse(s); UI at /\n", *addr, len(warehouses))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	for _, st := range stores {
		if err := st.Close(); err != nil {
			log.Printf("closing segment store: %v", err)
		}
	}
}
