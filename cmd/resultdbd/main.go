// Command resultdbd serves a database over TCP using the repository's wire
// protocol, for the distributed-database use case (Section 1.2, use case 3):
// a client can run SELECT RESULTDB remotely and receive the subdatabase
// instead of a denormalized single-table result, cutting transfer size.
//
// Usage:
//
//	resultdbd -addr :7483 -workload job -scale 0.25
//	resultdbd -cache -cache-budget 256MB -max-conns 64 -read-timeout 5m
//
// With -data-dir the server is durable: committed DML/DDL is write-ahead
// logged, checkpoints bound recovery time, and a restart on the same
// directory recovers the exact committed state (the -workload flag then only
// seeds the directory on its first ever start):
//
//	resultdbd -data-dir /var/lib/resultdb -fsync always -wal-segment 4MiB -checkpoint-every 1024
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/durable"
	"resultdb/internal/wal"
	"resultdb/internal/wire"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

func main() {
	var (
		addr         = flag.String("addr", ":7483", "listen address")
		workload     = flag.String("workload", "job", "preload a workload: job | star | hierarchy | none")
		scale        = flag.Float64("scale", 0.25, "JOB workload scale factor")
		cacheOn      = flag.Bool("cache", false, "enable the semantic result cache (hits are served from the encoded payloads each entry keeps)")
		cacheBudget  = flag.String("cache-budget", "64MiB", "result cache byte budget, covering rows and kept wire payloads (e.g. 256MB, 1GiB)")
		maxConns     = flag.Int("max-conns", 0, "max concurrently served connections (0 = unlimited)")
		readTimeout  = flag.Duration("read-timeout", 0, "idle-connection read deadline (0 = none)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-response write deadline (0 = none)")
		wireVersion  = flag.String("wire-version", "v2", "highest wire payload version to negotiate: v1 | v2")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound: in-flight queries get this long to finish before their connections are force-closed (0 = wait indefinitely)")
		dataDir      = flag.String("data-dir", "", "durable data directory: WAL + checkpoints (empty = in-memory only)")
		fsyncPolicy  = flag.String("fsync", "always", "WAL fsync policy: always | interval | off")
		walSegment   = flag.String("wal-segment", "4MiB", "WAL segment rotation budget (e.g. 1MB, 16MiB)")
		ckptEvery    = flag.Int64("checkpoint-every", 1024, "checkpoint after this many committed batches (0 = only on drain)")
	)
	flag.Parse()

	bootstrap := func(d *db.Database) error {
		switch *workload {
		case "job":
			return job.Load(d, job.Config{Scale: *scale, Seed: 42})
		case "star":
			return star.Load(d, star.DefaultConfig())
		case "hierarchy":
			return hierarchy.Load(d, hierarchy.DefaultConfig())
		case "none", "":
			return nil
		default:
			return fmt.Errorf("unknown workload %q", *workload)
		}
	}

	var d *db.Database
	var mgr *durable.Manager
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd: -fsync:", err)
			os.Exit(1)
		}
		segBytes, err := db.ParseByteSize(*walSegment)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd: -wal-segment:", err)
			os.Exit(1)
		}
		mgr, d, err = durable.Open(durable.Options{
			Dir:             *dataDir,
			Fsync:           policy,
			SegmentBytes:    segBytes,
			CheckpointEvery: *ckptEvery,
		}, bootstrap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd:", err)
			os.Exit(1)
		}
		st := mgr.Stats()
		fmt.Printf("recovered %s to lsn %d (checkpoint lsn %d, %d wal records replayed, torn tail dropped: %v)\n",
			*dataDir, st.RecoveredLSN, st.CheckpointLSN, st.Replayed, st.TornTail)
	} else {
		// One config object carries every engine knob: defaults, then
		// environment overrides (RESULTDB_*), then flags.
		cfg := db.DefaultConfig().FromEnv()
		if *cacheOn {
			budget, perr := db.ParseByteSize(*cacheBudget)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "resultdbd: -cache-budget:", perr)
				os.Exit(1)
			}
			cfg.CacheEnabled = true
			cfg.CacheBudget = budget
		}
		d = db.Open(cfg)
		if err := bootstrap(d); err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd:", err)
			os.Exit(1)
		}
	}
	if *cacheOn && !d.CacheEnabled() {
		// Durable path: the database came from recovery, not db.Open; apply
		// the cache flags directly.
		budget, perr := db.ParseByteSize(*cacheBudget)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "resultdbd: -cache-budget:", perr)
			os.Exit(1)
		}
		d.EnableCache(budget)
	}

	srv := wire.NewServer(d)
	srv.MaxConns = *maxConns
	srv.ReadTimeout = *readTimeout
	srv.WriteTimeout = *writeTimeout
	switch *wireVersion {
	case "v1":
		srv.MaxVersion = wire.FormatV1
	case "v2", "":
		srv.MaxVersion = wire.FormatV2
	default:
		fmt.Fprintf(os.Stderr, "resultdbd: -wire-version: unknown version %q (want v1 or v2)\n", *wireVersion)
		os.Exit(1)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resultdbd:", err)
		os.Exit(1)
	}
	fmt.Printf("resultdbd listening on %s (workload=%s cache=%v wire=%s)\n", bound, *workload, d.CacheEnabled(), *wireVersion)

	// SIGINT/SIGTERM trigger a graceful drain: the listener closes (new
	// dials are refused), idle connections are kicked, and in-flight
	// queries get -drain-timeout to finish their responses.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down (draining %d active connections, timeout %v)\n", srv.ActiveConns(), *drainTimeout)
	srv.Shutdown(*drainTimeout)
	if mgr != nil {
		// Checkpoint on drain so the next start replays an empty (or tiny)
		// WAL, then release the log cleanly.
		if err := mgr.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd: checkpoint on drain:", err)
		}
		if err := mgr.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "resultdbd: close:", err)
		}
		for _, line := range mgr.Stats().Trace().CompactLines() {
			fmt.Println(line)
		}
	}
	for _, line := range srv.Stats().Trace().CompactLines() {
		fmt.Println(line)
	}
}
