// Command resultdbd serves a database over TCP using the repository's wire
// protocol, for the distributed-database use case (Section 1.2, use case 3):
// a client can run SELECT RESULTDB remotely and receive the subdatabase
// instead of a denormalized single-table result, cutting transfer size.
// Every response ships as a v2 chunk stream in CRC-checked frames.
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

// options is resultdbd's command line.
type options struct {
	addr         string
	workload     string
	scale        float64
	cacheOn      bool
	cacheBudget  string
	maxConns     int
	readTimeout  time.Duration
	writeTimeout time.Duration
	drainTimeout time.Duration
	dataDir      string
	fsync        string
	walSegment   string
	ckptEvery    int64
}

// parseFlags parses args (the command line without the program name),
// exiting on a malformed flag.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("resultdbd", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":7483", "listen address")
	fs.StringVar(&o.workload, "workload", "job", "preload a workload: job | star | hierarchy | none")
	fs.Float64Var(&o.scale, "scale", 0.25, "JOB workload scale factor")
	fs.BoolVar(&o.cacheOn, "cache", false, "enable the semantic result cache (hits are served from the encoded payloads each entry keeps)")
	fs.StringVar(&o.cacheBudget, "cache-budget", "64MiB", "result cache byte budget, covering rows and kept wire payloads (e.g. 256MB, 1GiB)")
	fs.IntVar(&o.maxConns, "max-conns", 0, "max concurrently served connections (0 = unlimited)")
	fs.DurationVar(&o.readTimeout, "read-timeout", 0, "idle-connection read deadline (0 = none)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 0, "per-response write deadline (0 = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown bound: in-flight queries get this long to finish before their connections are force-closed (0 = wait indefinitely)")
	fs.StringVar(&o.dataDir, "data-dir", "", "durable data directory: WAL + checkpoints (empty = in-memory only)")
	fs.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy: always | interval | off")
	fs.StringVar(&o.walSegment, "wal-segment", "4MiB", "WAL segment rotation budget (e.g. 1MB, 16MiB)")
	fs.Int64Var(&o.ckptEvery, "checkpoint-every", 1024, "checkpoint after this many committed batches (0 = only on drain)")
	fs.Parse(args)
	return o
}

// openDatabase builds the database o describes: recovered from (or seeded
// into) -data-dir when one is given, loaded in memory otherwise. Either way
// the database starts from the RESULTDB_* environment, and -cache and
// -cache-budget then apply on top of it. mgr is nil in memory.
func openDatabase(o options) (d *db.Database, mgr *durable.Manager, err error) {
	var budget int64
	if o.cacheOn {
		if budget, err = db.ParseByteSize(o.cacheBudget); err != nil {
			return nil, nil, fmt.Errorf("-cache-budget: %w", err)
		}
	}
	bootstrap := func(d *db.Database) error {
		switch o.workload {
		case "job":
			return job.Load(d, job.Config{Scale: o.scale, Seed: 42})
		case "star":
			return star.Load(d, star.DefaultConfig())
		case "hierarchy":
			return hierarchy.Load(d, hierarchy.DefaultConfig())
		case "none", "":
			return nil
		default:
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if o.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(o.fsync)
		if err != nil {
			return nil, nil, fmt.Errorf("-fsync: %w", err)
		}
		segBytes, err := db.ParseByteSize(o.walSegment)
		if err != nil {
			return nil, nil, fmt.Errorf("-wal-segment: %w", err)
		}
		mgr, d, err = durable.Open(durable.Options{
			Dir:             o.dataDir,
			Fsync:           policy,
			SegmentBytes:    segBytes,
			CheckpointEvery: o.ckptEvery,
		}, bootstrap)
		if err != nil {
			return nil, nil, err
		}
	} else {
		d = db.New()
		if err := bootstrap(d); err != nil {
			return nil, nil, err
		}
	}
	if o.cacheOn {
		d.EnableCache(budget)
	}
	return d, mgr, nil
}

func main() {
	o := parseFlags(os.Args[1:])
	d, mgr, err := openDatabase(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resultdbd:", err)
		os.Exit(1)
	}
	if mgr != nil {
		st := mgr.Stats()
		fmt.Printf("recovered %s to lsn %d (checkpoint lsn %d, %d wal records replayed, torn tail dropped: %v)\n",
			o.dataDir, st.RecoveredLSN, st.CheckpointLSN, st.Replayed, st.TornTail)
	}

	srv := wire.NewServer(d)
	srv.MaxConns = o.maxConns
	srv.ReadTimeout = o.readTimeout
	srv.WriteTimeout = o.writeTimeout
	bound, err := srv.Listen(o.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resultdbd:", err)
		os.Exit(1)
	}
	fmt.Printf("resultdbd listening on %s (workload=%s cache=%v)\n", bound, o.workload, d.CacheEnabled())

	// SIGINT/SIGTERM trigger a graceful drain: the listener closes (new
	// dials are refused), idle connections are kicked, and in-flight
	// queries get -drain-timeout to finish their responses.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("shutting down (draining %d active connections, timeout %v)\n", srv.ActiveConns(), o.drainTimeout)
	srv.Shutdown(o.drainTimeout)
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
