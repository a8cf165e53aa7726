// stats.go exposes the log's counters through the repo's one observability
// surface: a trace of "counter" spans, same as wire.ServerStats.
package wal

import "resultdb/internal/trace"

// Stats is a snapshot of a Log's counters.
type Stats struct {
	// Records is the number of records appended this process.
	Records int64 `json:"records"`
	// Bytes is the framed bytes appended this process.
	Bytes int64 `json:"bytes"`
	// Fsyncs counts fsync calls on segment files.
	Fsyncs int64 `json:"fsyncs"`
	// SyncRequests counts Sync calls under SyncAlways — one per
	// acknowledged commit.
	SyncRequests int64 `json:"sync_requests"`
	// GroupShared counts Sync calls satisfied by another committer's fsync;
	// SyncRequests/(SyncRequests-GroupShared) is the mean group-commit
	// batch size.
	GroupShared int64 `json:"group_shared"`
	// Rotations counts segment rollovers.
	Rotations int64 `json:"rotations"`
	// Pruned counts segments removed by checkpoints.
	Pruned int64 `json:"pruned"`
	// Segments is the number of live segment files.
	Segments int64 `json:"segments"`
}

// Trace renders the counters as "counter" spans under Mode "wal-stats" so
// durability state reuses the EXPLAIN ANALYZE rendering path.
func (s Stats) Trace() *trace.Trace {
	return (&trace.Trace{Mode: "wal-stats"}).AddCounts("wal",
		trace.Count{Name: "wal_records", Value: s.Records},
		trace.Count{Name: "wal_bytes", Value: s.Bytes},
		trace.Count{Name: "wal_fsyncs", Value: s.Fsyncs},
		trace.Count{Name: "wal_sync_requests", Value: s.SyncRequests},
		trace.Count{Name: "wal_group_shared", Value: s.GroupShared},
		trace.Count{Name: "wal_rotations", Value: s.Rotations},
		trace.Count{Name: "wal_pruned_segments", Value: s.Pruned},
		trace.Count{Name: "wal_segments", Value: s.Segments},
	)
}
