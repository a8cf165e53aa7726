#!/bin/sh
# verify.sh — repo verification gate.
#
# Stages, in order: gofmt; go vet (the module, then the frozen benchmark
# module against it); go build; the complete test suite (uncached);
# the host-independence stage (db, core and engine once more under GOMAXPROCS
# 1, 2 and 4 — EXPLAIN goldens and trace fingerprints must not depend on the
# host's core count); the race detector over the concurrency-sensitive
# packages; the MVCC concurrency gate (statistics extending with their version
# included); the grep lints (writer lock confined to db.go; no identifier of
# the deleted row-at-a-time path, of the deleted A/B knobs, of the deleted
# storage hash index or of the deleted second planner — its knobs, verdict
# cache, range pre-filter and histogram, or of the deleted DPsize join
# orderer — its knob, NDV key-set builds and ablation, or of the deleted
# negotiated wire protocol — its hello, buffered server path and version
# knobs, or of the reduction's deleted second walks — the pointer BFS, the
# early-stop countdown, the map-based estimator and its per-step column
# resolutions, or of the key-set count (KeySet.Len), or of the second
# acyclicity mechanism (implied-edge dropping and the unused query-level
# hypergraph API) and the second table registry (catalog.Catalog), or a write
# into a parsed statement (Select.Src), or of the deleted RESULTDB_*
# environment layer, or of the trace totals bumped beside the spans
# (Tracer.AddRows*, AddBytes) and the rows-only set's rowsKind, or of the
# second response path (the streamed execution's callbacks and the server's
# chunk pipeline); no
# engine.FromRows( outside tests; no environment read in non-test code under internal/ or
# cmd/ (hermetic configuration); no identifier of the deleted second relation image, no row slices in core or the colstore kernels, no
# tuple boxed or taken back between the engine's operators (FromRows(,
# .Rows() on a relation or view, []types.Row outside FromRows) and no src
# rows kept by a colstore frame; results leave the engine unboxed (no
# len(set.Rows) or range set.Rows in internal/wire or internal/db outside
# db/result.go, no read of a set's Rows field in internal/client or
# cmd/resultdb) and every result set has its view (no non-test Vec == nil or
# Vec != nil in internal/db or internal/wire); no map-of-slices bucket structure
# in colstore/engine/storage; row blocks filled by colstore.View.Rows only,
# one inflate (the v2 column decoder's one-pass decoder, compress/flate's
# reader in tests only), one deflate (the whole-buffer compressor, called
# once, by tryFlate; no compress/flate import outside tests), one statement
# parse in internal/db (the memo's), unsafe in no non-test file under
# internal/ or cmd/ but internal/wire/deflate.go (its two bounds-free loads,
# checked by checkptr in the race stage); internal/reference
# imported from tests only; one version
# identity — no generation counter, name counter or statistics cache outside
# internal/storage, no per-version clock (storage.Table.Version and its
# clock are gone: a version is its Mark), and internal/cache has only its *At
# surface; one base-table
# representation — no row-slice field and no frame build in internal/storage,
# nothing assigning or appending to a table's rows); then the
# differential gates under -race — cache
# (cold/warm, then a dangling append served by extending the entry or by
# invalidating it and a joining append recomputed, vs uncached oracle, a
# self-join appended on both sides of its edge included; on the socket,
# filling response == response from kept payloads == cache-off response ==
# in-process v2 encoding; the extension's fallbacks, a panicking computation
# releasing its single-flight key; the payload-memo guards; the statement
# memo's guards — no execution writing a memoised AST, no version carried, the
# bound kept, text variants sharing one cache entry; and
# BenchmarkServeCachedHit once as a smoke),
# execution (every answer — SPJ, subdatabase, and the sequential list of outer
# joins, computed select lists, GROUP BY/HAVING, ORDER BY/LIMIT — vs the naive
# reference as sorted sets, byte for byte across parallelism x cache x
# statistics (lazy/ANALYZEd) x transport (local/TCP, the socket payload equal
# to the in-process v2 encoding), reductions planned with statistics
# byte-identical to the heuristic plan's, the one containment model and the
# greedy join order's invariance, and the six-way rewrite oracle),
# wire v2 (socket payload == in-process v2 encoding, decoded vs v1, float and
# text blocks round-tripping bit for bit; boxed
# in-process and unboxed server results byte-identical, no row block boxed on
# the server path), chaos (fault-injected connections
# converge to the exact oracle or fail typed) and crash-recovery (kill at
# every WAL byte offset vs an uncrashed oracle); a short fuzzing pass over the
# byte-hostile surfaces (SQL text in, wire bytes in, deflate streams in
# against compress/flate, bodies and stream breaks deflated and inflated
# back by both decoders, fault plans in, WAL segments in, snapshots in,
# statistics extension splits); the codec benchmarks once each
# (BenchmarkInflate, BenchmarkDeflate, BenchmarkDecodeJOB at both scales),
# so one failing at run time fails here; the tracer overhead guard; and the ledger
# comparison of the two newest committed BENCH_<n>.json files (it reads them
# and runs no benchmark).
#
# The named gates (MVCC and the differential ones) select tests by -run
# pattern over several packages, and go test exits 0 when a pattern matches
# nothing; they run through gate(), which fails when any listed package
# reports "no tests to run" — a rename cannot silently empty a gate.
set -eu

cd "$(dirname "$0")"

# gate runs one named gate: go test with the given arguments, failing also
# when a listed package had no test matching the pattern.
gate() {
	if ! out=$(go test "$@" 2>&1); then
		echo "$out"
		exit 1
	fi
	echo "$out"
	if echo "$out" | grep -q 'no tests to run'; then
		echo "FAIL: a package of this gate matched no test (renamed or deleted?)"
		exit 1
	fi
}

echo "== gofmt -l"
unformatted=$(gofmt -l cmd examples internal benchmark ./*.go)
if [ -n "$unformatted" ]; then
	echo "FAIL: gofmt would change:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet benchmark/ (its own module; reads db.ResultSet.Rows, db.ExecutePostJoinPlan, wire.EncodeResult*/DecodeResult*)"
(cd benchmark && go vet ./...)

echo "== go build ./..."
go build ./...

echo "== go test -count=1 ./..."
go test -count=1 ./...

echo "== host independence (GOMAXPROCS=1,2,4: db, core, engine)"
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 ./internal/db ./internal/core ./internal/engine
done

echo "== go test -race (parallel, colstore, storage, engine, core, stats, trace, db, cache, wire, faultnet, client, wal, snapshot, durable)"
go test -race -timeout 300s ./internal/parallel ./internal/colstore ./internal/storage ./internal/engine \
	./internal/core ./internal/stats ./internal/trace ./internal/db \
	./internal/cache ./internal/wire ./internal/faultnet ./internal/client \
	./internal/wal ./internal/snapshot ./internal/durable

echo "== MVCC concurrency gate (N readers x M writers vs per-prefix wire-byte oracles, session contract, version retention under pins and across cache extensions, version chains sharing column prefixes under concurrent scans, marks identifying contents, failed inserts leaving no trace, commits costing their own rows, statistics extended per version equal to fresh builds, snapshot-keyed cache races, readers extending entries while a writer commits, checkpoints under load, under -race)"
gate -race -timeout 300s -count=1 \
	-run 'TestMVCC|TestSession|TestSnapshotSeesCommittedState|TestDoAt|TestCheckpointDuringWrites|TestVersionChain|TestMark|TestColumnsIsAFieldRead|TestStatsExtend' \
	./internal/db ./internal/cache ./internal/durable ./internal/storage ./internal/stats

echo "== lint: writer lock confined to internal/db/db.go"
# The MVCC invariant: readers are lock-free, and every d.mu acquisition lives
# in db.go where the writer protocol is defined. New direct references
# anywhere else are a design regression, not a style nit.
mu_refs=$(grep -rn 'd\.mu\.' --include='*.go' internal cmd | grep -v '^internal/db/db\.go:' || true)
if [ -n "$mu_refs" ]; then
	echo "FAIL: d.mu referenced outside internal/db/db.go (use withWriter or the snapshot API):"
	echo "$mu_refs"
	exit 1
fi

echo "== lint: one execution path, one planner, one connection protocol, no A/B knobs"
# The row-at-a-time operator family, the Vectorized switch and the bench-only
# toggles were deleted in PR 12, the second planner's knobs (CostBased,
# RESULTDB_STATS), its plan-verdict cache, the sideways range pre-filter and
# the histogram behind it in PR 25; any of these identifiers reappearing
# means a second path or a wrapper family is growing back. (CostBased is
# matched as a word: the planner's byte-identity test keeps its name.)
# benchmark/ is its own module with its own rules and is not scanned.
dead='Vectorized|RESULTDB_VECTORIZED|NoGroupCommit|HashJoinDegree|HashJoinSpan|HashJoinVecSpan|SemiJoinDegree|SemiJoinSpan|SemiJoinVec|DecomposePar|DecomposeTraced|DecomposeVecTraced|JoinAllDegree|JoinAllDPDegree|HashIndex'
dead="$dead"'|\bCostBased\b|RESULTDB_STATS|StatsEnvVar|planVerdict|planKey|PlanDiverged|RangeSkipped|joinAllStats|RangeSemiFilter|NumKeyRange|BuildHistogram|FracInRange'
# A table version is its Mark (lineage and length): the per-version clock,
# the accessor of the number it stamped and the vector built from those
# numbers are gone.
dead="$dead"'|lastVersion|func \(t \*Table\) Version\(|\.versions\('
# One cardinality model (stats.KeyNDV and its containment steps) and one
# join orderer (greedy JoinAll): the DPsize orderer, its execution-time NDV
# key-set builds, its private copies of the model, its knob and its ablation
# are gone.
dead="$dead"'|JoinAllDP|DPJoinOrder|dpJoinOrder|measureNDV|subsetNDV|ndvIdx|AblationJoinOrder|ablation-joinorder'
# One connection protocol: every connection streams v2 in CRC-checked frames.
# The hello, its flags and the client state it set, the buffered server
# path, the knobs that selected a payload version or form (client options,
# Server.MaxVersion, resultdbd -wire-version), the memo's per-version slots
# and the dead cache-budget copy in core.Options are gone. (Legacy is matched
# as a word: the snapshot package's versionLegacy stays.)
dead="$dead"'|frameHello|helloStreaming|helloIntegrity|finishHello|execBuffered|MaxVersion|NoIntegrity|PayloadSlots|ResultCacheBudget|wire-version|\bLegacy\b'
# One reduction schedule: the executor and the cost model walk the same
# ordinal steps (core's schedule). The pointer BFS, the second early-stop walk
# and its countdown, the map-based estimator with its per-step column
# resolutions and the separate root simulator are gone.
dead="$dead"'|bfsEdges|subtreesWithProjection|ndvsOf|remainingProjected|edgeColsFor|newEstimator|newRootSim|selCols|liveSel'
# One layout per v2 column kind: floats ship as byte planes and text as its
# lengths, then its bytes. The interleaved float writer is gone.
dead="$dead"'|\bbinary64\b'
# A key set is its members: KeySet.Len counted what only tests read, and the
# dense form keeps no count at all.
dead="$dead"'|func \(s \*KeySet\) Len'
# One acyclicity mechanism: hypergraph.GYO over attribute classes builds the
# join tree of an α-acyclic query, so implied-edge dropping and the
# query-level hypergraph API nothing imported (Build, Classify, JoinTreeEdge,
# AlphaAcyclic) are gone. One table registry: the published table map, so
# the lockstep catalog.Catalog is gone. (DropImpliedEdges and AlphaAcyclic are
# matched as words: test names may still say what they check.)
dead="$dead"'|\bDropImpliedEdges\b|edgeImplied|attrEqualityGraph|attrConnected|hypergraph\.(Build|Classify)\b|JoinTreeEdge|\bAlphaAcyclic\b|catalog\.New\(|\.Catalog\(\)'
# A parsed statement is never written after its parse: the database shares
# one parsed SELECT among every execution of its text, so the raw-text field
# the entry points used to stamp into it (sqlparse.Select.Src) stays unset.
dead="$dead"'|\.Src = '
# JoinAll stays positional across its greedy sequence: the step that joined
# into a gathered intermediate relation is gone.
dead="$dead"'|\bjoinStep\b'
# No ambient configuration: a database, server and client run exactly as
# their constructors and flags set them. The RESULTDB_* environment layer
# (Config.FromEnv and its variables, parallel.EnvDegree, the wire client's
# environment retry policy) is gone, and so are the exported helpers only
# their own tests called (parallel.ForChunks, Tracer.SetQuery).
dead="$dead"'|FromEnv|EnvDegree|RetryFromEnv|isZeroRetry|CacheEnvVar|ParallelismEnvVar|RetriesEnvVar|RetryBackoffEnvVar|RESULTDB_CACHE|RESULTDB_PARALLELISM|RESULTDB_RETRIES|RESULTDB_RETRY_BACKOFF|ForChunks|SetQuery'
# One value per statement: db's execCtx carries the tracer and builds the
# statement's engine executor, and core's reduction, folds and Decompose and
# engine's JoinAll take that executor. core.Options is the paper's plan
# choices alone: its degree, tracer, statistics and cache fields are gone, and
# so are Stats.Parallelism, the tracer parameters of db's query path, db's
# executor builders and its copy of the alias statistics, the separate
# degree/tracer/statistics arguments of core and JoinAll, and wire's encode
# spans.
dead="$dead"'|opts\.(Tracer|TableStats)|\bOptions\{[^}]*\b(Parallelism|Tracer|TableStats|ResultCache):|st\.Parallelism|Stats\.Parallelism|core\.Options\.|CoreOptions\.(Root|Fold|EarlyStop|AlphaReduce|Tracer|TableStats)\b'
dead="$dead"'|func \(d \*Database\) [a-zA-Z]+\([^)]*trace\.Tracer|\baliasStats\b|\bexecutorWith\b|d\.executor\(|func JoinAll\(|JoinAll\(preds|SemiJoinReduce\(spec|Decompose\(joined|FoldJoinGraph\(g\b|case "encode"'
# One record per fact: a trace's whole-query totals are summed from its spans
# when the tracer finishes, so the hand-bumped counters and their methods are
# gone; a result set is its view, so the kind sniffed from a set's rows is
# gone with the rows-only form.
dead="$dead"'|AddRowsScanned|AddRowsJoined|AddRowsDropped|AddRowsOut|AddBytes\(|rowsKind'
# One response path: the server executes a statement (Session.ExecUnboxed)
# and then writes its chunks on the connection's goroutine, in one flush. The
# streamed execution — its begin/emit callbacks, header type and replay — and
# the server's chunk pipeline are gone. (ExecStream and Materialised are
# matched as words: the tests of the unboxed entry point keep their names.)
dead="$dead"'|StreamMeta|streamSink|replayStream|execStreamAt|chunkPipeline|startPipeline|\bMaterialised\b|\bExecStream\b'
# One selection writer: a scan's kernels mark survivors in bit masks and
# parallel.Positions writes the selection, as it does a semi-join's. The
# kernels' append pair and the window-filling primitive are gone.
dead="$dead"'|FilterDense|FilterSel|parallel\.Filter\b|func Filter\['
# One write per response: a response's frames are appended to one buffer and
# written whole, and the client reads them into one buffer it keeps. The
# frame-at-a-time writer and the buffered writer on a connection are gone.
dead="$dead"'|\bwriteFrame\b|bufio\.NewWriter\(conn\)'
# One run per statement: db's execCtx builds one parallel.Run, which carries
# the statement's degree to every primitive and to the encode of its result,
# and a trace records the degree once, in its header. A span's copy of the
# degree, the executor's and the encode options' degree fields, and the
# primitives' degree-taking function forms are gone.
dead="$dead"'|sp\.Par\b|Span\.Par\b|Executor\{[^}]*Parallelism:|EncodeOptions\{[^}]*Parallelism:|parallel\.(Degree|Chunks|For|Each|Positions)\(|func (Map|MapErr)\[T any\]\(n, degree'
dead_refs=$(grep -rnE "$dead" --include='*.go' --exclude-dir=.bench_build . | grep -v '^\./benchmark/' || true)
if [ -n "$dead_refs" ]; then
	echo "FAIL: identifiers of the deleted row path / second planner / A-B knobs / negotiated protocol / second reduction walk / interleaved float layout / key-set count / second acyclicity mechanism / second table registry / post-parse AST write / step-by-step join gather / environment configuration layer / per-statement state copies / hand-bumped trace totals / rows-only result sets / streamed execution and chunk pipeline / second selection writer / frame-at-a-time writer / per-call degrees are back:"
	echo "$dead_refs"
	exit 1
fi

echo "== lint: one run per statement (no degree parameter in non-test code)"
# A function that runs parallel work takes the statement's parallel.Run; a
# bare degree parameter would resolve, or pass on, a second degree.
degree_params=$(grep -rnE '^func .*\b(par|degree),? int\b' --include='*.go' internal cmd | grep -v '_test\.go:' || true)
if [ -n "$degree_params" ]; then
	echo "FAIL: non-test functions take a degree instead of the statement's run:"
	echo "$degree_params"
	exit 1
fi

echo "== lint: hermetic configuration (no environment reads in internal/ or cmd/)"
# Configuration arrives through constructors, Config values and flags only;
# an environment read would let the host silently rewrite what a test or a
# measurement states it runs with.
env_reads=$(grep -rnE 'os\.(Getenv|LookupEnv|Environ)\b' --include='*.go' internal cmd | grep -v '_test\.go:' || true)
if [ -n "$env_reads" ]; then
	echo "FAIL: non-test code reads the process environment:"
	echo "$env_reads"
	exit 1
fi

echo "== lint: one relation representation (frame + selection)"
# engine.Relation is a colstore view and nothing else; no engine code boxes
# it (the db package boxes results for in-process callers), and a result set
# enters a post-join through its own view: a set that starts from rows
# (EXPLAIN's, v1-decoded, hand-built) gets one from db.NewResultSet, so
# engine.FromRows( has no non-test caller. The helpers of the deleted row
# image reappearing, a row slice in the reduction code or the hash/filter
# kernels, an engine operator boxing its input or handing rows back, a
# non-test FromRows( call, or a frame keeping the rows it was built from,
# means the second representation is growing back.
row_image=$(grep -rnwE 'RowsKey|Columnarize|gatherRows|KeyFor|concatRows' --include='*.go' --exclude-dir=.bench_build . | grep -v '^\./benchmark/' || true)
if [ -n "$row_image" ]; then
	echo "FAIL: identifiers of the deleted Rows/Vec double image are back:"
	echo "$row_image"
	exit 1
fi
row_slices=$(grep -n '\[\]types\.Row' internal/core/*.go internal/colstore/hash.go internal/colstore/filter.go | grep -v '_test\.go:' || true)
if [ -n "$row_slices" ]; then
	echo "FAIL: []types.Row in internal/core or the colstore kernels (operators pass positions):"
	echo "$row_slices"
	exit 1
fi
# (f.Rows() / frame.Rows() is a frame's row count, not a boxing call.)
engine_rows=$(grep -nE 'FromRows\(|\.Rows\(\)|\[\]types\.Row' internal/engine/*.go | grep -v '_test\.go:' |
	grep -vE '^internal/engine/relation\.go:[0-9]+:func FromRows\(' |
	grep -vE '\b(f|frame)\.Rows\(\)' || true)
if [ -n "$engine_rows" ]; then
	echo "FAIL: an engine operator boxes a relation, takes rows back, or passes []types.Row (every operator passes positions):"
	echo "$engine_rows"
	exit 1
fi
from_rows=$(grep -rn 'FromRows(' --include='*.go' internal cmd examples ./*.go | grep -v '_test\.go:' |
	grep -vE '^internal/engine/relation\.go:' || true)
if [ -n "$from_rows" ]; then
	echo "FAIL: engine.FromRows( has a non-test caller (a result set enters a post-join through its view):"
	echo "$from_rows"
	exit 1
fi
if awk '/^type Frame struct/,/^}/' internal/colstore/colstore.go | grep -qw 'src'; then
	echo "FAIL: colstore.Frame keeps the rows it was built from (src) again"
	exit 1
fi

echo "== lint: results leave the engine unboxed"
# A result set is its view; Rows is its boxed mirror, filled for in-process
# callers by the helpers in internal/db/result.go (which also hold NumRows,
# WireSize and the cell reader the encoders use). Counting or walking
# set.Rows anywhere else on the server path reads a field the wire server's
# sets do not have.
row_reads=$(grep -nE 'len\((set|rs)\.Rows\)|range (set|rs)\.Rows\b' internal/wire/*.go internal/db/*.go | grep -v '_test\.go:' |
	grep -v '^internal/db/result\.go:' || true)
if [ -n "$row_reads" ]; then
	echo "FAIL: a result set's Rows counted or walked outside the boxing helpers (use NumRows, WireSize, Column):"
	echo "$row_reads"
	exit 1
fi
# The client package and the shell read sets through the view as well
# (NumRows, Column, Row): the wire decoders box only a one-set result, so a
# decoded subdatabase's sets have no Rows, and reading the field there reads
# nothing.
client_rows=$(grep -nE '\.Rows\b([^(]|$)' internal/client/*.go cmd/resultdb/*.go | grep -v '_test\.go:' || true)
if [ -n "$client_rows" ]; then
	echo "FAIL: a result set's Rows read in internal/client or cmd/resultdb (use NumRows, Column, Row):"
	echo "$client_rows"
	exit 1
fi
# Every set has a view: the engine's and the decoders' are built from
# columns, and a set that starts from rows (EXPLAIN's, a hand-built one) gets
# one from db.NewResultSet. A test of Vec against nil in db or wire code is a
# reader of the rows-only form, which no longer exists.
vec_nil=$(grep -rnE 'Vec (==|!=) nil' --include='*.go' internal/db internal/wire | grep -v '_test\.go:' || true)
if [ -n "$vec_nil" ]; then
	echo "FAIL: db or wire code branches on whether a result set has a view (every set has one; build sets from rows with db.NewResultSet):"
	echo "$vec_nil"
	exit 1
fi

echo "== lint: one boxing loop, one inflate, one deflate, unsafe in deflate.go's loads alone"
# Typed columns are boxed into a row block by colstore.View.Rows and nowhere
# else: the wire decoder builds column vectors and calls it, so a MakeRows in
# internal/wire or internal/db is the hand-rolled copy growing back. The v2
# column decoder inflates a compressed block in one pass over the whole
# buffer (internal/wire/inflate.go) and is the one caller of that decoder;
# compress/flate's streaming reader stays in the tests as its oracle, so a
# flate.NewReader( in non-test code is the second, slower inflate growing
# back. Symmetrically, a column block's body deflates in one pass
# (internal/wire/deflate.go), called once, by tryFlate: compress/flate stays
# in the tests as the level-9 baseline and the reader oracle, so importing it
# in non-test code is the second, slower compressor growing back. The
# compressor's load32 and load64 are the only unsafe code: each states why
# its reads stay inside the body, and the race stage runs the deflate tests
# with checkptr, which checks every such read. Any other non-test import of
# unsafe under internal/ or cmd/ fails here; types.Value, for one, is 32
# bytes by field layout (TestValueSize), not by pointer tricks.
box_loops=$(grep -rn 'MakeRows(' --include='*.go' internal/wire internal/db | grep -v '_test\.go:' || true)
if [ -n "$box_loops" ]; then
	echo "FAIL: a row block is filled outside colstore.View.Rows:"
	echo "$box_loops"
	exit 1
fi
flate_readers=$(grep -rn 'flate\.NewReader(' --include='*.go' --exclude-dir=.bench_build cmd examples internal ./*.go | grep -v '_test\.go:' || true)
if [ -n "$flate_readers" ]; then
	echo "FAIL: compress/flate's reader in non-test code (inflate through internal/wire/inflate.go):"
	echo "$flate_readers"
	exit 1
fi
inflate_calls=$(grep -rnE '(^|[^A-Za-z0-9_.])inflate\(' --include='*.go' --exclude-dir=.bench_build cmd examples internal ./*.go | grep -v '_test\.go:' | grep -v 'func inflate(' || true)
if [ "$(echo "$inflate_calls" | grep -c .)" -ne 1 ] || ! echo "$inflate_calls" | grep -q '^internal/wire/encodev2\.go:'; then
	echo "FAIL: inflate( must be called exactly once in non-test code, by the v2 column decoder in internal/wire/encodev2.go; found:"
	echo "$inflate_calls"
	exit 1
fi
flate_imports=$(grep -rn '"compress/flate"' --include='*.go' --exclude-dir=.bench_build cmd examples internal ./*.go | grep -v '_test\.go:' || true)
if [ -n "$flate_imports" ]; then
	echo "FAIL: compress/flate imported in non-test code (deflate through internal/wire/deflate.go):"
	echo "$flate_imports"
	exit 1
fi
deflate_calls=$(grep -rnE '(^|[^A-Za-z0-9_.])deflate\(' --include='*.go' --exclude-dir=.bench_build cmd examples internal ./*.go | grep -v '_test\.go:' | grep -v 'func deflate(' || true)
deflate_caller=$(awk '/^func /{fn=$0} /(^|[^A-Za-z0-9_.])deflate\(/ && !/^func deflate\(/{print fn}' internal/wire/encodev2.go)
if [ "$(echo "$deflate_calls" | grep -c .)" -ne 1 ] || ! echo "$deflate_calls" | grep -q '^internal/wire/encodev2\.go:' ||
	! echo "$deflate_caller" | grep -q '^func tryFlate('; then
	echo "FAIL: deflate( must be called exactly once in non-test code, by tryFlate in internal/wire/encodev2.go; found:"
	echo "$deflate_calls"
	exit 1
fi
unsafe_imports=$(grep -rln '"unsafe"' --include='*.go' internal cmd | grep -v '_test\.go$' | grep -vx 'internal/wire/deflate\.go' || true)
if [ -n "$unsafe_imports" ]; then
	echo "FAIL: unsafe imported in non-test code other than internal/wire/deflate.go:"
	echo "$unsafe_imports"
	exit 1
fi

echo "== lint: one statement parse in internal/db (the memo's)"
# Database.Exec, Session.ExecUnboxed (and Session.Exec through it) and
# QuerySQL parse through Database.parse, which memoises SELECTs by raw text;
# a second single-statement parse call in the package is a path that
# re-parses every execution.
parses=$(grep -n 'sqlparse\.Parse\(Select\)\?(' internal/db/*.go | grep -v '_test\.go:' | wc -l)
if [ "$parses" -ne 1 ]; then
	echo "FAIL: sqlparse.Parse(/ParseSelect( occurs $parses times in internal/db non-test code, want 1 (Database.parse in internal/db/memo.go)"
	exit 1
fi

echo "== lint: one hash structure (colstore's position table), no bucket maps"
# Key sets, join hash tables, dedup and grouping all probe the open-addressing
# table in internal/colstore/hash.go; a map from key hash to a slice of
# anything (positions, rows, groups) in the execution packages is a second
# hash structure growing back.
bucket_maps=$(grep -rnE 'map\[uint64\]\[\]' --include='*.go' internal/colstore internal/engine internal/storage | grep -v '_test\.go:' || true)
if [ -n "$bucket_maps" ]; then
	echo "FAIL: map[uint64][]... bucket structure in the execution path:"
	echo "$bucket_maps"
	exit 1
fi

echo "== lint: internal/reference is imported from tests only"
ref_imports=$(grep -rn '"resultdb/internal/reference"' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go:' || true)
if [ -n "$ref_imports" ]; then
	echo "FAIL: the reference implementation must not be linked into production code:"
	echo "$ref_imports"
	exit 1
fi

echo "== lint: one version identity (storage.Table.Mark)"
# A snapshot is the vector of its tables' marks. The generation counters,
# the per-name counters in db and in the cache, and the statistics cache were
# deleted in PR 18; any of them reappearing outside internal/storage, or the
# cache growing back a surface that takes no version vector, is a second
# identity.
version_ids=$(grep -rnE 'Generation\(|colsGen|versionOf|statsCache|stats\.NewCache' --include='*.go' cmd examples internal ./*.go | grep -v '_test\.go:' | grep -v '^internal/storage/' || true)
if [ -n "$version_ids" ]; then
	echo "FAIL: a version counter or statistics cache outside internal/storage:"
	echo "$version_ids"
	exit 1
fi
cache_surface=$(grep -nE '\.Bump\(|func \(c \*Cache\[V\]\) (Do|Put|Get|Peek)\(' internal/cache/*.go | grep -v '_test\.go:' || true)
if [ -n "$cache_surface" ]; then
	echo "FAIL: internal/cache has a name counter or a lookup that takes no version vector:"
	echo "$cache_surface"
	exit 1
fi

echo "== lint: one base-table representation (a table is a frame)"
# storage.Table holds typed vectors and nothing else: inserts append to them,
# versions share their prefixes, and rows are boxed on demand by Table.Rows().
# A row-slice field or a colstore.NewFrame( in internal/storage is the second
# copy of every table (and the rebuild behind every commit) growing back; so
# is anything that assigns or appends to a table's rows instead of inserting.
row_store=$(grep -nE '^[[:space:]]+[A-Za-z_]+[[:space:]]+\[\]types\.Row([[:space:]]|$)|colstore\.NewFrame\(' internal/storage/*.go | grep -v '_test\.go:' || true)
if [ -n "$row_store" ]; then
	echo "FAIL: a row-slice field or a frame build in internal/storage:"
	echo "$row_store"
	exit 1
fi
row_writes=$(grep -rnE '\b(t|tab|tbl|table|view)\.Rows = |append\((t|tab|tbl|table|view)\.Rows' --include='*.go' cmd examples internal ./*.go | grep -v '_test\.go:' || true)
if [ -n "$row_writes" ]; then
	echo "FAIL: a table's rows are written directly (use Insert/InsertAll):"
	echo "$row_writes"
	exit 1
fi

echo "== cache differential + stress gate (cold/warm, dangling and joining appends extended or recomputed vs uncached oracle; hit bytes == miss bytes == cache-off bytes == in-process v2 bytes on the socket; extension fallbacks; single-flight released by a panic; payload-memo guards; the statement memo — no execution writing a memoised AST, sessions pinned across a commit getting their own bytes from one AST, the memo within its bound, text variants one cache entry; warm-hit benchmark smoke, under -race)"
gate -race -run 'TestCacheDifferential|TestServerCacheStress|TestPayloadMemo|TestServeCachedHit|TestCacheExtend|TestDoAt|TestMemo' \
	-bench BenchmarkServeCachedHit -benchtime 1x -count=1 ./internal/wire ./internal/db ./internal/cache

echo "== execution differential gate (SPJ, subdatabases and the sequential list — outer joins, computed select lists, GROUP BY/HAVING, ORDER BY/LIMIT — vs naive reference as sorted sets; par x cache x lazy/ANALYZEd statistics x local/TCP byte-identical, socket payload == in-process v2 encoding; the server's unboxed result encoding like the boxed one, sizes from columns equal sizes from rows; the server path boxing no row block; reductions planned with statistics vs the heuristic plan, JOB/star/hierarchy/fact-mid-dim x RDB/RDBRP x par, before and after an INSERT batch; every plan decision and estimate of those statements against testdata/plans.golden; the one containment model's edge cases, the reduction schedule allocating nothing per candidate root or bottom-up order, greedy join orders with and without statistics joining the same rows; dense integer key sets matching exactly what the hashed form of the same key matches, the branch-free bitmap probe included; dense join hash tables yielding the hashed form's pairs in its order; GROUP BY and DISTINCT over a unique dense integer column numbering every row as the hashing path does; a cold JOB statement executed and v2-encoded within its byte budget, a scan keeping few of many rows allocating for its survivors and not its candidates, Run.Positions' exact vector holding what a serial filter keeps; Theorem 4.4 over random cyclic and α-acyclic queries, GYO join trees spanning every JG-acyclic query and enforcing two attributes of one class; under -race)"
gate -race -timeout 600s -run 'TestExecutionDifferential|TestCostBased|TestPlanGolden|TestServerPathBoxesNoRows|TestRootSim|TestContainmentModel|TestGreedyJoinOrder|TestKeySetDenseMatchesHash|TestHashTableDenseMatchesHash|TestGroupPositionsDenseUniqueMatchesHash|TestTheorem44|TestJoinTree|TestJGAcyclic|TestGYOJoinTree|TestColdJOBAllocatesForItsResult|TestScanAllocatesForItsSurvivors|TestPositionsMatchesSerialMarks' -count=1 \
	./internal/wire ./internal/core ./internal/stats ./internal/engine ./internal/colstore ./internal/parallel
gate -race -run 'TestDifferentialOracle' -count=1 ./internal/rewrite

echo "== wire v2 differential gate (socket payload == in-process v2 encoding x par, decoded vs v1 oracle, v2 <= v1 bytes, decoded results frame-backed and re-encoding to the same bytes, float byte planes and split text blocks round-tripping bit for bit around the planes' edges, streamed == buffered in-process encode, post-join equal on every result form; boxed in-process and unboxed server results x v1/v2 byte-identical, v2 chunk by chunk too, sizes from columns equal sizes from rows, in-process calls boxing into copies of cached sets the server reads unboxed, the server path boxing no row block; a text column's gather allocating for its rows, not its scan dictionary, with the cell-by-cell gather's bytes; a warmed free list of compression states making none for two concurrent degree-2 encodes; a v1 decode holding each value once; under -race)"
gate -race -run 'TestWireV2Differential|TestV2RoundTripProperty|TestStreamedMatchesBuffered|TestExecStream|TestResultSetsCarryViews|TestPostJoinSameOnEveryResultForm|TestServerPathBoxesNoRows|TestWireSizeFromColumns|TestInProcessCallsBox|TestCacheHitBoxesIntoACopy|TestTextGatherAllocatesForItsRows|TestWarmedDeflaterListMakesNoState|TestV1DecodeHoldsEachValueOnce' -count=1 \
	./internal/wire ./internal/db

echo "== chaos differential gate (fault plans x par; a CRC trailer on every frame, flipped query and response bytes caught; under -race)"
gate -race -timeout 300s -count=1 \
	-run 'TestChaos|TestIntegrityOnEveryFrame|TestShutdown|TestServerStats' \
	./internal/wire

echo "== crash-recovery differential gate (kill at every WAL byte offset vs uncrashed oracle, under -race)"
gate -race -timeout 300s -count=1 \
	-run 'TestCrashRecoveryDifferential|TestCrashDuringCheckpoint|TestRecoveryLiveness|TestRecoveryColdCache|TestRecoveryRebuildsColumnarFrames' \
	./internal/durable

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/sqlparse
go test -run '^$' -fuzz FuzzEncodeDecode -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz FuzzInflate -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz FuzzDeflate -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz FuzzFaultPlan -fuzztime 10s ./internal/wire
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz FuzzSnapshotLoad -fuzztime 10s ./internal/snapshot
go test -run '^$' -fuzz FuzzStatsExtend -fuzztime 10s ./internal/stats

echo "== codec benchmarks, once each (a benchmark failing at run time fails here)"
if ! bench_smoke=$(go test -run '^$' -bench 'BenchmarkInflate$|BenchmarkDeflate$' -benchtime 1x ./internal/wire 2>&1 &&
	go test -run '^$' -bench 'BenchmarkDecodeJOB$' -benchtime 1x . 2>&1); then
	echo "$bench_smoke"
	exit 1
fi
echo "$bench_smoke"
for b in BenchmarkInflate/compress-flate BenchmarkInflate/inflate \
	BenchmarkDeflate/job/compress-flate BenchmarkDeflate/job/deflate BenchmarkDeflate/star/compress-flate BenchmarkDeflate/star/deflate \
	BenchmarkDeflate/job/16b-n.name \
	'BenchmarkDecodeJOB/scale=0.1' 'BenchmarkDecodeJOB/scale=0.5'; do
	if ! echo "$bench_smoke" | grep -q "^$b"; then
		echo "FAIL: $b did not run (renamed or deleted?)"
		exit 1
	fi
done

echo "== tracer overhead guard"
# The disabled (nil) tracer path is guarded structurally — it must not
# allocate at all (TestNilTracerCostsNothing, run by the suite above, its
# nominal cost is a nil check, well under 2% of BenchmarkParallelJoin16b).
# Here we additionally bound the cost of *enabled* tracing on the heaviest
# acyclic query's plan; the 1.20 gate is deliberately looser than the
# nominal <2% so scheduler noise on shared CI boxes cannot flake the build.
# The benchmark runs as interleaved rounds — each a fresh process timing
# "off" and then "on", 25 iterations apiece — and the gate is the ratio of the
# two medians. A single round's halves run seconds apart, so one GC cycle or a
# neighbour's burst landing on one side decided the verdict (on a 2-vCPU
# host, single rounds of one unchanged tree read from 0.81 to 1.45); the
# rounds spread such a burst over both sides, and the medians drop the round
# it hits.
rounds=5
bench_out=
for round in $(seq "$rounds"); do
	bench_out="$bench_out
$(go test -run '^$' -bench BenchmarkTracerOverhead16b -benchtime 25x .)"
done
echo "$bench_out" | grep '^BenchmarkTracerOverhead16b'
echo "$bench_out" | awk -v rounds="$rounds" '
	function median(a, n,   i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
	}
	$1 ~ /\/off/ { off[++noff] = $3 + 0 }
	$1 ~ /\/on/  { on[++non] = $3 + 0 }
	END {
		if (noff != rounds || non != rounds) { printf "FAIL: benchmark output missing (%d off, %d on of %d rounds)\n", noff, non, rounds; exit 1 }
		ratio = median(on, non) / median(off, noff)
		printf "tracer on/off time ratio of the medians over %d rounds: %.3f\n", rounds, ratio
		if (ratio > 1.20) { print "FAIL: tracing overhead exceeds budget"; exit 1 }
	}'

echo "== ledger: the two newest committed BENCH_<n>.json files"
# Reads two committed benchmark documents and runs no benchmark. Single runs
# leave every end-to-end metric "unresolved" (no spread to judge by); the step
# fails when a verdict is "regressed", and failed operations or lost writes
# may never rise.
ledger=$(ls BENCH_[0-9]*.json 2>/dev/null | sed 's/^BENCH_\([0-9]*\)\.json$/\1/' | sort -n | tail -2)
if [ "$(echo "$ledger" | grep -c .)" -eq 2 ]; then
	bash benchmark/run.sh -compare "BENCH_$(echo "$ledger" | head -1).json" "BENCH_$(echo "$ledger" | tail -1).json"
else
	echo "fewer than two BENCH_<n>.json files: nothing to compare"
fi

echo "verify.sh: all checks passed"
