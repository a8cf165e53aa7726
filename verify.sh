#!/bin/sh
# verify.sh — repo verification gate.
#
# Stages, in order: gofmt; go vet (the module, then the frozen benchmark
# module against it); go build; the complete test suite (uncached);
# the host-independence stage (db, core and engine once more under GOMAXPROCS
# 1, 2 and 4 — EXPLAIN goldens and trace fingerprints must not depend on the
# host's core count); the race detector over the concurrency-sensitive
# packages; the MVCC concurrency gate (statistics extending with their version
# included); the design invariants (TestDesignInvariants in design_test.go,
# one syntax-tree rule per invariant, each proving on a violating sample that
# it can fire); then the
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

echo "== design invariants (one syntax-tree rule each: deleted paths stay deleted, one of each mechanism)"
gate -run '^TestDesignInvariants$' -count=1 .

echo "== cache differential + stress gate (cold/warm, dangling and joining appends extended or recomputed vs uncached oracle; hit bytes == miss bytes == cache-off bytes == in-process v2 bytes on the socket; extension fallbacks; single-flight released by a panic; payload-memo guards; the statement memo — no execution writing a memoised AST, sessions pinned across a commit getting their own bytes from one AST, the memo within its bound, text variants one cache entry; warm-hit benchmark smoke, under -race)"
gate -race -run 'TestCacheDifferential|TestServerCacheStress|TestPayloadMemo|TestServeCachedHit|TestCacheExtend|TestDoAt|TestMemo' \
	-bench BenchmarkServeCachedHit -benchtime 1x -count=1 ./internal/wire ./internal/db ./internal/cache

echo "== execution differential gate (SPJ, subdatabases and the sequential list — outer joins, computed select lists, GROUP BY/HAVING, ORDER BY/LIMIT — vs naive reference as sorted sets; par x cache x lazy/ANALYZEd statistics x local/TCP byte-identical, socket payload == in-process v2 encoding; the server's unboxed result encoding like the boxed one, sizes from columns equal sizes from rows; the server path boxing no row block; reductions planned with statistics vs the heuristic plan, JOB/star/hierarchy/fact-mid-dim x RDB/RDBRP x par, before and after an INSERT batch; every plan decision and estimate of those statements against testdata/plans.golden; the one containment model's edge cases, the reduction schedule allocating nothing per candidate root or bottom-up order, greedy join orders with and without statistics joining the same rows; dense integer key sets matching exactly what the hashed form of the same key matches, the branch-free bitmap probe included; dense join hash tables yielding the hashed form's pairs in its order; GROUP BY and DISTINCT over a unique dense integer column numbering every row as the hashing path does; a cold JOB statement executed and v2-encoded within its byte budget, a scan keeping few of many rows allocating for its survivors and not its candidates, Run.Positions' exact vector holding what a serial filter keeps; Theorem 4.4 over random cyclic and α-acyclic queries, GYO join trees spanning every JG-acyclic query and enforcing two attributes of one class; under -race)"
gate -race -timeout 600s -run 'TestExecutionDifferential|TestCostBased|TestPlanGolden|TestServerPathBoxesNoRows|TestRootSim|TestContainmentModel|TestGreedyJoinOrder|TestKeySetDenseMatchesHash|TestHashTableDenseMatchesHash|TestGroupPositionsDenseUniqueMatchesHash|TestTheorem44|TestJoinTree|TestJGAcyclic|TestGYOJoinTree|TestColdJOBAllocatesForItsResult|TestScanAllocatesForItsSurvivors|TestPositionsMatchesSerialMarks' -count=1 \
	./internal/wire ./internal/core ./internal/stats ./internal/engine ./internal/colstore ./internal/parallel
gate -race -run 'TestDifferentialOracle' -count=1 ./internal/rewrite

echo "== wire v2 differential gate (socket payload == in-process v2 encoding x par, decoded vs v1 oracle, v2 <= v1 bytes, decoded results frame-backed and re-encoding to the same bytes, float byte planes and split text blocks round-tripping bit for bit around the planes' edges, streamed == buffered in-process encode, post-join equal on every result form; boxed in-process and unboxed server results x v1/v2 byte-identical, v2 chunk by chunk too, sizes from columns equal sizes from rows, in-process calls boxing into copies of cached sets the server reads unboxed, the server path boxing no row block; a text column's gather allocating for its rows, not its scan dictionary, with the cell-by-cell gather's bytes; a warmed free list of compression states making none for two concurrent degree-2 encodes; a v1 decode holding each value once; under -race)"
gate -race -run 'TestWireV2Differential|TestV2RoundTripProperty|TestStreamedMatchesBuffered|TestExecUnboxed|TestResultSetsCarryViews|TestPostJoinSameOnEveryResultForm|TestServerPathBoxesNoRows|TestWireSizeFromColumns|TestInProcessCallsBox|TestCacheHitBoxesIntoACopy|TestTextGatherAllocatesForItsRows|TestWarmedDeflaterListMakesNoState|TestV1DecodeHoldsEachValueOnce' -count=1 \
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
