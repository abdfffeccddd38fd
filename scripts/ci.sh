#!/usr/bin/env bash
# CI gate: vet, build, and run the full test suite under the race
# detector. The parallel kernels' equivalence tests make -race meaningful:
# every pool-backed code path runs at multiple worker counts.
#
# Seventeen packages additionally carry a coverage floor (the end of this
# script says why each one does), starting with the collection layer:
# the crawler and apiserver chaos suites (fault injection + kill/resume)
# are the proof that it tolerates real-world API behaviour.
set -euo pipefail
cd "$(dirname "$0")/.."

# go vet is also the lock-copy gate: its copylocks check flags any copy
# of a value holding a sync primitive, through nested structs too.
go vet ./...
go build ./...

# Build and vet again from what git would commit (HEAD plus the index),
# not from the working tree: an ignored-but-required package — as
# internal/viz once was under an unanchored viz/ pattern — builds here
# and nowhere else.
export_dir=$(mktemp -d)
trap 'rm -rf "$export_dir"' EXIT
git archive "$(git write-tree)" | tar -x -C "$export_dir"
(cd "$export_dir" && go build ./... && go vet ./...)
echo "module builds from the git export"

# Invariant analyzers run before the tests: a determinism/ctxthread/
# errwrap/binlayout violation, an exported name in internal/ that no
# non-test code references (deadexport), a lock held across blocking
# work or locked twice (lockdisc), or a stale crowdlint.allow entry or
# //lint:ignore directive (the tool reports those as findings) fails CI
# before a single test executes.
go run ./cmd/crowdlint ./...

# Race-detector suites. halt_on_error=1 makes the first detected race
# fail the run immediately instead of racing on and burying the report
# mid-log. Each named suite pins one equivalence or resilience claim:
#
#   frozen-view        the index-space CSR kernels (FromRows, the
#                      min-degree filter, the degree cap) give the
#                      reference label-keyed builder's graphs, a frozen
#                      artifact round-trips, and the decoded snapshot's
#                      analyses (CoDA, metrics) equal the loader rows
#   coda-sweep         CoDA's block-ordered sweeps give the same F/H at
#                      every worker count, pinned to golden digests; the
#                      fused row kernel matches the unfused reference bit
#                      for bit; BigCLAM, which shares it, stays pinned
#   projection         the weighted CSR projection gives the pair-
#                      counting reference's edges with ascending,
#                      symmetric rows, and Collapse sums group weights;
#                      each projected detector returns one answer per seed
#   serve-chaos        seeded backend faults yield bounded error rates,
#                      deterministic breaker transitions, stale-marked
#                      degradation — and drained goroutine counts; a
#                      store with no snapshot yet never trips the breaker
#   index-scan         planner index routes stay byte-identical to the
#                      scan route, off the 64-row word boundary too; each
#                      row-bitmap kernel matches brute force; corrupt,
#                      stale or unbounded index blobs fail loudly; the
#                      radix-built orderings equal a stable sort at one
#                      worker and at four; a replica's queries read the
#                      very snapshot its last full or delta refresh
#                      installed; the compiled evaluator keeps every
#                      operator's answer over every operand kind; a
#                      cancelled pass (query, row read, JSON export)
#                      stops within 64 records; a statement naming what
#                      does not exist answers 404, one that cannot run
#                      400, and neither trips the breaker or ejects a
#                      replica
#   delta-refreeze     delta-applied snapshots match a freeze of the same
#                      round from the store; crash-interrupted chains
#                      recover byte-identically; the in-memory crawl
#                      merge and the store loader build the same rows;
#                      the pipeline keeps no crawl alive between rounds;
#                      a resumed round killed before its freeze commits
#                      a fault-free run's bytes, one killed after it
#                      writes nothing
#   checkpoint-log     a crawl's checkpoint log folds back to exactly the
#                      crawl, a step too large for one record folds the
#                      same from several, each round's log stays within
#                      twice the crawl records it persisted, and a
#                      malformed record fails the load as ErrCorrupt
#   sharded-freeze     streaming generation matches in-memory generation,
#                      payload for payload, its hand-written encoders
#                      match json.Marshal and its bytes are pinned to
#                      golden digests; a cancelled or failed-commit run
#                      commits nothing; the spliced ingest is the typed
#                      ingest byte for byte, its shards copied by one
#                      worker or by four; the freeze is shard-count and worker-count
#                      invariant (its shard walk is concurrent), pinned
#                      to the golden digests, its record scanners agree
#                      with encoding/json, and a re-persisted round
#                      freezes as its last persist
#   front-chaos        a crawler SIGKILLed mid-round and resumed into a
#                      K=4 store still freezes to an artifact bit-
#                      identical to a fault-free unsharded crawl; the
#                      front serves zero 5xx while at least one replica
#                      survives mid-request kills, and 503s only when
#                      every replica is down
#   store-shape        every K (1 included) is the same store: per-shard
#                      routing and order survive reopen + append; a
#                      pre-shard manifest folds into one shard;
#                      a failed commit leaves no phantom namespace; a
#                      cancelled Persist commits nothing; goroutines
#                      appending each to its own shard of one Writer
#                      race on nothing and keep each shard's order
#   binaries           crowdscope serve, with one replica and with two
#                      behind the front, comes up on an ephemeral port
#                      over a crawled store, answers /readyz and the
#                      query golden byte for byte, and on cancellation
#                      returns only after the drain, leaking no
#                      goroutine; over an empty store its replicas start
#                      unready and then take each committed round, the
#                      second by delta; the drain helper never returns
#                      with a request in flight
export GORACE="halt_on_error=1"

go test -race ./...

# The root package's Benchmark* functions are the experiments'
# reproductions (EXPERIMENTS.md), and their b.Fatal/b.Error checks run
# only when a benchmark does: one iteration of each, without -race.
go test -run '^$' -bench . -benchtime 1x .

# A suite must select at least one test in every package it names: a
# renamed or deleted test would otherwise empty it without a failure.
run_suite() {
  local name="$1" pattern="$2"; shift 2
  echo "=== race suite: $name ==="
  local pkg list
  for pkg in "$@"; do
    list=$(go test -list "$pattern" "$pkg")
    if ! grep -q '^Test' <<<"$list"; then
      echo "ci: race suite $name selects no test in $pkg" >&2
      exit 1
    fi
  done
  go test -race -run "$pattern" "$@"
}

run_suite frozen-view    'Frozen|TestFromRowsMatchesBuilder|TestFilterAndCapMatchReference' ./internal/graph ./internal/core .
run_suite coda-sweep     'TestCoDA|TestUpdateRow|TestBigCLAM' ./internal/community
run_suite projection     'TestProjectLeft|TestCollapseSumsGroupWeights|TestProjectedDetectorsDeterministic' ./internal/graph ./internal/community
run_suite serve-chaos    'Chaos|TestServerDrainGoroutineCountRegression|TestEmptyStoreRefreshNeverTripsBreaker' ./internal/serve
run_suite index-scan     'TestIndexRouteMatchesScanRouteProperty|TestCorruptIndexBlobFailsLoudly|TestStaleIndexFallsBackToScan|TestServedSnapshotIsQueriedSnapshot|TestIndexedRouteBodiesMatchScanRoute|TestBitmapKernelsMatchBruteForce|TestDecodeStructuralValidation|TestEncodeRefusesOversizedBitmaps|TestRadixOrderingMatchesStableSort|TestEvaluatorSemantics|TestCancelledPassStopsWithin64Records|TestStatementErrorsAreClientErrors' ./internal/core ./internal/serve ./internal/index ./internal/query
run_suite delta-refreeze 'TestDeltaRefreezeEquivalence|TestRecoverChainAfterCrash|TestDiffCrawlAppliesToMergedRound|TestStoreLoaderMatchesMergeCrawl|TestRecrawlIsIdempotent|TestDeltaFallbackFreezesFromStore|TestResumeBeforeAndAfterFreeze|TestPipelineKeepsNoCrawlAlive' ./internal/core .
run_suite checkpoint-log 'TestCheckpointRoundTrip|TestLoadCheckpoint|TestSaveCheckpoint|TestCheckpointLogBytesBound' ./internal/crawler .
run_suite sharded-freeze 'TestGenerateToMatchesGenerate|TestGenerateToGoldenDigests|TestGenerateToCancel|TestGenerateToFailedCommitCommitsNothing|TestStreamedUserAllocs|FuzzGenRecordEncoders|TestIngestGenerated|TestShardedFreeze|TestProjectionRowsMatchTypedDecode|FuzzFreezeDecoders|TestFrozenGoldenDigests|TestRepersistedRoundFreezesAsLastPersist' ./internal/ecosystem ./internal/crawler ./internal/core
run_suite front-chaos    'TestShardedKillResumeFrozenBitIdentical|TestFrontFailoverMidRequestKillZero5xx|TestFrontAllReplicasDown503' ./internal/core ./internal/fleet/front
run_suite store-shape    'TestStoreShapeInvariance|TestLegacyNamespaceReadsAsSingleShard|TestFailedCommitLeavesNoPhantomNamespace|TestAppendRawToCopiesShardsAndAbortCommitsNothing|TestPersistCancelCommitsNothing|TestIngestGeneratedRejectsNonObjects|TestWriterConcurrentShardAppends' ./internal/store ./internal/crawler
run_suite binaries       'TestServeDrain|TestServeReplicasStartUnreadyAndRefreshByDelta|TestServeUntilDoneWaitsForInFlight' ./cmd/crowdscope

# Hostile and random bytes: ten seconds or so of native fuzzing each on the
# parser (a query error, or a statement whose canonical text parses
# back to itself; never a panic), on the generator's record encoders
# (json.Marshal's bytes for any field values, or its failure), on the
# row contract (core's typed
# records and the same rows decoded from JSON give the same bytes), on
# the freeze's record scanners (each accepts and rejects exactly what
# json.Unmarshal into the same projection does, with the same fields,
# and a user record the typed decode takes scans to its values) and on
# the frozen-snapshot
# decoder (any bytes decode to an ErrCorrupt error or to a snapshot with
# strictly ascending IDs whose graph is the one built over its own rows,
# allocating in proportion to the input) and on the index decoder (an
# ErrCorrupt or ErrInvalid error, or tables equal to the index built
# over their own columns, on which every row-bitmap kernel matches
# brute force, again allocating in proportion to the input) and on the
# store's segment and manifest readers (an ErrCorrupt error, or records
# that frame back to the file's bytes / a manifest that commits and
# loads back unchanged and opens a store that scans without a panic,
# allocating in proportion to the input) and on the crawler's checkpoint
# log (an ErrCorrupt error, or a fold whose additions persist without a
# panic).
# internal/core's targets get
# 20 s: its TestMain crawls the package fixture in the coordinator and in
# every fuzz worker before the first input runs, which takes about half.
# Minimizing each new corpus entry is capped at 100 runs: left at its
# default (up to a minute), minimizing one ~1.5 KB frozen artifact eats
# the whole budget. A failing input is still reported, minimized or not.
for entry in FuzzParse:./internal/query:10s FuzzGenRecordEncoders:./internal/ecosystem:10s FuzzTypedVsDecoded:./internal/query:10s FuzzFreezeDecoders:./internal/core:20s FuzzDecodeFrozen:./internal/core:20s FuzzDecodeIndex:./internal/index:10s FuzzScanSegment:./internal/store:10s FuzzLoadManifest:./internal/store:10s FuzzLoadCheckpoint:./internal/crawler:10s; do
  IFS=: read -r target pkg budget <<<"$entry"
  go test -run '^$' -fuzz "^${target}\$" -fuzztime="$budget" -fuzzminimizetime=100x "$pkg"
done

# Per-package coverage floors (percent).
check_coverage() {
  local pkg="$1" floor="$2" out pct
  out=$(go test -coverprofile=/tmp/cover.$$.out "$pkg")
  echo "$out"
  pct=$(echo "$out" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
  rm -f /tmp/cover.$$.out
  if [ -z "$pct" ]; then
    echo "ci: could not parse coverage for $pkg" >&2
    exit 1
  fi
  awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p >= f) }' || {
    echo "ci: $pkg coverage ${pct}% is below the ${floor}% floor" >&2
    exit 1
  }
}

check_coverage ./internal/crawler 70
check_coverage ./internal/apiserver 70
# The persistence layer (the one K-shard writer, blob namespaces, frozen
# artifacts) and the graph layer (the one CSR graph type and its
# kernels) gate the snapshot format's integrity guarantees.
check_coverage ./internal/store 70
check_coverage ./internal/graph 70
# The lint framework gates every other invariant, so it carries its own
# floor: analyzers must stay fixture-tested as they grow.
check_coverage ./internal/lint 70
# The runtime leak harness backs every suite's goroutine hygiene
# assertions; a rotted parser or filter silently passes leaks through.
check_coverage ./internal/leakcheck 70
# The resilient serving layer: admission, breaker and degradation paths
# are exactly the code that only misbehaves under production stress, so
# the chaos/unit suites must keep exercising them.
check_coverage ./internal/serve 70
# The secondary-index layer backs the planner's correctness guarantee:
# postings, orderings and the persisted codec must stay exhaustively
# tested or silent wrong answers become possible.
check_coverage ./internal/index 70
# The snapshot container carries the frozen artifacts AND the delta
# artifacts; its codec is the foundation of the delta==refreeze
# byte-identity guarantee.
check_coverage ./internal/snapshot 70
# The snapshot builder, decoder, delta apply and query source: every
# analysis, query and replica reads what this package freezes and
# decodes.
check_coverage ./internal/core 70
# The synthetic ecosystem is the ground truth every equivalence suite
# measures against (streaming==in-memory generation, sharded==unsharded
# freeze), so its distribution and emission paths carry a floor too.
check_coverage ./internal/ecosystem 70
# The front is what crowdscope serve -replicas N and the serving
# benchmark put between clients and replicas: its ejection, retry and
# reinstatement paths only run when a replica dies, so the failover
# suite must keep exercising them.
check_coverage ./internal/fleet/front 70
# The statistics and community-strength metrics behind every figure
# carry floors too, so what they export stays tested.
check_coverage ./internal/stats 70
check_coverage ./internal/metrics 70
# CoDA and the four baseline detectors produce the paper's community
# numbers (E5, Fig. 4/5/7, E9, A2): each now runs at one fixed setting,
# and that one setting must stay tested.
check_coverage ./internal/community 70
# The query engine answers every /api/query and crowdscope query
# statement; its planner picks between index and scan routes that must
# return the same rows.
check_coverage ./internal/query 70
# The one command: every subcommand runs in-process against the golden
# stdout of the binaries it replaced, so an untested flag or branch is
# one the goldens no longer vouch for.
check_coverage ./cmd/crowdscope 70

# The repository benchmark compiles against the pinned core/crawler/
# serve/pipeline API and checks every workload's answers against its
# oracle: a smoke pass is the end-to-end compile-and-correctness check
# of that API (timings at smoke sizes mean nothing and are not compared).
# 1.5 s a run, as the package's own TestSmokeAllWorkloads uses: the
# ad-hoc workload never repeats a statement, and at smoke size its
# generator has about 5,700 to give — ten seconds of millisecond-or-
# faster scans ask for more and the run aborts "statement space exhausted".
go run ./benchmark -workload all -smoke -seconds 1.5
