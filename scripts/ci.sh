#!/usr/bin/env bash
# CI gate: vet, build, the unlinked-export guard, full test suite,
# bounded splice-enumerator, splice equality-map (eqAt against its byte
# loop), exact PMF-convolution, composed-scoring, Stride composition-law,
# Stride delta-law, -dir tree, CRC slicing-vs-scalar and census order/A3
# fuzz runs, the race detector over the concurrent packages, the
# workers-determinism guarantees, the CRC engine against its scalar
# oracle and composed netsim scoring, the census pins, the bench/
# harness tests, a one-iteration smoke of the per-algorithm checksum
# benchmark, and the full-scale paper reproduction diffed against
# paper_output.txt at 2 workers and at 1.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== unlinked exported functions =="
# Builds every cmd/*, examples/* and bench binary with inlining off and
# lists their symbols with go tool nm: an exported function or method
# under internal/ that no binary links must be deleted, moved into a
# _test.go file, or listed with its reason in scripts/unlinked.allow.
scripts/unlinked.sh

echo "== go test =="
go test ./...

echo "== fuzz seed-corpus smoke =="
# Runs every Fuzz target over its f.Add seeds plus the checked-in
# testdata corpora in normal (non-fuzzing) mode — FuzzLZRoundTrip's
# testdata/fuzz seeds included.  `go test -fuzz` only accepts a single
# package, so the smoke uses -run across the tree.
go test -count=1 -run Fuzz ./...

echo "== splice enumerator fuzz (15 s of new inputs) =="
# The seed smoke above replays only f.Add inputs.  This bounded run
# mutates new payloads and configurations, up to 7 cells per packet,
# through the splice walk (a stack walk over the first slots, the
# suffix table for the last three, header-caught subtrees counted) and
# checks every pair against the materializing brute force.
go test -run '^$' -fuzz FuzzEnumerateMatchesBruteForce -fuzztime 15s ./internal/splice/

echo "== splice equality-map fuzz (10 s of new inputs) =="
# eqAt's slice compares against the byte loop they replaced (refEqAt):
# SDU ends and the checksum field at fuzzed offsets around the slot,
# slots past both SDUs included.
go test -run '^$' -fuzz FuzzEqAtMatchesByteLoop -fuzztime 10s ./internal/splice/

echo "== exact PMF convolution fuzz (10 s of new inputs) =="
# The NTT convolution against the exact oracle (the textbook loop over
# the integer numerators, rounded once through big.Rat), bin for bin and
# bit for bit, on mutated moduli (up to 5000) and counts; past the
# primes' bound it must panic instead.  Each input costs a textbook
# loop, so minimization is capped as for the composed-scoring fuzz.
go test -run '^$' -fuzz FuzzConvolveMatchesReference -fuzztime 10s -fuzzminimizetime 2s ./internal/dist/

echo "== composed netsim scoring vs full recompute (-race) =="
# Every candidate netsim judges, scored from per-cell partials, against
# algo.Sum over its bytes: every registry algorithm × default channel ×
# placement, open loop and -retrans, raw and lz payloads, TCP and UDP,
# at workers 1/2/8.  Also the sent-PDU receiver verdicts the intact fast
# path reuses, the Stride composition law and the CRC shift operator.
go test -race -count=1 -run 'ComposedScore|SentPDUs|Stride|Shift' ./internal/netsim/ ./internal/algo/ ./internal/crc/

echo "== composed scoring fuzz (10 s of random cell trains and damage) =="
# -fuzzminimizetime caps the minimization of each new input (60 s by
# default), which would otherwise spend the whole budget on a handful
# of executions.
go test -run '^$' -fuzz FuzzComposedScoreMatchesDirect -fuzztime 10s -fuzzminimizetime 2s ./internal/netsim/

echo "== Stride composition law fuzz (10 s of random blocks, tails and CRC widths) =="
# Every registry algorithm and a generic CRC of fuzzed width and
# polynomial, folded from per-block partials at an even block size
# 2-96, against the one-shot Sum.
go test -run '^$' -fuzz FuzzStrideMatchesSum -fuzztime 10s ./internal/algo/

echo "== Stride delta law fuzz (10 s of random blocks and byte damage) =="
# A damaged 48-byte block's partial patched from its source's partial
# and their nibble difference, against its direct Partial: every
# registry algorithm and a generic CRC of every width 1-64.
go test -run '^$' -fuzz FuzzStrideDeltaMatchesPartial -fuzztime 10s -fuzzminimizetime 2s ./internal/algo/

echo "== -dir tree fuzz (10 s: symlinks, loops, empty and unreadable files) =="
go test -run '^$' -fuzz FuzzScanDir -fuzztime 10s ./internal/corpus/

echo "== CRC slicing-by-8 vs scalar oracle (-race) =="
# The one CRC engine against the scalar oracle for every catalogued
# parameterization and every width 1-64, both against hash/crc32 and
# the bitwise reference, a table shared by concurrent goroutines, and
# the registry's zero-alloc Sum surface, all under the race detector —
# tables are shared across netsim workers.
go test -race -count=1 -run 'Slicing|Kernel|TableMatchesBitwise|SumZeroAlloc|SumHelper' ./internal/crc/ ./internal/algo/

echo "== CRC slicing-vs-scalar fuzz (10 s of new inputs) =="
go test -run '^$' -fuzz FuzzSlicingEquivalence -fuzztime 10s ./internal/crc/

echo "== go test -race (sim, splice, netsim, dist) =="
go test -race ./internal/sim/... ./internal/splice/... ./internal/netsim/... ./internal/dist/...

echo "== go test -race (workers determinism) =="
go test -race -run 'Deterministic' ./internal/sim/... ./internal/experiments/... ./internal/netsim/...

echo "== netsim smoke (workers 1 vs 4 determinism under -race, full battery incl. correlated loss + dup) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run -race ./cmd/paper -netsim -scale 0.02 -workers 1 > "$tmp/netsim.w1"
go run -race ./cmd/paper -netsim -scale 0.02 -workers 4 > "$tmp/netsim.w4"
diff "$tmp/netsim.w1" "$tmp/netsim.w4" || { echo "netsim output differs across worker counts"; exit 1; }
test -s "$tmp/netsim.w1" || { echo "empty netsim report"; exit 1; }
for ch in drop-ge drop-burst dup; do
    grep -q "shape\[tcp/$ch\]" "$tmp/netsim.w1" || { echo "netsim report missing channel $ch"; exit 1; }
done
grep -q "i.i.d. vs correlated cell loss at matched average rate" "$tmp/netsim.w1" \
    || { echo "netsim report missing the loss-contrast section"; exit 1; }
grep -q "end-to-end vs per-segment checksum placement" "$tmp/netsim.w1" \
    || { echo "netsim report missing the placement-contrast section"; exit 1; }
grep -q "raw vs lz-compressed payload" "$tmp/netsim.w1" \
    || { echo "netsim report missing the raw-vs-compressed contrast section"; exit 1; }
grep -q "^shape\[tcp+lz/burst\]" "$tmp/netsim.w1" \
    || { echo "netsim report missing the compressed-pass shape lines"; exit 1; }
# The raw TCP pass closes the retransmission loop: per-algorithm retrans
# tables, the residual-vs-miss-rate contrast over the matched-rate drop
# channels, and the greppable retrans[...] pin lines.
grep -q "retransmission loop (retry cap 8)" "$tmp/netsim.w1" \
    || { echo "netsim report missing the retransmission tables"; exit 1; }
grep -q "residual error vs miss rate, i.i.d. vs correlated loss at matched rate" "$tmp/netsim.w1" \
    || { echo "netsim report missing the residual-contrast section"; exit 1; }
grep -q "^retrans\[tcp/drop\]" "$tmp/netsim.w1" \
    || { echo "netsim report missing the retrans pin lines"; exit 1; }

echo "== netsim -dir corpus walk pin (testdata/netcorpus, -race) =="
# A real-directory-tree run over a small frozen in-repo tree (a byte
# copy of internal/onescomp's source files that no code change touches),
# with its shape lines pinned: any regression in the corpus walk, the
# sender packetization, or the trial seed chain shows up as a diff here.
go run -race ./cmd/netsim -dir testdata/netcorpus -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 > "$tmp/netsim.dir"
grep "^shape" "$tmp/netsim.dir" > "$tmp/netsim.dir.shapes"
diff - "$tmp/netsim.dir.shapes" <<'SHAPES' || { echo "netsim -dir shape lines changed"; exit 1; }
shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-ge]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/dup]: corrupted=55 weakest=tcp(0) tcp=0 crc32=0
SHAPES
# The per-segment placement lines are pinned the same way.
# seg_corrupted <= corrupted is the prefix invariant: a delivered
# segment is the PDU prefix at the claimed length, so a PDU corrupted
# only past that prefix counts e2e but not per-segment.
grep "^placement" "$tmp/netsim.dir" > "$tmp/netsim.dir.placements"
diff - "$tmp/netsim.dir.placements" <<'PLACEMENTS' || { echo "netsim -dir placement lines changed"; exit 1; }
placement[tcp/drop]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-ge]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-burst]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/dup]: seg_corrupted=55 tcp=0 f255=0 crc32=0 header=0 trailer=0
PLACEMENTS

echo "== netsim -retrans pin (testdata/netcorpus, -race) =="
# The same walk with the retransmission loop closed.  Two things are
# pinned: the shape/placement lines must be byte-identical to the
# open-loop pins above (retry channel rolls come from the RetrySeed
# sub-stream after all primary RNG use, so -retrans cannot perturb an
# open-loop counter), and the retrans[...] lines themselves — per
# channel, the tcp/crc32/oracle transmission counts, residual bytes and
# cap-exhausted PDUs.
go run -race ./cmd/netsim -dir testdata/netcorpus -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -retrans > "$tmp/netsim.ret"
grep -E "^(shape|placement)" "$tmp/netsim.ret" > "$tmp/netsim.ret.open"
grep -E "^(shape|placement)" "$tmp/netsim.dir" > "$tmp/netsim.dir.open"
diff "$tmp/netsim.dir.open" "$tmp/netsim.ret.open" \
    || { echo "-retrans perturbed the open-loop shape/placement pins"; exit 1; }
grep "^retrans" "$tmp/netsim.ret" > "$tmp/netsim.ret.lines"
diff - "$tmp/netsim.ret.lines" <<'RETRANS' || { echo "netsim -retrans pin lines changed"; exit 1; }
retrans[tcp/drop]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-ge]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-burst]: cap=8 pdus=106 tcp_tx=109 tcp_resid=0 crc32_tx=109 crc32_resid=0 oracle_tx=109 exhausted=0
retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=224 tcp_resid=0 crc32_tx=224 crc32_resid=0 oracle_tx=224 exhausted=1
RETRANS

echo "== netsim -compress pin (testdata/netcorpus, -race) =="
# The same walk with the lz payload stage on: the compressed payloads
# are roughly half the size (fewer cells per file, hence the lower
# counts), the labels gain the +lz suffix, and the ratio line in the
# header is pinned too — any drift in the compressor's output bytes,
# the per-file ratio accounting or the trial seed chain shows here.
go run -race ./cmd/netsim -dir testdata/netcorpus -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -compress > "$tmp/netsim.lz"
grep "^lz payload stage" "$tmp/netsim.lz" > "$tmp/netsim.lz.ratio"
diff - "$tmp/netsim.lz.ratio" <<'RATIO' || { echo "netsim -compress ratio line changed"; exit 1; }
lz payload stage: 2 files, 13,295 -> 7,106 bytes, ratio min=47.848% mean=53.449% max=64.604%
RATIO
grep "^shape" "$tmp/netsim.lz" > "$tmp/netsim.lz.shapes"
diff - "$tmp/netsim.lz.shapes" <<'SHAPES' || { echo "netsim -compress shape lines changed"; exit 1; }
shape[tcp+lz/drop]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/drop-ge]: corrupted=3 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp+lz/dup]: corrupted=30 weakest=tcp(0) tcp=0 crc32=0
SHAPES
grep "^placement" "$tmp/netsim.lz" > "$tmp/netsim.lz.placements"
diff - "$tmp/netsim.lz.placements" <<'PLACEMENTS' || { echo "netsim -compress placement lines changed"; exit 1; }
placement[tcp+lz/drop]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/drop-ge]: seg_corrupted=3 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/drop-burst]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp+lz/dup]: seg_corrupted=29 tcp=0 f255=0 crc32=0 header=0 trailer=0
PLACEMENTS

echo "== cksumd service smoke (scenario run, metrics scrape, graceful shutdown, -race) =="
# The service path must reproduce the batch pin lines above: cksumd runs
# the same netcorpus scenario as a verification stream, the /metrics
# scrape must carry the identical shape/placement lines, and SIGINT must
# drain and exit 0 under the race detector.
go build -race -o "$tmp/cksumd" ./cmd/cksumd
# The scenario file lives in $tmp and a relative dir resolves against
# the file's directory, so the corpus path is absolute.
cat > "$tmp/netcorpus.scenario.json" <<EOF
{"name":"ci-smoke","dir":"$PWD/testdata/netcorpus","channels":["drop","drop-ge","drop-burst","dup"],"retrans":true,"trials":2,"workers":2}
EOF
"$tmp/cksumd" "$tmp/netcorpus.scenario.json" > "$tmp/cksumd.log" 2>&1 &
ckpid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's|^cksumd: metrics on \(http://[^ ]*\)$|\1|p' "$tmp/cksumd.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "cksumd never reported its metrics address"; kill "$ckpid" 2>/dev/null; exit 1; }
for _ in $(seq 1 300); do
    "$tmp/cksumd" -scrape "$addr" > "$tmp/cksumd.metrics" 2>/dev/null || true
    grep -q 'cksumd_streams{state="done"} 1' "$tmp/cksumd.metrics" && break
    sleep 0.1
done
grep '^stream\[0\] shape' "$tmp/cksumd.metrics" > "$tmp/cksumd.shapes" || true
diff - "$tmp/cksumd.shapes" <<'SHAPES' || { echo "cksumd scrape shape lines differ from the batch pins"; kill "$ckpid" 2>/dev/null; exit 1; }
stream[0] shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/drop-ge]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
stream[0] shape[tcp/dup]: corrupted=55 weakest=tcp(0) tcp=0 crc32=0
SHAPES
grep -q 'cksumd_trials_total{stream="0",channel="drop"} 4' "$tmp/cksumd.metrics" \
    || { echo "cksumd metrics missing the per-channel trial counter"; kill "$ckpid" 2>/dev/null; exit 1; }
# The scenario closes the retransmission loop, so the scrape must carry
# the retrans[...] pin lines — byte-identical to the batch -retrans pins.
grep '^stream\[0\] retrans' "$tmp/cksumd.metrics" > "$tmp/cksumd.retrans" || true
diff - "$tmp/cksumd.retrans" <<'RETRANS' || { echo "cksumd scrape retrans lines differ from the batch pins"; kill "$ckpid" 2>/dev/null; exit 1; }
stream[0] retrans[tcp/drop]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
stream[0] retrans[tcp/drop-ge]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
stream[0] retrans[tcp/drop-burst]: cap=8 pdus=106 tcp_tx=109 tcp_resid=0 crc32_tx=109 crc32_resid=0 oracle_tx=109 exhausted=0
stream[0] retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=224 tcp_resid=0 crc32_tx=224 crc32_resid=0 oracle_tx=224 exhausted=1
RETRANS
kill -INT "$ckpid"
wait "$ckpid" || { echo "cksumd did not exit 0 after SIGINT"; exit 1; }

echo "== bench harness tests (splice-tables, dist-passes and the rest) =="
# bench/ is its own module, so the root ./... run above skips it.
(cd bench && go test ./...)

echo "== BenchmarkSum smoke (every registry algorithm at cell, MTU and bulk sizes) =="
go test -run '^$' -bench BenchmarkSum -benchtime 1x ./internal/algo > "$tmp/benchsum.txt"
for a in $(go run ./cmd/cksum -a list); do
    grep -q "^BenchmarkSum/$a/" "$tmp/benchsum.txt" \
        || { echo "BenchmarkSum missing algorithm $a"; exit 1; }
done

echo "== census smoke (polynomial-selection census, workers 1 vs 4 determinism, -race) =="
# The census report — both lanes, ranks and the inversion verdict — must
# be byte-identical at any worker count.  Its greppable census[...]
# lines are pinned in internal/census/testdata/pins.golden, which
# TestCensusPinsGolden checks in go test; the CLI's lines must match
# the same file.  Any drift in the gf2poly order and spectrum math, the
# generic-width CRC tables, the error-class mix or the injection seed
# chain shows up as a diff here.
go run -race ./cmd/paper -census -scale 0.02 -workers 1 > "$tmp/census.w1"
go run -race ./cmd/paper -census -scale 0.02 -workers 4 > "$tmp/census.w4"
diff "$tmp/census.w1" "$tmp/census.w4" || { echo "census output differs across worker counts"; exit 1; }
grep "^census\[" "$tmp/census.w1" > "$tmp/census.pins"
diff internal/census/testdata/pins.golden "$tmp/census.pins" || { echo "census pin lines changed"; exit 1; }
go test -race -count=1 -run 'TestCensusPinsGolden' ./internal/census/

echo "== census analytic lane fuzz (10 s each: order of x, A3 vs their scans) =="
# Baby-step giant-step XOrder against the one-step scan at widths 1-64
# (limits at and around the order, g(0) = 0), and the linear-time A3
# against the O(n^2) pair walk up to 512 bits, x^s*h generators included.
go test -run '^$' -fuzz FuzzXOrderMatchesScan -fuzztime 10s ./internal/gf2poly/
go test -run '^$' -fuzz FuzzWeight3MatchesPairWalk -fuzztime 10s ./internal/gf2poly/

echo "== full-scale reproduction vs paper_output.txt, at 2 workers and at 1 =="
# Every table, figure and NetSim section of the paper run at full
# scale (about 10 s wall at 2 workers and 13 s at 1 on 2 CPUs).  Timing
# lines go to stderr, so stdout is deterministic and must equal the
# committed output at either worker count: the one whole-paper check
# that output does not depend on the worker count.
go build -o "$tmp/paper" ./cmd/paper
for w in 2 1; do
    "$tmp/paper" -scale 1.0 -workers "$w" > "$tmp/paper.full"
    diff paper_output.txt "$tmp/paper.full" || { echo "paper -scale 1.0 -workers $w output differs from paper_output.txt"; exit 1; }
done

echo "CI OK"
