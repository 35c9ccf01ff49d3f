#!/usr/bin/env bash
# CI gate: vet, build, full test suite, the race detector over the
# concurrent packages, the workers-determinism guarantees and the CRC
# kernel layer, the bench/ harness tests, and a one-iteration smoke of
# the per-algorithm checksum benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== fuzz seed-corpus smoke =="
# Runs every Fuzz target over its f.Add seeds plus the checked-in
# testdata corpora in normal (non-fuzzing) mode — FuzzLZRoundTrip's
# testdata/fuzz seeds included.  `go test -fuzz` only accepts a single
# package, so the smoke uses -run across the tree.
go test -count=1 -run Fuzz ./...

echo "== CRC kernel differential smoke (-race) =="
# Every kernel against the scalar oracle and hash/crc32, the
# auto-selection contract (whatever New raced to must verify against
# the oracle), and the registry's zero-alloc Sum surface, all under
# the race detector — tables are shared across netsim workers.
go test -race -count=1 -run 'Sparse|Kernel|SumZeroAlloc|SumHelper' ./internal/crc/ ./internal/algo/

echo "== go test -race (sim, splice, netsim) =="
go test -race ./internal/sim/... ./internal/splice/... ./internal/netsim/...

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

echo "== netsim -dir corpus walk pin (internal/onescomp, -race) =="
# A real-directory-tree run over a small stable in-repo tree, with its
# shape lines pinned: any regression in the corpus walk, the sender
# packetization, or the trial seed chain shows up as a diff here.  The
# pinned numbers change whenever internal/onescomp's files change —
# update them alongside.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 > "$tmp/netsim.dir"
grep "^shape" "$tmp/netsim.dir" > "$tmp/netsim.dir.shapes"
diff - "$tmp/netsim.dir.shapes" <<'SHAPES' || { echo "netsim -dir shape lines changed"; exit 1; }
shape[tcp/drop]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-ge]: corrupted=4 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/drop-burst]: corrupted=1 weakest=tcp(0) tcp=0 crc32=0
shape[tcp/dup]: corrupted=54 weakest=tcp(0) tcp=0 crc32=0
SHAPES
# The per-segment placement lines are pinned the same way.  dup's
# seg_corrupted=53 < corrupted=54 is the prefix invariant: a delivered
# segment is the PDU prefix at the claimed length, so a PDU corrupted
# only past that prefix counts e2e but not per-segment.
grep "^placement" "$tmp/netsim.dir" > "$tmp/netsim.dir.placements"
diff - "$tmp/netsim.dir.placements" <<'PLACEMENTS' || { echo "netsim -dir placement lines changed"; exit 1; }
placement[tcp/drop]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-ge]: seg_corrupted=4 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/drop-burst]: seg_corrupted=1 tcp=0 f255=0 crc32=0 header=0 trailer=0
placement[tcp/dup]: seg_corrupted=53 tcp=0 f255=0 crc32=0 header=0 trailer=0
PLACEMENTS

echo "== netsim -retrans pin (internal/onescomp, -race) =="
# The same walk with the retransmission loop closed.  Two things are
# pinned: the shape/placement lines must be byte-identical to the
# open-loop pins above (retry channel rolls come from the RetrySeed
# sub-stream after all primary RNG use, so -retrans cannot perturb an
# open-loop counter), and the retrans[...] lines themselves — per
# channel, the tcp/crc32/oracle transmission counts, residual bytes and
# cap-exhausted PDUs.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -retrans > "$tmp/netsim.ret"
grep -E "^(shape|placement)" "$tmp/netsim.ret" > "$tmp/netsim.ret.open"
grep -E "^(shape|placement)" "$tmp/netsim.dir" > "$tmp/netsim.dir.open"
diff "$tmp/netsim.dir.open" "$tmp/netsim.ret.open" \
    || { echo "-retrans perturbed the open-loop shape/placement pins"; exit 1; }
grep "^retrans" "$tmp/netsim.ret" > "$tmp/netsim.ret.lines"
diff - "$tmp/netsim.ret.lines" <<'RETRANS' || { echo "netsim -retrans pin lines changed"; exit 1; }
retrans[tcp/drop]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-ge]: cap=8 pdus=106 tcp_tx=111 tcp_resid=0 crc32_tx=111 crc32_resid=0 oracle_tx=111 exhausted=0
retrans[tcp/drop-burst]: cap=8 pdus=106 tcp_tx=109 tcp_resid=0 crc32_tx=109 crc32_resid=0 oracle_tx=109 exhausted=0
retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=221 tcp_resid=0 crc32_tx=221 crc32_resid=0 oracle_tx=221 exhausted=1
RETRANS

echo "== netsim -compress pin (internal/onescomp, -race) =="
# The same walk with the lz payload stage on: the compressed payloads
# are roughly half the size (fewer cells per file, hence the lower
# counts), the labels gain the +lz suffix, and the ratio line in the
# header is pinned too — any drift in the compressor's output bytes,
# the per-file ratio accounting or the trial seed chain shows here.
go run -race ./cmd/netsim -dir internal/onescomp -channels drop,drop-ge,drop-burst,dup -trials 2 -workers 2 -compress > "$tmp/netsim.lz"
grep "^lz payload stage" "$tmp/netsim.lz" > "$tmp/netsim.lz.ratio"
diff - "$tmp/netsim.lz.ratio" <<'RATIO' || { echo "netsim -compress ratio line changed"; exit 1; }
lz payload stage: 2 files, 13,295 -> 7,086 bytes, ratio min=47.420% mean=53.298% max=63.550%
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
# the same onescomp scenario as a verification stream, the /metrics
# scrape must carry the identical shape/placement lines, and SIGINT must
# drain and exit 0 under the race detector.
go build -race -o "$tmp/cksumd" ./cmd/cksumd
cat > "$tmp/onescomp.scenario.json" <<'EOF'
{"name":"ci-smoke","dir":"internal/onescomp","channels":["drop","drop-ge","drop-burst","dup"],"retrans":true,"trials":2,"workers":2}
EOF
"$tmp/cksumd" "$tmp/onescomp.scenario.json" > "$tmp/cksumd.log" 2>&1 &
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
stream[0] shape[tcp/dup]: corrupted=54 weakest=tcp(0) tcp=0 crc32=0
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
stream[0] retrans[tcp/dup]: cap=8 pdus=106 tcp_tx=221 tcp_resid=0 crc32_tx=221 crc32_resid=0 oracle_tx=221 exhausted=1
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
# be byte-identical at any worker count, and its greppable census[...]
# lines are pinned: any drift in the gf2poly spectrum math, the
# generic-width CRC tables, the error-class mix or the injection seed
# chain shows up as a diff here.
go run -race ./cmd/paper -census -scale 0.02 -workers 1 > "$tmp/census.w1"
go run -race ./cmd/paper -census -scale 0.02 -workers 4 > "$tmp/census.w4"
diff "$tmp/census.w1" "$tmp/census.w4" || { echo "census output differs across worker counts"; exit 1; }
grep "^census\[" "$tmp/census.w1" > "$tmp/census.pins"
diff - "$tmp/census.pins" <<'CENSUS' || { echo "census pin lines changed"; exit 1; }
census[mix]: total=1760 len=295 w1=0 w2=639 w3=0 burst=631 multi=195
census[crc32]: w=32 a2=0 a3=0 ord=0 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32c]: w=32 a2=0 a3=0 ord=0 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32k]: w=32 a2=0 a3=0 ord=114695 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc32k2]: w=32 a2=0 a3=0 ord=65538 uniform=2.33e-10 bsc=0 measured=1.48e-10 miss=0/1760 ranks=1/1/1
census[crc24a]: w=24 a2=0 a3=0 ord=8388607 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc24b]: w=24 a2=0 a3=0 ord=8388607 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc24c]: w=24 a2=0 a3=0 ord=28086 uniform=5.96e-08 bsc=0 measured=3.8e-08 miss=0/1760 ranks=5/5/1
census[crc16-xmodem]: w=16 a2=0 a3=0 ord=32767 uniform=1.53e-05 bsc=0 measured=9.72e-06 miss=0/1760 ranks=8/8/1
census[crc11]: w=11 a2=1 a3=699050 ord=2047 uniform=0.000488 bsc=5.78e-07 measured=0.000311 miss=0/1760 ranks=9/9/1
census[crc6]: w=6 a2=32272 a3=22363729 ord=63 uniform=0.0156 bsc=0.000281 measured=0.0155 miss=9/1760 ranks=10/10/10
census[inversion]: none - the uniform-assumption ranking survived the measured corpus distributions
CENSUS

echo "CI OK"
