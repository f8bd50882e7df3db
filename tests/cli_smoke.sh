#!/bin/sh
# End-to-end smoke test of the daspos CLI. First argument: path to the
# binary; optional second argument: path to the dasposd daemon (enables the
# network-service lifecycle section). Exercises generate (gen, reco and aod
# tiers, checked against the chain's journal), inspect, lhada-check,
# lhada-run, and display; any non-zero exit fails the test.
set -e
DASPOS="$1"
DASPOSD="$2"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$DASPOS" generate z_ll 30 42 "$WORK/z_gen.dspc"
"$DASPOS" inspect "$WORK/z_gen.dspc" | grep -q "tier    : GEN"

"$DASPOS" generate z_ll 30 42 "$WORK/z_aod.dspc" aod
"$DASPOS" inspect "$WORK/z_aod.dspc" | grep -q "tier    : AOD"

"$DASPOS" generate z_ll 10 42 "$WORK/z_reco.dspc" reco
"$DASPOS" display "$WORK/z_reco.dspc" 0 | grep -q '"tracks"'

# generate runs the engine's chain stopped at the requested tier, so each
# file it writes is that step's journaled dataset, byte for byte.
"$DASPOS" chain z_ll 20 7 --journal="$WORK/j" >/dev/null
for tier in reco aod; do
  "$DASPOS" generate z_ll 20 7 "$WORK/engine_$tier.dspc" "$tier" >/dev/null
  want=$(grep "\"output\":\"$tier\"" "$WORK/j/journal.jsonl" |
         sed 's/.*"digest":"\([0-9a-f]*\)".*/\1/')
  got=$(sha256sum "$WORK/engine_$tier.dspc" | cut -d' ' -f1)
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "generate $tier wrote sha256 $got; the chain journaled '$want'" >&2
    exit 1
  fi
done

cat > "$WORK/dimuon.lhada" <<'LHADA'
analysis smoke
object muons
  take muon
  select pt > 15
cut dimuon
  select count(muons) >= 2
LHADA
"$DASPOS" lhada-check "$WORK/dimuon.lhada" | grep -q "analysis smoke"
"$DASPOS" lhada-run "$WORK/dimuon.lhada" "$WORK/z_aod.dspc" | grep -q "dimuon"


# Parallel workflow engine: the standard chain prints a per-step timing
# table, and the JSON report carries per-step metrics.
"$DASPOS" chain z_ll 10 7 2 | grep -q "reconstruction"
"$DASPOS" chain z_ll 10 7 2 --json | grep -q '"wall_ms"'

# Thread control: --threads and DASPOS_THREADS are equivalent to the
# positional count; the JSON report carries pool utilization; --threads=1
# forces strictly serial execution; identical outputs are implied by the
# byte-identical provenance (covered in parallel_test) so here we only
# check the plumbing.
"$DASPOS" chain z_ll 10 7 --threads=4 --json | grep -q '"pool"'
"$DASPOS" chain z_ll 10 7 --threads=1 | grep -q "1 thread(s)"
DASPOS_THREADS=2 "$DASPOS" chain z_ll 10 7 | grep -q "2 thread(s)"
if "$DASPOS" chain z_ll 10 7 --threads=bogus 2>/dev/null; then
  echo "chain accepted a malformed --threads value" >&2
  exit 1
fi

# Batched archive ingest: deposit files in parallel, then audit and
# retrieve them.
"$DASPOS" ingest "$WORK/archive" "smoke package" \
  "$WORK/z_gen.dspc" "$WORK/z_aod.dspc" "$WORK/z_reco.dspc" --threads=4 \
  | grep -q "ingested 3 file(s)"
"$DASPOS" holdings "$WORK/archive" | grep -q "smoke package"
"$DASPOS" audit "$WORK/archive" --threads=2 | grep -q "verdict: CLEAN"

# Fault tolerance: retries and a step timeout are accepted; a journaled run
# checkpoints every step, and resuming it re-executes nothing.
"$DASPOS" chain z_ll 10 7 2 --retries=2 --step-timeout=60 >/dev/null
"$DASPOS" chain z_ll 10 7 2 --journal="$WORK/run1" >/dev/null
grep -q '"step"' "$WORK/run1/journal.jsonl"
"$DASPOS" chain z_ll 10 7 2 --resume="$WORK/run1" | grep -q "resumed 5 step(s)"
# --resume lints the records resume itself reads: a stale checkpoint before
# a line resume rejects (no digest) draws W104, one after it does not.
mkdir -p "$WORK/run2"
{
  head -n 1 "$WORK/run1/journal.jsonl"
  echo '{"step":"stale_before","output":"x","digest":"d","config_hash":"c","bytes":1,"events":1}'
  echo '{"step":"no_digest","output":"y","config_hash":"c","bytes":1,"events":1}'
  echo '{"step":"stale_after","output":"z","digest":"d","config_hash":"c","bytes":1,"events":1}'
} >"$WORK/run2/journal.jsonl"
"$DASPOS" chain z_ll 10 7 2 --resume="$WORK/run2" >/dev/null 2>"$WORK/run2.err"
grep -q "W104.*stale_before" "$WORK/run2.err"
if grep -q "stale_after" "$WORK/run2.err"; then
  echo "chain --resume warned about a checkpoint resume never reads" >&2
  exit 1
fi
# Resume is keyed on each step's inputs. Seed 8 changes gen's and sim's
# configs but not reco's, aod's or derived's, so resuming seed 8 from a copy
# of seed 7's journal must re-run all five steps and journal what a fresh
# seed-8 run journals.
"$DASPOS" chain z_ll 50 7 --journal="$WORK/seed7" >/dev/null
cp -r "$WORK/seed7" "$WORK/seed8"
"$DASPOS" chain z_ll 50 8 --resume="$WORK/seed8" >"$WORK/seed8.out"
if grep -q "resumed" "$WORK/seed8.out"; then
  echo "a seed-8 resume restored checkpoints computed from seed 7" >&2
  exit 1
fi
"$DASPOS" chain z_ll 50 8 --journal="$WORK/fresh8" >/dev/null
for tier in reco aod derived; do
  want=$(grep "\"output\":\"$tier\"" "$WORK/fresh8/journal.jsonl" |
         sed 's/.*"digest":"\([0-9a-f]*\)".*/\1/')
  got=$(grep "\"output\":\"$tier\"" "$WORK/seed8/journal.jsonl" | tail -n 1 |
        sed 's/.*"digest":"\([0-9a-f]*\)".*/\1/')
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "resumed seed 8 journaled $tier '$got'; a fresh run '$want'" >&2
    exit 1
  fi
done
# Chaos mode: injected faults are reported, and with retries the chain
# still completes.
"$DASPOS" chain z_ll 10 7 2 --retries=50 --inject-faults=seed=3,rate=0.2 \
  | grep -q "fault injection:"

# Observability: --trace-out writes a Chrome trace_event JSON with one span
# per workflow step; chain --json adds the registry snapshot; and the
# metrics command emits Prometheus text exposition (with and without a
# workload, including the archive quarantine counter at zero).
"$DASPOS" chain z_ll 10 7 2 --trace-out="$WORK/trace.json" \
  | grep -q "span(s) written to"
grep -q '"displayTimeUnit":"ms"' "$WORK/trace.json"
grep -qF '"name":"step:reconstruction[reco]"' "$WORK/trace.json"
grep -q '"name":"workflow:execute"' "$WORK/trace.json"
"$DASPOS" chain z_ll 10 7 2 --json | grep -q '"metrics"'
if "$DASPOS" chain z_ll 10 7 2 --trace-out= 2>/dev/null; then
  echo "chain accepted an empty --trace-out path" >&2
  exit 1
fi
"$DASPOS" metrics | grep -q "daspos_archive_quarantines_total 0"
"$DASPOS" metrics | grep -q "# TYPE daspos_workflow_step_wall_ms histogram"
"$DASPOS" metrics z_ll 10 7 | grep -q "daspos_workflow_steps_total 5"

"$DASPOS" export "$WORK/z_reco.dspc" Atlas "$WORK/z_atlas.xml"
grep -q "JiveEvent" "$WORK/z_atlas.xml"
"$DASPOS" convert "$WORK/z_atlas.xml" Atlas CMS "$WORK/z_cms.ig"
grep -q "ig_file_version" "$WORK/z_cms.ig"

# Preservation linter: a clean description passes, warnings show up as
# findings (JSON included) without failing the default error threshold,
# and --fail-on=warning turns them into a non-zero exit for CI.
"$DASPOS" lint "$WORK/dimuon.lhada" | grep -q "1 artifact(s) clean"
cat > "$WORK/unused.lhada" <<'LHADA'
analysis smoke
object muons
  take muon
object jets
  take jet
cut dimuon
  select count(muons) >= 2
LHADA
"$DASPOS" lint "$WORK/unused.lhada" | grep -q "L005"
"$DASPOS" lint --json "$WORK/unused.lhada" | grep -q '"code": "L005"'
if "$DASPOS" lint --fail-on=warning "$WORK/unused.lhada" >/dev/null; then
  echo "lint --fail-on=warning ignored a warning finding" >&2
  exit 1
fi
# An archive whose quarantine area cannot be listed (a regular file stands
# where the directory belongs) must not lint clean: G002 and exit 1.
"$DASPOS" ingest "$WORK/qbroken" "quarantine smoke" "$WORK/dimuon.lhada" \
  >/dev/null
echo "not a directory" > "$WORK/qbroken/quarantine"
rc=0
"$DASPOS" lint "$WORK/qbroken" > "$WORK/qbroken.lint" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "G002" "$WORK/qbroken.lint"; then
  echo "lint passed an archive with an unreadable quarantine area" >&2
  exit 1
fi
# Reads never write. One flipped payload byte in a loose and in a pack
# store: audit (CORRUPTED, exit 1) and lint (A002 and neither A001 nor A006,
# exit 1, A002 naming exactly audit's CORRUPTED ids) give the same output on
# every run, and no file of the store changes. Lint takes the store spec and
# the bare directory (a pack store is sniffed); both lint the intact store
# clean.
tree_hash() { find "$1" -type f | sort | xargs sha256sum; }
for SPEC in "file:$WORK/rot_file" "pack:$WORK/rot_pack"; do
  ROOT="${SPEC#*:}"
  "$DASPOS" ingest "$SPEC" "rot smoke" "$WORK/dimuon.lhada" >/dev/null
  for LPATH in "$SPEC" "$ROOT"; do
    "$DASPOS" lint "$LPATH" | grep -q "1 artifact(s) clean"
  done
  BLOB=$(grep -rl "analysis smoke" "$ROOT" | head -n 1)
  AT=$(grep -boa "analysis smoke" "$BLOB" | head -n 1 | cut -d: -f1)
  printf 'X' | dd of="$BLOB" bs=1 seek="$AT" conv=notrunc 2>/dev/null
  BEFORE=$(tree_hash "$ROOT")
  for RUN in 1 2; do
    rc=0
    "$DASPOS" audit "$SPEC" > "$WORK/rot_audit.$RUN" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "^CORRUPTED" "$WORK/rot_audit.$RUN"; then
      echo "audit $RUN of $SPEC did not report CORRUPTED with exit 1" >&2
      exit 1
    fi
    N=0
    for LPATH in "$SPEC" "$ROOT"; do
      N=$((N + 1))
      OUT="$WORK/rot_lint.$RUN.$N"
      rc=0
      "$DASPOS" lint "$LPATH" > "$OUT" || rc=$?
      if [ "$rc" -ne 1 ] || ! grep -q "A002" "$OUT" ||
         grep -qE "A001|A006" "$OUT"; then
        echo "lint $RUN of $LPATH did not report A002 alone with exit 1" >&2
        exit 1
      fi
      # Audit and lint read one inventory: CORRUPTED ids are A002 subjects.
      sed -n 's/^CORRUPTED: //p' "$WORK/rot_audit.$RUN" | sort \
        > "$WORK/rot_corrupted"
      sed -n 's/.* A002: \([0-9a-f]*\): .*/\1/p' "$OUT" | sort \
        | diff "$WORK/rot_corrupted" -
    done
  done
  cmp "$WORK/rot_audit.1" "$WORK/rot_audit.2"
  cmp "$WORK/rot_lint.1.1" "$WORK/rot_lint.2.1"
  cmp "$WORK/rot_lint.1.2" "$WORK/rot_lint.2.2"
  if [ "$(tree_hash "$ROOT")" != "$BEFORE" ]; then
    echo "audit or lint changed the files of $SPEC" >&2
    exit 1
  fi
done

# Continuous-validation farm: capture a campaign into an archive, then
# re-execute the matrix (clean, with a journal, and under fault injection).
"$DASPOS" validate "$WORK/farm" --capture=smoke25 --process=z_ll \
  --events=25 --seed=9 --analyses=DASPOS_2014_ZLL \
  | grep -q "captured campaign 'smoke25'"
"$DASPOS" validate "$WORK/farm" | grep -q "verdict: PASS (1 pass, 0 warn, 0 fail)"
"$DASPOS" validate "$WORK/farm" --json --report="$WORK/vreport.json" \
  | grep -q '"verdict": "pass"'
grep -q '"chain_identical": true' "$WORK/vreport.json"
"$DASPOS" validate "$WORK/farm" --journal="$WORK/vjournal" >/dev/null
grep -q '"step"' "$WORK/vjournal/smoke25/journal.jsonl"
"$DASPOS" validate "$WORK/farm" --retries=50 --inject-faults=seed=3,rate=0.2 \
  | grep -q "fault injection:"
# An injected fault with no retry budget must fail the matrix (exit 1).
if "$DASPOS" validate "$WORK/farm" --inject-faults=nth=1 >/dev/null; then
  echo "validate passed despite an unretried injected fault" >&2
  exit 1
fi
"$DASPOS" validate "$WORK/farm" --prometheus="$WORK/vprom.txt" >/dev/null
grep -q "daspos_validation_pass_total" "$WORK/vprom.txt"
# An unreadable store must fail the audit, not pass vacuously.
echo "not a store" > "$WORK/notastore"
if "$DASPOS" audit "$WORK/notastore" >/dev/null 2>&1; then
  echo "audit passed over an unreadable store" >&2
  exit 1
fi

# Bit preservation: replicate an archive store across three roots, rot one
# replica on disk, and scrub — the pass must repair the rot and exit 0.
"$DASPOS" ingest "$WORK/rep0" "bit preservation" "$WORK/z_gen.dspc" >/dev/null
cp -r "$WORK/rep0" "$WORK/rep1"
cp -r "$WORK/rep0" "$WORK/rep2"
ROTTED=$(find "$WORK/rep1" -type f | head -1)
echo "bit rot" > "$ROTTED"
"$DASPOS" scrub "$WORK/rep0" "$WORK/rep1" "$WORK/rep2" \
  --cursor="$WORK/scrub-cursor" --report="$WORK/scrub.json" \
  | grep -q "1 repaired"
grep -q '"verdict": "pass"' "$WORK/scrub.json"
# A second pass over the healed replicas is clean and advances the pass
# counter (the cursor survived the first invocation).
"$DASPOS" scrub "$WORK/rep0" "$WORK/rep1" "$WORK/rep2" \
  --cursor="$WORK/scrub-cursor" | grep -q "scrub pass 2"
# A truncated pass exits 2 (warn) per the validate exit-code contract.
if "$DASPOS" scrub "$WORK/rep0" --max-objects=1 >/dev/null; then
  echo "truncated scrub exited 0 instead of warning" >&2
  exit 1
fi

# Generation migration: a fault-injected run dies mid-copy and preserves its
# state; the resumed run completes with every object verified and swaps the
# generation marker.
if "$DASPOS" migrate "$WORK/rep0" "$WORK/gen2" --batch=1 \
  --inject-faults=nth=2 >/dev/null 2>&1; then
  echo "fault-injected migrate claimed success" >&2
  exit 1
fi
"$DASPOS" migrate "$WORK/rep0" "$WORK/gen2" | grep -q "(resumed)"
grep -q '"generation": 1' "$WORK/gen2/migrate-state/GENERATION"
"$DASPOS" audit "$WORK/gen2" | grep -q "verdict: CLEAN"

# Packfile backend: repack the loose archive into (compressed) packfiles,
# audit it CLEAN through an explicit pack: spec AND through bare-path
# sniffing, and check retrieval is byte-identical to the loose original.
"$DASPOS" repack "$WORK/rep0" "$WORK/packed" --compress \
  | grep -q "packed .* object(s) into .* segment(s)"
test -f "$WORK/packed/segments/000000.seg"
test -f "$WORK/packed/segments/000000.idx"
"$DASPOS" audit "pack:$WORK/packed" | grep -q "verdict: CLEAN"
"$DASPOS" audit "$WORK/packed" | grep -q "verdict: CLEAN"  # sniffed
"$DASPOS" holdings "$WORK/packed" | grep -q "bit preservation"
mkdir -p "$WORK/outloose" "$WORK/outpack"
# Package ids are content-addressed, so re-ingesting the same title+file
# into a scratch store reveals the id to retrieve from both backends.
PKGID=$("$DASPOS" ingest "$WORK/idprobe" "bit preservation" \
  "$WORK/z_gen.dspc" | sed -n 's/.*as package \([0-9a-f]*\)$/\1/p')
"$DASPOS" retrieve "$WORK/rep0" "$PKGID" "$WORK/outloose" >/dev/null
"$DASPOS" retrieve "pack:$WORK/packed" "$PKGID" "$WORK/outpack" >/dev/null
cmp "$WORK/outloose/z_gen.dspc" "$WORK/outpack/z_gen.dspc"
# Torn-tail crash recovery: chop bytes off the segment log, drop the
# sidecar (as an interrupted append would), and the store must reopen,
# scrub back to health from a loose replica, and audit CLEAN again.
SEG="$WORK/packed/segments/000000.seg"
SIZE=$(wc -c < "$SEG")
dd if=/dev/null of="$SEG" bs=1 seek=$((SIZE - 7)) 2>/dev/null
rm -f "$WORK/packed/segments/000000.idx"
"$DASPOS" scrub "$WORK/rep0" "pack:$WORK/packed" | grep -q "repaired"
"$DASPOS" audit "pack:$WORK/packed" | grep -q "verdict: CLEAN"
# A typo'd backend scheme fails loudly instead of creating a directory.
if "$DASPOS" audit "pakc:$WORK/packed" >/dev/null 2>&1; then
  echo "audit accepted an unknown backend scheme" >&2
  exit 1
fi

# Malformed invocations: each must exit exactly 1 (an unknown flag on
# every flag-taking command, out-of-range numbers, a bad enum value).
expect_exit1() {
  rc=0
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "expected exit 1, got $rc: $*" >&2
    exit 1
  fi
}
expect_exit1 "$DASPOS" audit "$WORK/archive" --bogus
expect_exit1 "$DASPOS" ingest "$WORK/rejected" "title" "$WORK/z_gen.dspc" \
  --bogus
expect_exit1 "$DASPOS" lint --bogus "$WORK/dimuon.lhada"
expect_exit1 "$DASPOS" chain z_ll 10 7 --bogus
expect_exit1 "$DASPOS" validate "$WORK/farm" --bogus
expect_exit1 "$DASPOS" scrub "$WORK/rep0" --bogus
expect_exit1 "$DASPOS" migrate "$WORK/rep0" "$WORK/rejected-gen" --bogus
expect_exit1 "$DASPOS" repack "$WORK/rep0" "$WORK/rejected-pack" --bogus
expect_exit1 "$DASPOS" chain z_ll 10 7 --retries=1001
expect_exit1 "$DASPOS" chain z_ll 10 7 --step-timeout=-1
expect_exit1 "$DASPOS" chain z_ll 10 7 2 3  # one optional positional only
expect_exit1 "$DASPOS" lint --fail-on=bogus "$WORK/dimuon.lhada"
expect_exit1 "$DASPOS" scrub "$WORK/rep0" --batch=0
expect_exit1 "$DASPOS" scrub "$WORK/rep0" --rate=-1
expect_exit1 "$DASPOS" migrate "$WORK/rep0" "$WORK/rejected-gen" --batch=0
expect_exit1 "$DASPOS" validate "$WORK/farm" --warn-ks=-1
if [ -n "$DASPOSD" ]; then
  # The daemon rejects these before it binds a port.
  expect_exit1 "$DASPOSD" "pack:$WORK/rejected-store" --port=70000
  expect_exit1 "$DASPOSD" "pack:$WORK/rejected-store" --max-frame-mb=0
  expect_exit1 "$DASPOSD" "pack:$WORK/rejected-store" --bogus
fi

# Corrupt the dataset: inspect must refuse.
head -c 1000 "$WORK/z_gen.dspc" > "$WORK/broken.dspc"
if "$DASPOS" inspect "$WORK/broken.dspc" 2>/dev/null; then
  echo "inspect accepted a truncated container" >&2
  exit 1
fi

# Network service lifecycle (docs/OPERATIONS.md): start dasposd on an
# ephemeral port against a pack backend, round-trip put/get/verify
# byte-identically through `daspos connect`, then SIGTERM and assert a
# clean drain — exit 0 and no orphaned temp files left behind.
if [ -n "$DASPOSD" ]; then
  "$DASPOSD" "pack:$WORK/netstore" --port-file="$WORK/port.txt" \
    > "$WORK/dasposd.log" 2>&1 &
  DPID=$!
  i=0
  while [ ! -s "$WORK/port.txt" ] && [ $i -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
  done
  PORT=$(cat "$WORK/port.txt")
  ADDR="127.0.0.1:$PORT"
  grep -q "listening on $ADDR" "$WORK/dasposd.log"
  "$DASPOS" connect "$ADDR" ping | grep -q "pong"
  NETID=$("$DASPOS" connect "$ADDR" put "$WORK/z_gen.dspc" \
    | sed -n 's/^\([0-9a-f]\{64\}\).*/\1/p')
  test -n "$NETID"
  "$DASPOS" connect "$ADDR" get "$NETID" "$WORK/z_gen_back.dspc" >/dev/null
  cmp "$WORK/z_gen.dspc" "$WORK/z_gen_back.dspc"
  "$DASPOS" connect "$ADDR" verify "$NETID" | grep -q "verified"
  "$DASPOS" connect "$ADDR" stat > "$WORK/stat.json"
  grep -q '"backend": "pack"' "$WORK/stat.json"
  grep -Eq '"sha256_kernel": "(sha-ni|portable)"' "$WORK/stat.json"
  grep -Eq '^dasposd: sha256 kernel (sha-ni|portable)$' "$WORK/dasposd.log"
  kill -TERM "$DPID"
  DRAIN_RC=0
  wait "$DPID" || DRAIN_RC=$?
  if [ "$DRAIN_RC" -ne 0 ]; then
    echo "dasposd did not drain cleanly (exit $DRAIN_RC)" >&2
    cat "$WORK/dasposd.log" >&2
    exit 1
  fi
  grep -q "drained after" "$WORK/dasposd.log"
  if find "$WORK/netstore" -name '*.tmp' | grep -q .; then
    echo "dasposd drain left orphaned temp files in the store" >&2
    exit 1
  fi
fi

echo "cli smoke: OK"
