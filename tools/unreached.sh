#!/bin/bash
# Lists the functions in src/ that no shipped program reaches.
#
#   tools/unreached.sh BUILD_DIR
#
# Builds the shipped programs (daspos, dasposd, the benches in bench/, the
# examples in examples/) into BUILD_DIR and perfbench into
# BUILD_DIR/perfbench, at -O0 with one section per function and data object
# and linked with --gc-sections, so a binary keeps only what it can reach.
# Tests are not built and do not count. Then prints, sorted and unique, the
# base name (signature stripped) of every daspos:: function that a
# libdaspos_*.a defines out of line (a text symbol) and no shipped binary
# keeps. Inline functions, which every user emits as a weak symbol, and
# template instantiations are left out; a lambda counts as its enclosing
# function.
#
# The list depends on the compiler's inlining and emission choices at -O0:
# tools/unreached.txt, the committed list, was made with g++ 12.2.0.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

if [ $# -ne 1 ]; then
  echo "usage: tools/unreached.sh BUILD_DIR" >&2
  exit 2
fi
BUILD="$1"
JOBS=${JOBS:-$(nproc)}

FLAGS=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
BENCHES=(bench_table1_outreach bench_tier_reduction bench_rivet_vs_recast
         bench_maturity bench_workflow_provenance bench_archive
         bench_conditions bench_reco bench_ablation bench_observability)
EXAMPLES=(quickstart masterclass_zpeak recast_reinterpretation
          rivet_validation archive_curation pheno_analysis_database)

# Every library src/ declares, linked by a shipped program or not.
mapfile -t LIBRARIES < <(grep -ho 'add_library(daspos_[a-z0-9_]*' \
                           "$ROOT"/src/*/CMakeLists.txt | sed 's/^add_library(//')

{
  cmake -S "$ROOT" -B "$BUILD" "${FLAGS[@]}"
  cmake --build "$BUILD" -j"$JOBS" --target daspos_cli dasposd \
    "${BENCHES[@]}" "${EXAMPLES[@]}" "${LIBRARIES[@]}"
  cmake -S "$ROOT/perfbench" -B "$BUILD/perfbench" "${FLAGS[@]}"
  cmake --build "$BUILD/perfbench" -j"$JOBS" --target perfbench
} >&2

LIBS=()
for name in "${LIBRARIES[@]}"; do
  lib=$(find "$BUILD/src" -name "lib$name.a")
  if [ -z "$lib" ]; then
    echo "unreached.sh: lib$name.a was not built" >&2
    exit 1
  fi
  LIBS+=("$lib")
done

BINARIES=("$BUILD/tools/daspos" "$BUILD/tools/dasposd" "$BUILD/perfbench/perfbench")
for name in "${BENCHES[@]}"; do BINARIES+=("$BUILD/bench/$name"); done
for name in "${EXAMPLES[@]}"; do BINARIES+=("$BUILD/examples/$name"); done

# Out-of-line functions (text symbols), demangled, one per line.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[Tt]$/ { sub(/^[^ ]+ [^ ]+ /, ""); print }'
}

python3 - <(functions "${LIBS[@]}" | sort -u) \
          <(functions "${BINARIES[@]}" | sort -u) <<'EOF'
import re
import sys

ANON = "(anonymous namespace)"
# Operators whose spelling holds an angle bracket.
OPERATOR = re.compile(r"operator(<=>|<<=|>>=|->\*|<<|>>|<=|>=|->|<|>)")

def base_name(symbol):
    """The symbol up to its first top-level '(', or None for a template."""
    operators = []
    def hide(match):
        operators.append(match.group(0))
        return "\1"
    text = OPERATOR.sub(hide, symbol.replace(ANON, "\0"))
    depth = 0
    for i, c in enumerate(text):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            text = text[:i]
            break
    if "<" in text:
        return None
    for operator in operators:
        text = text.replace("\1", operator, 1)
    return text.replace("\0", ANON)

defined = set(open(sys.argv[1]).read().splitlines())
kept = set(open(sys.argv[2]).read().splitlines())
names = {base_name(s) for s in defined - kept if s.startswith("daspos::")}
names.discard(None)
for name in sorted(names):
    print(name)
EOF
