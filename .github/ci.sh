#!/bin/sh
# The steps of .github/workflows/tests.yml, one command list per step, so
# that the workflow and a machine without network access run the same
# commands.  Run from the root of a checkout:
#
#   sh .github/ci.sh STEP       run one step, as the workflow does
#   sh .github/ci.sh offline    run every step that needs no download, in
#                               the workflow's order, each in a fresh
#                               process; name each step it skips
#
# RUNNER_TEMP, set on a CI runner, defaults to a new temporary directory
# that is removed on exit.
set -eu

if [ -z "${RUNNER_TEMP:-}" ]; then
    RUNNER_TEMP=$(mktemp -d)
    trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
export RUNNER_TEMP

# every step in the workflow's order; a step marked ":pip" installs a
# package, or needs one installed, and offline skips it
STEPS="install:pip tier1 digests perfbench oracle requests cache backend-fractions
install-gmpy2:pip backend-gmpy2:pip tier1-gmpy2:pip"

case ${1:-} in
install)
    python -m pip install pytest hypothesis
    ;;
tier1)
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
    ;;
digests)
    # a fresh table filled to complexity 13 by each method must equal the
    # one pinned table; the tier-1 tests pin complexity 12
    PYTHONPATH=src python - <<'PY'
import hashlib
import json
import sys

from hodgehurwitz.hodge_solver import HodgeTable

for method in ("cutjoin", "bm", "both"):
    rows = HodgeTable().fill_to_complexity(13, method=method).to_rows()
    digest = hashlib.md5(json.dumps(rows).encode()).hexdigest()
    print(f"digests: {method} to complexity 13: {len(rows)} rows, "
          f"md5 {digest}")
    if (len(rows), digest) != (5955, "50a62fe448cd89ec5b9808337bd5e06e"):
        sys.exit(f"digests: {method} differs from the pinned table")
PY
    ;;
perfbench)
    python -m pytest perfbench -q
    ;;
oracle)
    # the benchmark's oracle script imports library names and keywords;
    # rewritten by this checkout, the oracle must equal the committed one
    PYTHONPATH=src python perfbench/make_oracle.py
    git diff --exit-code perfbench/oracle.json
    ;;
requests)
    # each in a fresh process: a missing import in a module loaded on
    # first use fails only where no earlier call has loaded it; the
    # order-60 series suite is the largest whole solve of s(t) and
    # v(t), the residues suite runs the kernels that read them, and the
    # next two are the dvv suite and the dearest request at the
    # complexity ceiling; the last two compare Hurwitz routes, by
    # cross and by table --check
    export PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1
    python -m hodgehurwitz verify --suite all
    python -m hodgehurwitz verify --suite all --order 60
    python -m hodgehurwitz verify --suite series --order 60
    python -m hodgehurwitz verify --suite residues
    python -m hodgehurwitz hodge --g 1 --indices 1
    python -m hodgehurwitz verify --suite dvv --complexity-budget 15
    python -m hodgehurwitz hodge --g 5 --indices 19,0,0,0,0,0,0 --method both --complexity-budget 15
    python -m hodgehurwitz hurwitz --g 2 --mu 5,5,3,2,2 --method cross
    python -m hodgehurwitz table --g-max 2 --size-max 4 --check
    ;;
cache)
    # the second request reads what the first wrote to the cache file
    export PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1
    export HURWITZ_REC_CACHE="$RUNNER_TEMP/cache"
    mkdir -p "$HURWITZ_REC_CACHE"
    python -m hodgehurwitz hodge --g 3 --indices 3,3,2 --method both > "$RUNNER_TEMP/first"
    python -m hodgehurwitz hodge --g 3 --indices 3,3,2 --method both > "$RUNNER_TEMP/second"
    cmp "$RUNNER_TEMP/first" "$RUNNER_TEMP/second"
    test -f "$HURWITZ_REC_CACHE/hodge-both.json"
    ;;
backend-fractions)
    # the gmpy2 and fractions backends must print the same bytes
    .github/backend_requests.sh "$RUNNER_TEMP/fractions" fractions
    ;;
install-gmpy2)
    python -m pip install gmpy2
    ;;
backend-gmpy2)
    .github/backend_requests.sh "$RUNNER_TEMP/gmpy2" gmpy2
    for f in verify_all series_60 hodge table cross table_g0; do
      cmp "$RUNNER_TEMP/fractions/$f" "$RUNNER_TEMP/gmpy2/$f"
    done
    ;;
tier1-gmpy2)
    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
    ;;
offline)
    ran=0 skipped=0
    for step in $STEPS; do
        case $step in
        *:pip)
            echo "ci.sh offline: skipped ${step%:pip} (needs pip or gmpy2)"
            skipped=$((skipped + 1))
            ;;
        *)
            echo "ci.sh offline: step $step"
            sh "$0" "$step" || {
                echo "ci.sh offline: step $step failed"
                exit 1
            }
            ran=$((ran + 1))
            ;;
        esac
    done
    echo "ci.sh offline: $ran steps passed, $skipped skipped"
    ;;
*)
    echo "usage: sh .github/ci.sh STEP|offline; STEP is one of:" >&2
    echo "$STEPS" | tr ' ' '\n' | sed 's/:pip$//' >&2
    exit 2
    ;;
esac
