#!/bin/sh
# Run a fixed list of requests, each in a fresh process, and save each
# one's stdout in DIR; fail unless the rational backend is BACKEND.
#
#   .github/backend_requests.sh DIR BACKEND     (BACKEND: fractions|gmpy2)
set -eu
dir=$1
export PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1
python -c "from hodgehurwitz.exact_algebra import Rational
assert Rational.__module__.split('.')[0] == '$2', Rational.__module__"
mkdir -p "$dir"
python -m hodgehurwitz verify --suite all > "$dir/verify_all"
python -m hodgehurwitz verify --suite series --order 60 > "$dir/series_60"
python -m hodgehurwitz hodge --g 5 --indices 12 --method both > "$dir/hodge"
python -m hodgehurwitz table --g-max 4 --size-max 6 --check > "$dir/table"
python -m hodgehurwitz hurwitz --g 0 --mu 4,3,2 --method cross > "$dir/cross"
python -m hodgehurwitz table --g-max 1 --size-max 6 --include-genus-zero --check > "$dir/table_g0"
