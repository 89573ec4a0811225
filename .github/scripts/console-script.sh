#!/usr/bin/env bash
# Runs the installed `trisym` console script: `molecules`, then `linelist` in
# every format, checking that stdout and --out write the same bytes.
set -euo pipefail
trisym molecules
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for format in text csv json; do
  args="linelist --molecule bh3 --band nu3 --jmax 5 --beta 0.3 --format $format"
  trisym $args > "$dir/stdout.$format"
  trisym $args --out "$dir/out.$format"
  test -s "$dir/out.$format"
  cmp "$dir/stdout.$format" "$dir/out.$format"
done
