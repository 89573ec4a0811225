#!/usr/bin/env bash
# Runs the installed `trisym` console script: every subcommand must exit 0
# with output, `linelist` in every format must write the same bytes to
# stdout and to --out, and `classify` and `molecules` must not import numpy.
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Runs `trisym "$@"` and requires exit 0 and a non-empty stdout.
succeeds() {
  trisym "$@" > "$dir/stdout"
  test -s "$dir/stdout"
}

succeeds molecules
succeeds molecules --dump nh3
succeeds classify --molecule nh3 --J 3 --K 3 --species s
succeeds classify --molecule bh3 --J 2 --K 1 --I 3/2 --format json
succeeds energies --molecule so3 --jmax 5 --format csv
for show in table projectors; do
  succeeds group --show "$show"
done

for format in text csv json; do
  args="linelist --molecule bh3 --band nu3 --jmax 5 --beta 0.3 --format $format"
  trisym $args > "$dir/stdout.$format"
  trisym $args --out "$dir/out.$format"
  test -s "$dir/out.$format"
  cmp "$dir/stdout.$format" "$dir/out.$format"
done

# The console script's own import, with the arguments it gets; numpy would
# show as a row of -X importtime's report on stderr.
for args in "classify --molecule so3 --J 3 --K 3" "molecules --dump so3"; do
  python -X importtime -c "from trisym.cli import main; main()" $args \
    > /dev/null 2> "$dir/importtime"
  if grep -qE '\| +numpy$' "$dir/importtime"; then
    echo "trisym $args imported numpy" >&2
    exit 1
  fi
done
