#!/usr/bin/env bash
# Runs the installed `trisym` console script on invocations it must reject:
# each exits 1 with exactly one line on stderr, and no traceback.
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# Runs `trisym "$@"`, requires exit 1 and one stderr line, and leaves that
# line in $dir/err.
rejected() {
  local code=0
  trisym "$@" 2> "$dir/err" || code=$?
  cat "$dir/err"
  test "$code" -eq 1
  test "$(wc -l < "$dir/err")" -eq 1
}

big="$dir/big.yaml"  # B_cm1 a 400-digit integer
sed "s/^B_cm1: .*/B_cm1: 1$(printf '0%.0s' $(seq 400))/" \
  src/trisym/configs/so3.yaml > "$big"
origin="$dir/origin.yaml"  # line frequencies past the float maximum
sed -e "s/^B_cm1: .*/B_cm1: 1.0e+306/" -e "s/^C_cm1: .*/C_cm1: 1.0e+306/" \
  -e "s/origin_cm1: 1125.0/origin_cm1: 1.79e+308/" \
  src/trisym/configs/bh3.yaml > "$origin"
for molecule in missing.yaml "$big" "$origin"; do
  rejected linelist --molecule "$molecule" --band nu2 --jmax 3 --beta 0.3
done

# a jmax past the memory budget, rejected before any array is built
for command in "energies --molecule so3" "linelist --molecule nh3 --band nu3"; do
  rejected $command --jmax 100000
done

# a negative jmax: one rule, so one message from both subcommands
rejected energies --molecule so3 --jmax -1
cp "$dir/err" "$dir/energies.err"
rejected linelist --molecule nh3 --band nu3 --jmax -1
cmp "$dir/energies.err" "$dir/err"

# a band name holding a NUL, the CSV writer's padding byte: the band rule
# rejects the config before any command reads it
nul="$dir/nul.yaml"
sed 's/{name: nu2,/{name: "nu\\0x",/' src/trisym/configs/so3.yaml > "$nul"
grep -qF '"nu\0x"' "$nul"
rejected linelist --molecule "$nul" --band nu2 --jmax 3
rejected molecules --dump "$nul"

# temperatures the thermal sums reject: every Boltzmann factor underflows to
# a partition function of 0, or an s-species factor below the unsplit level
# overflows
rejected linelist --molecule bh3 --band nu3 --temp 1e-3
grep -q "partition function is 0" "$dir/err"
rejected linelist --molecule nh3 --band nu2 --jmax 5 --temp 1e-4
grep -q "Boltzmann factors not finite" "$dir/err"
