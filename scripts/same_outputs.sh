#!/usr/bin/env bash
# Check that two source trees of this project write and print the same
# bytes: usage `scripts/same_outputs.sh PARENT_TREE CHANGE_TREE`.
#
# Generates MNIST-shaped IDX files with perfbench/synth.py (--seed 3, 3000
# training and 2500 test rows), then runs the same commands with each
# tree's sources, from one working directory and into a relative out dir
# (a checkpoint's config echo stores the out dir as given):
#   train --n-hidden 1, 2 and 3 (3 with --l2 9e-5, it has no default),
#   train-ref --n-hidden 0, 1 and 2, all for 2 epochs at --seed 7;
#   train --n-hidden 2 for 1 epoch, resumed to 2;
#   eval and detach-eval --drop-layers 1 of the train --n-hidden 2 run;
#   nsn verify.
# Every checkpoint, metrics.csv and best.csv, and each command's stdout and
# exit status, are then compared with `diff -r`; the script exits non-zero
# on any difference. Runs on one BLAS thread, as training expects.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

PYTHONPATH="$change/src" python3 "$change/perfbench/synth.py" --seed 3 \
  --out "$work/data" --train 3000 --test 2500 > /dev/null

# run TREE NAME ARGS...: one command of TREE, its stdout and exit status
# kept under out/NAME.
run() {
  local tree=$1 name=$2 status=0
  shift 2
  PYTHONPATH="$tree/src" python3 -m nsn.cli "$@" > "out/$name.stdout" \
    || status=$?
  echo "$status" > "out/$name.status"
}

outputs_of() {
  local tree=$1 common=(--epochs 2 --seed 7 --data-dir "$work/data")
  mkdir -p "$work/cwd/out"
  cd "$work/cwd"
  for n in 1 2; do
    run "$tree" "train-$n" train --n-hidden "$n" "${common[@]}" \
      --out-dir "out/train-$n"
  done
  run "$tree" train-3 train --n-hidden 3 --l2 9e-5 "${common[@]}" \
    --out-dir out/train-3
  for n in 0 1 2; do
    run "$tree" "train-ref-$n" train-ref --n-hidden "$n" "${common[@]}" \
      --out-dir "out/train-ref-$n"
  done
  run "$tree" resume-1 train --n-hidden 2 --epochs 1 --seed 7 \
    --data-dir "$work/data" --out-dir out/resume
  run "$tree" resume-2 train --n-hidden 2 "${common[@]}" --out-dir out/resume \
    --resume out/resume/checkpoint_final.nsn
  run "$tree" eval eval --checkpoint out/train-2/checkpoint_final.nsn \
    --data-dir "$work/data"
  run "$tree" detach-eval detach-eval \
    --checkpoint out/train-2/checkpoint_final.nsn --data-dir "$work/data" \
    --drop-layers 1
  run "$tree" verify verify
  cd "$work"
  mv "$work/cwd/out" "$2"
}

outputs_of "$parent" "$work/parent"
outputs_of "$change" "$work/change"
if diff -r "$work/parent" "$work/change"; then
  echo "same outputs: $(find "$work/change" -type f | wc -l) files"
else
  echo "outputs differ" >&2
  exit 1
fi
