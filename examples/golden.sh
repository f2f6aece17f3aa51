#!/usr/bin/env bash
# Golden stdout for every example.
#
#   examples/golden.sh           check every run against examples/golden/
#   examples/golden.sh --bless   rewrite examples/golden/ from the runs
#
# A golden file holds the stdout of one group: runs that must print the
# same bytes, such as an example's default run and its 4-worker run.
# Check mode fails a run that exits nonzero or whose stdout differs from
# its group's file by a single byte. Bless mode writes each group's file
# from the group's first run and checks the group's other runs against
# it; it refuses to bless a run that exits nonzero. Only stdout is
# compared: abort_resume and seven_month_study print worker-dependent
# telemetry to stderr.
set -euo pipefail

cd "$(dirname "$0")/.."
bin=${CARGO_TARGET_DIR:-target}/release/examples

bless=false
case "${1-}" in
  "") ;;
  --bless) bless=true ;;
  *)
    echo "usage: $0 [--bless]" >&2
    exit 2
    ;;
esac

# One run per line: group, example, arguments (seed, workers, weeks).
# A group's runs are listed together; --bless writes from the first.
runs='
internet_scan                   internet_scan
internet_scan                   internet_scan        2020 4
hostile_sweep                   hostile_sweep
hostile_sweep                   hostile_sweep        2020 4
abort_resume                    abort_resume
abort_resume                    abort_resume         2020 4
multi_protocol_audit            multi_protocol_audit
multi_protocol_audit            multi_protocol_audit 2020 4
seven_month_study               seven_month_study
seven_month_study               seven_month_study    2020 4
deployment_audit                deployment_audit
deployment_audit                deployment_audit     2020 1
deployment_audit                deployment_audit     2020 4
quickstart                      quickstart
cert_hygiene                    cert_hygiene
factory_telemetry               factory_telemetry
paper_figures                   paper_figures
million_host_study              million_host_study
seven_month_study_6wk           seven_month_study    2020 1 6
seven_month_study_6wk           seven_month_study    2020 4 6
million_host_study_4wk_1worker  million_host_study   2020 1 4
million_host_study_4wk_4workers million_host_study   2020 4 4
'

cargo build --locked --release --examples

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

failed=0
prev=
while read -r group example args; do
  [ -n "$group" ] || continue
  file=examples/golden/$group.txt
  run="$example${args:+ $args}"
  first=false
  [ "$group" = "$prev" ] || first=true
  prev=$group
  # $args is split on purpose: it is the example's argument list.
  # shellcheck disable=SC2086
  if ! "$bin/$example" $args </dev/null >"$tmp/stdout"; then
    echo "FAIL  $run: exited nonzero"
    failed=1
  elif $bless && $first; then
    cp "$tmp/stdout" "$file"
    echo "bless $run -> $file"
  elif diff -u "$file" "$tmp/stdout" >"$tmp/diff"; then
    echo "ok    $run"
  else
    echo "FAIL  $run: stdout differs from $file"
    cat "$tmp/diff"
    failed=1
  fi
done <<<"$runs"

if [ "$failed" -ne 0 ]; then
  echo "golden output check failed"
  exit 1
fi
