#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash msbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so the last
# line of stdout is the benchmark's JSON result.
#
# The run is pinned to the first CPU it may use, when taskset can do so.
# On a shared virtual machine, whether the kernel puts serve-mixed's
# client and daemon on one virtual CPU or two changes its round trips by
# tens of percent from one run to the next; pinned, every run is alike.
set -euo pipefail
dune build --root . --display quiet ./msbench/main.exe 1>&2
exe=./_build/default/msbench/main.exe
cpu=$( (taskset -cp $$ 2>/dev/null || true) | sed -n 's/.*: *\([0-9]*\).*/\1/p')
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "$exe" "$@"
fi
exec "$exe" "$@"
