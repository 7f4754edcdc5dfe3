#!/usr/bin/env bash
# Smoke-run the e2e benchmark: all four workloads at two slices each
# (< 20 s in total), then the same under the online invariant checkers.
# Exits non-zero on any failed op, verification error or checker
# violation.  Wall-clock and CPU columns are printed but gate nothing.
set -euo pipefail
cd "$(dirname "$0")/../.."
python3 benchmarks/e2e/run.py --smoke
python3 benchmarks/e2e/run.py --verify
