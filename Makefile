# Convenience targets; the canonical CI entry point is `make check`.

.PHONY: all check test gate compile-bench bench profile-smoke heap-smoke clean

all:
	dune build

check: all
	dune runtest
	$(MAKE) profile-smoke
	$(MAKE) heap-smoke

test: check

# profiler smoke: profile a micro workload under heap-growth pacing with
# a soft limit low enough that the tiny heap still cycles (and degrades,
# covering the degrade-don't-die path), then gate the result against
# itself (must be a clean no-regression pass)
profile-smoke:
	dune exec bin/satbelim.exe -- profile --workload micro-expand \
	  --soft-limit 24 --json PROFILE_micro.json
	dune exec bin/satbelim.exe -- profile --workload micro-expand \
	  --soft-limit 24 --baseline PROFILE_micro.json
	dune exec bench/main.exe -- diff PROFILE_micro.json PROFILE_micro.json

# observatory smoke: the full heap report (census, dominator retention,
# per-collector barrier float) on db, snapshot export, and a self-diff
# (must report no census change)
heap-smoke:
	dune exec bin/satbelim.exe -- heap --workload db --top 5 \
	  --snapshot HEAP_db.json
	dune exec bin/satbelim.exe -- heap diff HEAP_db.json HEAP_db.json

# regression gate (what CI runs): regenerate every BENCH_*.json artifact,
# then diff each committed baseline in bench/baseline/ against its fresh
# counterpart; the first failing diff fails the target
gate:
	dune exec bench/main.exe -- table1 quick --json
	for f in bench/baseline/BENCH_*.json; do \
	  dune exec bench/main.exe -- diff $$f $$(basename $$f) || exit 1; \
	done

# compile throughput: a short closed-loop jit-compile run (Exp.compile of
# the six Table-1 programs at inline limits 100 and 200 and 0+summaries);
# appends its end-to-end record to bench/perf/out/ci/runs.jsonl
compile-bench:
	dune exec ./bench/perf/perf.exe -- run --workload jit-compile --seed 1 \
	  --seconds 3 --out bench/perf/out/ci

# full reproduction: every table/figure plus the bechamel timings
bench:
	dune exec bench/main.exe

clean:
	dune clean
