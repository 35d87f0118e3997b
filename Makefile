# Tier-1 verification entry points. `make ci` is what the CI runs:
# build, tests, docs (skipped when odoc is not installed — the build
# container does not ship it), and the changelog check.

.PHONY: all build test bench bench-snapshot bench-check perfbench smoke service-sim obs-parity nemesis nemesis-disk nemesis-bases bases-sim wal-compat doc changelog ci

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Append the next BENCH_<n>.json snapshot (per-experiment timings, obs
# counters, instrumentation-overhead trio). Non-gating: timings are
# machine-dependent, so this is a trajectory to eyeball, not a check.
bench-snapshot:
	@n=1; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	dune exec bench/main.exe -- --snapshot BENCH_$$n.json

# Gate the two newest committed snapshots against each other: fail when
# any experiment regressed by more than 25% after median-ratio
# machine-speed normalization (see tools/bench_diff.ml). No-op with
# fewer than two snapshots.
bench-check:
	@snaps=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -2); \
	set -- $$snaps; \
	if [ $$# -lt 2 ]; then \
		echo "bench-check: fewer than two BENCH_<n>.json snapshots, skipping"; \
	else \
		dune exec tools/bench_diff.exe -- $$1 $$2; \
	fi

# The repository benchmark (perfbench/, declared by BENCHMARK.json):
# each workload once, untraced, at the declared 30 s run length, the
# way the regression pipeline runs it. Non-gating and not part of `ci`:
# the figures depend on the machine. Takes about two minutes; the
# result JSON is the last line of each run's output.
perfbench:
	for w in fleet-local fleet-hot replica-cluster; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

# End-to-end smoke of the tracing/forensics surface: a traced merge must
# produce a loadable Chrome trace, and explain must produce valid JSON.
# Outputs go under the checkout's _build/ci, so two checkouts can run
# their gates at once.
smoke: build
	mkdir -p _build/ci
	dune exec bin/repro_cli.exe -- merge --seed 1 --trace-out _build/ci/repro_trace.json > /dev/null
	dune exec bin/repro_cli.exe -- validate-json --chrome _build/ci/repro_trace.json
	dune exec bin/repro_cli.exe -- explain --seed 1 --format=json > _build/ci/repro_explain.json
	dune exec bin/repro_cli.exe -- validate-json _build/ci/repro_explain.json

# Concurrent merge-service smoke: a 2k-mobile fleet served on 2 domains
# must finish with zero ground-truth violations, dispatch at least one
# window in parallel, match the single-domain baseline bit for bit, and
# reach a 1.5x cost-model speedup (exits 1 otherwise).
service-sim: build
	dune exec bin/repro_cli.exe -- service-sim --mobiles 2000 --shards 8 --domains 2 \
		--min-speedup 1.5 --expect-parallel --seed 7

# Telemetry parity gate: the same 2k-mobile fleet served on 1 and 4
# domains must produce identical merged deterministic metrics
# (metrics-diff on the --metrics=json snapshots) and byte-identical
# logical-clock Chrome traces. This is the exactness contract of the
# sharded Obs registries. Outputs go under _build/ci, as for smoke.
obs-parity: build
	mkdir -p _build/ci
	dune exec bin/repro_cli.exe -- service-sim --mobiles 2000 --shards 8 --domains 1 \
		--no-baseline --seed 7 --metrics=json --trace-out _build/ci/repro_parity_d1.trace.json \
		--trace-clock=logical > _build/ci/repro_parity_d1.json 2> /dev/null
	dune exec bin/repro_cli.exe -- service-sim --mobiles 2000 --shards 8 --domains 4 \
		--no-baseline --seed 7 --metrics=json --trace-out _build/ci/repro_parity_d4.trace.json \
		--trace-clock=logical > _build/ci/repro_parity_d4.json 2> /dev/null
	dune exec bin/repro_cli.exe -- metrics-diff _build/ci/repro_parity_d1.json _build/ci/repro_parity_d4.json
	cmp _build/ci/repro_parity_d1.trace.json _build/ci/repro_parity_d4.trace.json
	@echo "obs-parity: logical-clock traces byte-identical across domain counts"

# Fixed-seed fault sweep: merge sessions over random fault schedules must
# complete exactly-once or abort with the base untouched (exits 1 on any
# violation).
nemesis:
	dune exec bin/repro_cli.exe -- nemesis --count 50 --seed 2026

# Combined disk+network sweep: every case also persists the base WAL
# through a fault-injecting disk (torn/short writes, bit flips, read
# truncation, fsync lies) and must detect every corruption, recover a
# verified prefix, and salvage exactly the longest valid durable prefix
# (exits 1 on any violation).
nemesis-disk:
	dune exec bin/repro_cli.exe -- nemesis --disk --count 200 --seed 2026

# Multi-base fault sweep: random clusters of replica bases under mobile
# sessions, anti-entropy exchanges, base-from-base partitions, asymmetric
# links and base crash/restarts must heal to identical stable state at
# every base with zero phantom commits and a serializable committed
# sequence (exits 1 on any violation).
nemesis-bases:
	dune exec bin/repro_cli.exe -- nemesis-bases --count 200 --seed 2026

# Multi-base smoke: one 3-base cluster with partitions on must converge
# with zero violations.
bases-sim: build
	dune exec bin/repro_cli.exe -- bases-sim --bases 3 --mobiles 3 --ops 30 \
		--base-partition-rate 0.4 --seed 2026

# Cross-format WAL gate: the golden fixture corpus (v2 and v3, clean
# and damaged) must scrub to its pinned classifications, salvage to
# clean images, and wal-migrate must turn the clean v2 fixture into the
# v3 one byte for byte (see docs/STORAGE.md).
wal-compat: build
	sh tools/wal_compat.sh

doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc; \
	else \
		echo "doc: odoc not installed, skipping dune build @doc"; \
	fi

changelog:
	sh tools/check_changes.sh

ci: build test nemesis nemesis-disk nemesis-bases bases-sim smoke service-sim obs-parity wal-compat bench-check doc changelog
	@echo "ci: ok"
