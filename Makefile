PY      ?= python
SEEDS   ?= 25
# Checkout `make perf` compares this one against (e.g. a clone of the parent commit).
BASE    ?=

.PHONY: test conformance fuzz ft ft-mp bench perf lb trace-demo trace-demo-mp

test:
	PYTHONPATH=src $(PY) -m pytest -q

# The cross-backend CMI conformance battery: every registered machine
# layer (the simulator and, where the platform supports it, the real
# multiprocess layer) must pass the identical contract tests.
conformance:
	PYTHONPATH=src $(PY) -m pytest -q -m conformance

# The schedule-fuzzing harness: every workload in tests/faults under a
# sweep of $(SEEDS) hostile fault plans (drop/dup/delay/reorder/corrupt).
# Each seed is a fully deterministic run — re-run a failing test id to
# reproduce its failure exactly.
fuzz:
	PYTHONPATH=src $(PY) -m pytest tests/faults -q --seeds=$(SEEDS)

# Fault-tolerance gate: the whole-PE crash-fault seed sweep (recovery
# must reproduce the fault-free result exactly) plus the recovery
# latency gate (virtual time, 2,000 us ceiling).
ft:
	PYTHONPATH=src $(PY) -m pytest -q --seeds=$(SEEDS) \
		tests/faults/test_ft_crash.py \
		tests/faults/test_node_crash.py \
		tests/faults/test_crash_validation.py
	PYTHONPATH=src $(PY) -m repro.bench gate ft

# Real-process fault-tolerance gate: the same crash sweep's mp legs
# (reduced seed count — each run SIGKILLs a real worker process and
# recovers over sockets), the mp-only robustness tests (structured
# WorkerDied, permanent-crash drain, pool defaults), and the measured
# respawn-to-recovered latency under a generous wall-clock ceiling
# (500 ms; skipped with a note where the mp layer is unavailable).
ft-mp:
	PYTHONPATH=src $(PY) -m pytest -q --seeds=5 -k mp \
		tests/faults/test_ft_crash.py \
		tests/faults/test_fuzz_workloads.py \
		tests/faults/test_mp_faults.py
	PYTHONPATH=src $(PY) -m repro.bench gate ft-mp

bench:
	PYTHONPATH=src $(PY) -m pytest benchmarks/ --benchmark-only

# Load-balancing gate: the skewed hot-key workload (everything created
# on PE 0) under every headline Cld strategy.  Fails unless the
# feedback-driven strategies (adaptive, steal) hold busy-time imbalance
# at or below 1.5 and beat direct's makespan by at least 1.5x — on a
# run where direct really is pathological (imbalance > 3).  Then the
# Cld strategy ablation and the cross-backend Cld conformance slice.
lb:
	PYTHONPATH=src $(PY) -m repro.bench gate lb
	PYTHONPATH=src $(PY) -m pytest -q tests/loadbalance \
		tests/machine/conformance/test_cld.py

# The repository benchmark (BENCHMARK.json, perfbench/README.md): this
# checkout against the checkout in $(BASE), ten alternating pairs of
# runs, compare.py verdicts per workload and metric (~30 min).
perf:
	@test -n "$(BASE)" || { echo "usage: make perf BASE=<checkout of the commit to compare against>" >&2; exit 2; }
	$(PY) perfbench/run.py --against $(BASE)

# Run a small traced + metered demo workload and emit the observability
# artifact set: trace-demo.jsonl (raw trace), trace-demo.chrome.json
# (open in ui.perfetto.dev) and trace-demo.metrics.json, plus a text
# report with handler profiles and the critical path on stdout.
trace-demo:
	PYTHONPATH=src $(PY) -m repro.trace demo -o trace-demo

# The same demo on the multiprocess layer: per-PE spools merged into
# trace-demo-mp.jsonl (clock-aligned, causally repaired), the per-PE
# spool files and clock sidecar left beside it, and the merged
# per-worker metrics snapshot — the distributed-observability smoke.
trace-demo-mp:
	PYTHONPATH=src $(PY) -m repro.trace demo --machine-backend mp \
		-o trace-demo-mp
