PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-micro scenarios-smoke audit-gate audit-tiers audit-warm-check spine-pairs

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The repo's one benchmark (BENCHMARK.json, benchmarks/spine/README.md): five
# workloads, an untraced and a traced pass each, checked answers.
bench:
	$(PYTHON) benchmarks/spine/run.py

# The two micro-benches that attribute what the spine cannot: per-type codec
# encode/decode ns/op against the JSON reference, and the event-queue / recSA
# broadcast-round / delivery-path inner loops (needs pytest-benchmark).
bench-micro:
	$(PYTHON) benchmarks/bench_codec.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_hotpath.py -q

# CI gate: every registered scenario once, seed 0, nonzero exit on failure;
# then the three examples, each of which ends by asserting what it claims.
scenarios-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.scenarios --smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/quickstart.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/replicated_state_machine.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/shared_storage_under_churn.py

# The fast audit matrices (python -m repro.audit --list): smoke (54 runs:
# static schedulers x 2 corruption seeds, every dynamic adversary, SMR stacks
# with smr_agreement armed, two Byzantine cases), byzantine (18 runs: traitor
# programs against the reliable-broadcast stacks) and profiles (24 runs: every
# corruption intensity).  Each certifies, then fails when it lost a pinned
# case or run, or its worst-case stabilization time regressed >25% against
# matrices.<name> of benchmarks/audit_baseline.json (re-pin: docs/audit.md).
audit-gate:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix smoke --workers 4 --output AUDIT_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix byzantine --workers 4 --output AUDIT_byzantine.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix profiles --workers 4 --output AUDIT_profiles.json

# The large-topology tiers, gated the same way: n24 (paper_faithful config,
# two dynamic adversaries, corruption at t=120 after bootstrap convergence)
# and n128 (coherent start with fd_gap_slack=2n, full-state and channel-only
# corruption at t=20).
audit-tiers:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix n24 --workers 4 --output AUDIT_n24.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix n128 --workers 2 --output AUDIT_n128.json

# Warm-cache CI check: the smoke matrix twice against one shared cache
# directory — the second run must answer >= 90% of cells from the store with
# verdicts byte-identical to the first (python -m repro.audit.store check).
audit-warm-check:
	rm -rf .audit_cache_ci
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix smoke --workers 4 --cache-dir .audit_cache_ci --output AUDIT_smoke_cold.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --matrix smoke --workers 4 --cache-dir .audit_cache_ci --output AUDIT_smoke_warm.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.store check AUDIT_smoke_warm.json --against AUDIT_smoke_cold.json --min-hit-rate 0.9
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.store stats --cache-dir .audit_cache_ci

# The paired protocol behind every claimed gain: `git archive` BASE and CHANGE
# (default HEAD; `git stash create` names an uncommitted tree) into a scratch
# directory, run the spine benchmark on each PAIRS times with the first side
# alternating, count the pairs the change won and hand the result files to
# benchmarks/spine/compare.py --layers.
#   make spine-pairs BASE=<rev> [CHANGE=<rev>] [WORKLOAD=<name>] [PAIRS=10]
PAIRS ?= 10
CHANGE ?= HEAD
spine-pairs:
	$(if $(BASE),,$(error BASE=<rev> is required))
	$(PYTHON) benchmarks/spine_pairs.py --base $(BASE) --change $(CHANGE) --pairs $(PAIRS) $(if $(WORKLOAD),--workload $(WORKLOAD))
