PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-micro scenarios-smoke audit-gate audit-tiers spine-pairs

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The repo's one benchmark (BENCHMARK.json, benchmarks/spine/README.md): five
# workloads, an untraced and a traced pass each, checked answers.
bench:
	$(PYTHON) benchmarks/spine/run.py

# The two micro-benches that attribute what the spine cannot: per-type codec
# encode/decode ns/op, and the event-queue / recSA broadcast-round /
# delivery-path inner loops (needs pytest-benchmark).
bench-micro:
	$(PYTHON) benchmarks/bench_codec.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_hotpath.py -q

# CI gate: every registered scenario once, seed 0, on a two-worker pool,
# nonzero exit on failure; then the three examples, each of which ends by
# asserting what it claims.
scenarios-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.scenarios --smoke --workers 2
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/quickstart.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/replicated_state_machine.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/shared_storage_under_churn.py

# The fast audit matrices (python -m repro.audit --list): smoke (57 runs:
# static schedulers x 2 corruption seeds, every dynamic adversary, SMR stacks
# with smr_agreement armed, the labels stack, two Byzantine cases), byzantine
# (18 runs: traitor programs against the reliable-broadcast stacks) and
# profiles (24 runs: every corruption intensity).  Each certifies, then fails when it lost a pinned
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
