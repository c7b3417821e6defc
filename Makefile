PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-micro scenarios-smoke audit-gate audit-byzantine audit-n24 audit-n128 audit-n512-smoke audit-profile-grid audit-shrink-demo audit-warm-check spine-pairs

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

# Byzantine matrix: f < n/3 traitors running every registered behavior
# against the Bracha/Dolev reliable-broadcast stacks and the adaptive
# coordinator-traitor against vs_smr_rb, with rb_agreement / rb_validity /
# smr_agreement armed (18 runs).
audit-byzantine:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --byzantine --workers 4 --output AUDIT_byzantine.json

# Adversarial audit matrix + convergence-bound regression gate: static
# schedulers x 2 corruption seeds + the dynamic adversaries + SMR-stack cases
# with smr_agreement armed + two Byzantine traitor cases, 3 sim seeds each
# (54 runs, verdicts in AUDIT_smoke.json); fails when the worst-case
# stabilization time regresses >25% vs the checked-in baseline (re-pin, here
# and for the tiers below: docs/audit.md).
audit-gate:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --smoke --workers 4 --output AUDIT_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_smoke.json --baseline benchmarks/audit_baseline.json

# The large-topology tier: n=24, paper_faithful config, two dynamic
# adversaries, corruption at t=120 (after bootstrap convergence at ~t=83).
# Tractable because of the sweep engine: warm prefix snapshots share each
# adversary's bootstrap across corruption seeds (or cold-parallel workers
# take over when idle cores outnumber the fan-out).
audit-n24:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n24 --workers 4 --output AUDIT_n24.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n24.json --tier n24 --baseline benchmarks/audit_baseline.json

# The scale tier: n=128, coherent start with fd_gap_slack=2n, full-state
# ("default") and channel-only corruption at t=20 under one static and one
# dynamic adversary — certifies re-convergence of a converged 128-processor
# system and gates its stabilization bound (tiers.n128 in the baseline).
audit-n128:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n128 --workers 2 --output AUDIT_n128.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n128.json --tier n128 --baseline benchmarks/audit_baseline.json

# Soft n=512 smoke: coherent cluster, 2-sim-unit window; reports event counts
# and wall clock, fails only on a dead cluster (never on timing).
audit-n512-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --scale-smoke 512 --output AUDIT_n512_smoke.json

# Stabilization-time distributions per named CorruptionProfile (every entry
# of repro.audit.arbitrary_state.PROFILES unless --profiles narrows it).
audit-profile-grid:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --profile-grid --workers 4 --seeds 0:2 --output AUDIT_profile_grid.json

# Demonstrate reproducer shrinking against a deliberately broken invariant.
audit-shrink-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --demo-shrink --output AUDIT_shrink_demo.json

# Warm-cache CI check: the smoke matrix twice against one shared cache
# directory — the second run must answer >= 90% of cells from the store with
# verdicts byte-identical to the first (python -m repro.audit.store check).
audit-warm-check:
	rm -rf .audit_cache_ci
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --smoke --workers 4 --cache-dir .audit_cache_ci --output AUDIT_smoke_cold.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --smoke --workers 4 --cache-dir .audit_cache_ci --output AUDIT_smoke_warm.json
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
