PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench bench-quick bench-matrix bench-pytest bench-scale bench-codec bench-loadgen loadgen-baseline bench-cache bench-history runtime-smoke scenarios scenarios-smoke audit-smoke audit-gate audit-baseline audit-byzantine audit-n24 audit-n24-baseline audit-n128 audit-n128-baseline audit-n512-smoke audit-profile-grid audit-shrink-demo audit-warm-check spine-pairs

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Full perf trajectory: writes BENCH_pr9.json at the repository root.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --tag pr9

# Smoke run (<60s) for CI: scalability + hotpath + scenario-matrix scenarios.
bench-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --quick --tag pr9

# The large-topology throughput curve (PR 7 scale push): fixed-window event
# cost at n=24..256 plus bootstrap-to-convergence where tractable, with the
# pre-PR7 baseline embedded for the before/after comparison.
bench-scale:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --only scale_curve --tag pr7

# Matrix-throughput timing only (cold bootstrap-per-run vs warm prefix
# snapshots, runs/sec): the audit job runs this and uploads the JSON next to
# the AUDIT_*.json verdicts so sweep wall-clock is tracked per commit.
bench-matrix:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --quick --only matrix_throughput --output AUDIT_matrix_timing.json

# Live-runtime CI smoke: boot an n=8 asyncio/UDP cluster on localhost,
# require bootstrap convergence, kill a node (survivors must evict it),
# restart it as a joiner (must be re-admitted) — all inside one wall-clock
# budget.  Exit 1 on any missed milestone.
runtime-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.runtime --smoke --n 8 --budget 60

# Codec microbenchmark: every hot wire type through the binary wire format
# and the tagged-JSON reference encoding, ns/op + frame bytes + speedup.
# Writes the dev-path artifact; the committed trail lives in BENCH_pr9.json.
bench-codec:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --only codec_micro --output BENCH_dev_codec.json

# Closed-loop load generator against the live asyncio runtime: client
# sessions driving counter increments and SMR commands, a mid-run
# kill/recover probe, and the clients-axis sweep (multi-process drivers
# above 32 clients).  Writes BENCH_pr9.json and fails if counters ops/s
# drops below 75% of the checked-in baseline.
bench-loadgen:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.runtime.loadgen --mode both --kill-probe --duration 8 --clients 16 --sweep-clients 16,32,64,128,256 --baseline benchmarks/loadgen_baseline.json --tag pr9 --output BENCH_pr9.json

# Re-pin the loadgen throughput baseline after a deliberate perf change
# (quick single-point run; copies the counters number into the baseline).
loadgen-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.runtime.loadgen --mode counters --duration 8 --clients 16 --tag baseline --output BENCH_dev_loadgen.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import json; r=json.load(open('BENCH_dev_loadgen.json')); c=r['modes']['counters']; json.dump({'bench':'loadgen_baseline','counters_ops_s':c['throughput_ops_s'],'clients':c['clients'],'n':c['n'],'note':'re-pin via make loadgen-baseline'},open('benchmarks/loadgen_baseline.json','w'),indent=2)"

# Persistent sweep cache cold-vs-warm timing (PR 10 headline): the smoke
# matrix certified twice against a fresh store — the warm pass must be >= 5x
# faster with byte-identical deterministic verdicts — plus the incremental
# extension leg (new corruption seeds resuming disk-warm prefixes).
bench-cache:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/run_bench.py --only sweep_cache --tag pr10

# Collate every committed BENCH_pr*.json into one perf-trajectory table
# (BENCH_history.md + BENCH_history.json at the repository root).
bench-history:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.history

# The pytest-benchmark experiment suite (E1-E12 + hotpath micro-benches).
bench-pytest:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/bench_scalability.py benchmarks/bench_hotpath.py -q

# The declarative scenario library: 4-seed sweep on 4 workers.
scenarios:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.scenarios --seeds 0:4 --workers 4

# CI gate: every registered scenario once, seed 0, nonzero exit on failure;
# then the three examples, each of which ends by asserting what it claims.
scenarios-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.scenarios --smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/quickstart.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/replicated_state_machine.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/shared_storage_under_churn.py

# Adversarial audit matrix: static schedulers x 2 corruption seeds + the
# dynamic adversaries + SMR-stack cases with smr_agreement armed + two
# Byzantine traitor cases, 3 sim seeds each (54 runs); verdict JSON written
# for the CI artifact upload.
audit-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --smoke --workers 4 --output AUDIT_smoke.json

# Byzantine matrix: f < n/3 traitors running every registered behavior
# against the Bracha/Dolev reliable-broadcast stacks and the adaptive
# coordinator-traitor against vs_smr_rb, with rb_agreement / rb_validity /
# smr_agreement armed (18 runs).
audit-byzantine:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --byzantine --workers 4 --output AUDIT_byzantine.json

# Convergence-bound regression gate: fail when the smoke matrix's worst-case
# stabilization time regresses >25% vs the checked-in baseline.
audit-gate: audit-smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_smoke.json --baseline benchmarks/audit_baseline.json

# Re-pin the baseline after a deliberate convergence-bound change.
audit-baseline: audit-smoke
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_smoke.json --baseline benchmarks/audit_baseline.json --refresh

# The large-topology tier: n=24, paper_faithful config, two dynamic
# adversaries, corruption at t=120 (after bootstrap convergence at ~t=83).
# Tractable because of the sweep engine: warm prefix snapshots share each
# adversary's bootstrap across corruption seeds (or cold-parallel workers
# take over when idle cores outnumber the fan-out).
audit-n24:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n24 --workers 4 --output AUDIT_n24.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n24.json --tier n24 --baseline benchmarks/audit_baseline.json

# Re-pin the n24 tier's bounds (preserves the smoke bounds).
audit-n24-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n24 --workers 4 --output AUDIT_n24.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n24.json --tier n24 --baseline benchmarks/audit_baseline.json --refresh

# The scale tier: n=128, coherent start with fd_gap_slack=2n, full-state
# ("default") and channel-only corruption at t=20 under one static and one
# dynamic adversary — certifies re-convergence of a converged 128-processor
# system and gates its stabilization bound (tiers.n128 in the baseline).
audit-n128:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n128 --workers 2 --output AUDIT_n128.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n128.json --tier n128 --baseline benchmarks/audit_baseline.json

# Re-pin the n128 tier's bounds (preserves the smoke and n24 bounds).
audit-n128-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit --tier n128 --workers 2 --output AUDIT_n128.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.audit.gate AUDIT_n128.json --tier n128 --baseline benchmarks/audit_baseline.json --refresh

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
