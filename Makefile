PYTHON ?= python
export PYTHONPATH := src:$(PYTHONPATH)

.PHONY: test benchmarks bench bench-smoke specs-smoke store-smoke avf-smoke avf-golden kernel-smoke batch-smoke chaos-smoke serve-smoke serve-chaos-smoke claims-default

test:
	$(PYTHON) -m pytest tests -q

benchmarks:
	$(PYTHON) -m pytest benchmarks -q

# Record/append performance baselines (writes BENCH_pipeline.json / BENCH_ga.json).
bench:
	$(PYTHON) -m repro bench

# Tier-2 perf regression gate: fails if the simulator regresses >30% vs the
# recorded BENCH_pipeline.json baseline (see PERFORMANCE.md).
bench-smoke:
	REPRO_PERF_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_perf_simulator.py -m perf_smoke -q

# Tier-2 spec-file gate: validate + run every examples/specs/*.json through
# the declarative run API at quick scale (see EXPERIMENTS.md).
specs-smoke:
	REPRO_SPECS_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_specs_smoke.py -m specs_smoke -q

# Tier-2 persistence gate: run -> interrupt -> resume -> byte-compare against
# an uninterrupted run, plus the shard/merge CLI round trip (EXPERIMENTS.md).
store-smoke:
	REPRO_STORE_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_store_smoke.py -m store_smoke -q

# Tier-2 accounting gate: rerun the small-scale workload matrix on the
# default single-program path (the vector plane) and byte-compare
# per-structure AVF / group SER against the checked-in golden
# (benchmarks/golden_avf.json; see ARCHITECTURE.md).
avf-smoke:
	REPRO_AVF_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_avf_smoke.py -m avf_smoke -q

# Regenerate the AVF golden from the interpreted oracle — only for INTENTIONAL
# accounting changes.
avf-golden:
	$(PYTHON) -c "from repro.avf.goldens import write_golden; write_golden()"

# Tier-2 kernel gate: the golden workload matrix as vector-plane populations
# vs the interpreted loop (named explicitly), byte for byte and against the
# golden, plus a same-run vector-over-interpreter speedup floor vs
# BENCH_pipeline.json (see PERFORMANCE.md and ARCHITECTURE.md, "Kernel lifecycle").
kernel-smoke:
	REPRO_KERNEL_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_kernel_smoke.py -m kernel_smoke -q

# Tier-2 population-plane gate: population AVF/SER byte-identical between
# the vector plane and the interpreter, plus a same-run vector-over-
# interpreter speedup floor (max of 4.43x and the first BENCH_ga.json
# baseline -30%; see PERFORMANCE.md and ARCHITECTURE.md, "Batch evaluation
# plane").
batch-smoke:
	REPRO_BATCH_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_batch_smoke.py -m batch_smoke -q

# Tier-2 claims gate at `default` scale (12k-op stressmarks and workloads,
# GA 16 x 15): Table 3's ordering (best program < stressmark <= raw circuit,
# baseline > rhc > edr), the Fig. 3/4 margins and Fig. 6's "the stressmark
# exceeds every workload" on ROB/LQ/SQ, which tier-1 checks at `quick` (see
# PERFORMANCE.md for its wall time).
claims-default:
	REPRO_BENCH_SCALE=default $(PYTHON) -m pytest benchmarks/test_table3_worstcase_estimation.py benchmarks/test_fig3_spec_baseline.py benchmarks/test_fig4_mibench_baseline.py benchmarks/test_fig6_workload_avf.py -q

# Tier-2 fault-tolerance gate: a jobs=4 GA under injected worker kills and a
# torn store write must finish byte-identical to a clean serial run, with
# retries/restarts recorded in provenance (see ARCHITECTURE.md, "Failure
# semantics").
chaos-smoke:
	REPRO_CHAOS_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_chaos_smoke.py -m chaos_smoke -q

# Tier-2 evaluation-service gate: a real `repro serve` daemon subprocess must
# serve every example spec byte-identical to a local Session run, survive
# three concurrent clients mixing duplicate/unique/cancelled submissions,
# answer store hits without queueing, and shut down cleanly — exit code 0,
# `repro fsck` clean, no temp debris (see EXPERIMENTS.md).
serve-smoke:
	REPRO_SERVE_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_serve_smoke.py -m serve_smoke -q

# Tier-2 durable-service gate: a daemon SIGKILLed with >=4 queued + 1 running
# job, restarted on the same store + journal, must lose zero digests and serve
# every result byte-identical to a clean local run; chaos-hung evaluations
# must be quarantined by the watchdog (daemon exit code 3); random connection
# drops must be survived by client reconnect/failover (see EXPERIMENTS.md,
# "Failure semantics").
serve-chaos-smoke:
	REPRO_SERVE_CHAOS_SMOKE=1 $(PYTHON) -m pytest benchmarks/test_serve_chaos_smoke.py -m serve_chaos_smoke -q
