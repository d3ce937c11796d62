# Convenience targets for the RAC reproduction.

PYTHON ?= python

.PHONY: install test test-fast bench bench-pairs ci-bench-smoke sweep-smoke live-smoke chaos-smoke campaign-smoke coalition-smoke scale-smoke pubsub-smoke topo-smoke report examples ci clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

test-fast:
	$(PYTHON) -m pytest tests/ --ignore=tests/integration/test_throughput_validation.py

bench:  # refresh BENCH_protocol.json, live frame cost included (~3 min)
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py

PARENT ?= HEAD~1
WORKLOAD ?= sim-flood-40
N ?= 10
SEED ?= 20130708
bench-pairs:  # N alternating parent/change runs of one rac_bench workload: medians, quartiles, wins, every pair
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) --n $(N) --seed $(SEED)

ci-bench-smoke:  # fail if seal/peel, DH trial-peel, shard-snapshot, bare-engine or per-segment cost regressed >2x vs BENCH_protocol.json at its host speed, a storm packet costs >2.2 events, a 0.3 s flood window runs >60 cycle-collector passes, or a sealed DH layer tried by 24 keys costs >1 full-length pow
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_smoke.py -q

SWEEP_SMOKE = PYTHONPATH=src $(PYTHON) -m repro sweep run --run-dir results/sweep_smoke \
	--experiment protocol --axis nodes=4,6 --seeds 0,1 --base duration=1.0 --base messages=1
sweep-smoke:  # 2x2 sweep on 2 workers with one injected crash; must recover, and re-entering it serially must run nothing
	rm -rf results/sweep_smoke
	$(SWEEP_SMOKE) --workers 2 --checkpoint-interval 0.5 --inject-crash 1
	$(SWEEP_SMOKE) --serial | grep "4/4 cells ok"
	test `wc -l < results/sweep_smoke/results.jsonl` -eq 4
	PYTHONPATH=src $(PYTHON) -m repro sweep status --run-dir results/sweep_smoke
	PYTHONPATH=src $(PYTHON) -m repro sweep aggregate --run-dir results/sweep_smoke \
		--metric events_processed --by nodes

live-smoke:  # 8 live nodes over real TCP for ~10s; >=1 delivery, 0 evictions, 0 rejected/oversize frames, 0 dispatch errors
	PYTHONPATH=src $(PYTHON) -m repro live demo --nodes 8 --duration 10 --check

chaos-smoke:  # seeded crash-restart + partition on a 6-node live cluster, invariant-checked
	PYTHONPATH=src $(PYTHON) -m repro chaos run --substrate live --plan smoke \
		--nodes 6 --horizon 15 --seed 0 --check

campaign-smoke:  # 2 strategies x 2 fault plans x 1 loss point, pool + injected crash
	rm -rf results/campaign_smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign run --run-dir results/campaign_smoke \
		--spec smoke --workers 2 --inject-crash 1
	PYTHONPATH=src $(PYTHON) -m repro campaign report --run-dir results/campaign_smoke --check

coalition-smoke:  # 2 coordinated strategies x {none, storm}, 2-member sub-f*G coalition, crash-resumed
	rm -rf results/coalition_smoke
	PYTHONPATH=src $(PYTHON) -m repro campaign run --run-dir results/coalition_smoke \
		--spec coalition-smoke --workers 2 --inject-crash 1
	PYTHONPATH=src $(PYTHON) -m repro campaign report --run-dir results/coalition_smoke --check

scale-smoke:  # sharded N=64 on 2 workers == monolithic; pool and serial fingerprints identical
	rm -rf results/scale_smoke
	PYTHONPATH=src $(PYTHON) -m repro scale run --run-dir results/scale_smoke/pool \
		--nodes 64 --shards 2 --seed 7 --horizon 2.0 --workers 2 --verify
	PYTHONPATH=src $(PYTHON) -c "import json; \
		from repro.orchestrator.sharded import load_sharded_manifest, run_sharded; \
		spec, _ = load_sharded_manifest('results/scale_smoke/pool'); \
		pool = [json.load(open('results/scale_smoke/pool/summary/shard%03d.json' % k))['fingerprint'] for k in range(spec.num_shards)]; \
		serial = run_sharded(spec, 'results/scale_smoke/serial', serial=True).shard_fingerprints; \
		assert pool == serial, (pool, serial); \
		print('pool/serial shard fingerprints identical:', ' '.join(f[:16] for f in pool))"
	rm -rf results/scale_smoke

pubsub-smoke:  # live pub/sub: dynamic join -> split, leaves -> dissolve, 0 evictions, delivery parity
	PYTHONPATH=src $(PYTHON) -m repro pubsub bench --nodes 6 --seed 0 --check

topo-smoke:  # wan-king on both substrates, invariant-checked, + lan==bare-star equivalence gate
	PYTHONPATH=src $(PYTHON) -m repro topo verify
	PYTHONPATH=src $(PYTHON) -m repro topo run --preset wan-king --substrate both \
		--nodes 6 --horizon 12 --seed 0 --check

report:
	PYTHONPATH=src $(PYTHON) -m repro results make full_report

ci:  # what .github/workflows/ci.yml runs
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	PYTHONPATH=src $(PYTHON) -m repro results check  # every pinned+fast results/*.txt rebuilt in memory, diffed against the committed file, gated
	$(MAKE) sweep-smoke
	$(MAKE) live-smoke
	$(MAKE) chaos-smoke
	$(MAKE) campaign-smoke
	$(MAKE) coalition-smoke
	$(MAKE) scale-smoke
	$(MAKE) pubsub-smoke
	$(MAKE) topo-smoke
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_smoke.py -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_scale.py -q
	$(PYTHON) -m pytest benchmarks/rac_bench/tests -q  # the repo benchmark's self-tests: every layers.TARGETS path resolves
	$(PYTHON) benchmarks/rac_bench/run.py --workload sim-flood-40 --seconds 2 --trace 0  # one real workload; non-zero exit = failed operations or checks

examples:
	for ex in examples/*.py; do echo "=== $$ex ==="; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis test_output.txt results/sweep_smoke results/campaign_smoke results/coalition_smoke results/scale_smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
