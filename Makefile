# Convenience targets for the RAC reproduction.

PYTHON ?= python
REPRO = PYTHONPATH=src $(PYTHON) -m repro

.PHONY: install test test-fast bench bench-pairs ci-bench-smoke sweep-smoke live-smoke chaos-smoke campaign-smoke coalition-smoke scale-smoke topo-smoke report examples ci clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

test-fast:
	$(PYTHON) -m pytest tests/ --ignore=tests/integration/test_throughput_validation.py

bench:  # re-measure every row of benchmarks/baseline.py::GATES and rewrite BENCH_protocol.json
	PYTHONPATH=src $(PYTHON) benchmarks/baseline.py

PARENT ?= HEAD~1
WORKLOAD ?= sim-flood-40
N ?= 10
SEED ?= 20130708
bench-pairs:  # N alternating parent/change runs of one rac_bench workload: medians, quartiles, wins, every pair
	$(PYTHON) benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) --n $(N) --seed $(SEED)

ci-bench-smoke:  # re-measure every GATES row; fail one past its bound against BENCH_protocol.json (wall-clock rows host-normalised)
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_smoke.py -q

SWEEP_SMOKE = $(REPRO) sweep run --run-dir results/sweep_smoke \
	--experiment protocol --axis nodes=4,6 --seeds 0,1 --base duration=1.0 --base messages=1
CHAOS_SWEEP = results/sweep_smoke_chaos
sweep-smoke:  # 2x2 sweep on 2 workers with one injected crash; must recover, and re-entering it serially must run nothing; then one chaos cell crashed after its first checkpoint, resumed from it on attempt 2
	rm -rf results/sweep_smoke $(CHAOS_SWEEP)
	$(SWEEP_SMOKE) --workers 2 --checkpoint-interval 0.5 --inject-crash 1
	$(SWEEP_SMOKE) --serial | grep "4/4 cells ok"
	test `wc -l < results/sweep_smoke/results.jsonl` -eq 4
	$(REPRO) sweep status --run-dir results/sweep_smoke
	$(REPRO) sweep aggregate --run-dir results/sweep_smoke \
		--metric events_processed --by nodes
	$(REPRO) sweep run --run-dir $(CHAOS_SWEEP) --experiment chaos --axis plan=smoke \
		--base nodes=6 --base horizon=6 --workers 2 --checkpoint-interval 1.0 --inject-crash 1 | grep "1/1 cells ok"
	PYTHONPATH=src $(PYTHON) -c "from repro.orchestrator import open_run, run_cell_inline; \
		run = open_run('$(CHAOS_SWEEP)'); [cell] = run.grid.cells(); record = run.store.latest()[cell.cell_id]; \
		assert (record.status, record.attempts) == ('ok', 2), record; \
		assert record.metrics == run_cell_inline(cell).metrics, 'the resumed chaos cell moved its metrics'; \
		print('chaos cell ok on attempt 2, with the uninterrupted run\'s metrics')"

live-smoke:  # 8 live nodes over real TCP for ~10s, then 4 worker processes for ~4s, both judged by run_scenario; each: >=1 delivery, 0 evictions, 0 rejected/oversize frames, 0 dispatch errors
	$(REPRO) live demo --nodes 8 --duration 10 --check
	$(REPRO) live demo --subprocess --nodes 4 --duration 4 --check

chaos-smoke:  # seeded crash-restart + partition, then join -> split and leaves -> dissolve, on 6 live nodes, invariant-checked
	$(REPRO) chaos run --substrate live --plan smoke \
		--nodes 6 --horizon 15 --seed 0 --check
	$(REPRO) chaos run --substrate live --plan membership \
		--nodes 6 --horizon 12 --seed 0 --check

campaign-smoke:  # 2 strategies x 2 fault plans x 1 loss point, pool + injected crash
	rm -rf results/campaign_smoke
	$(REPRO) campaign run --run-dir results/campaign_smoke \
		--spec smoke --workers 2 --inject-crash 1
	$(REPRO) campaign report --run-dir results/campaign_smoke --check

coalition-smoke:  # 2 coordinated strategies x {none, storm}, 2-member sub-f*G coalition, crash-resumed
	rm -rf results/coalition_smoke
	$(REPRO) campaign run --run-dir results/coalition_smoke \
		--spec coalition-smoke --workers 2 --inject-crash 1
	$(REPRO) campaign report --run-dir results/coalition_smoke --check

scale-smoke:  # sharded N=64 on 2 workers == monolithic; pool and serial fingerprints identical; pool workers build their shards from the inputs the coordinator wrote, so this checks the parallel path
	rm -rf results/scale_smoke
	$(REPRO) scale run --run-dir results/scale_smoke/pool \
		--nodes 64 --shards 2 --seed 7 --horizon 2.0 --workers 2 --verify
	PYTHONPATH=src $(PYTHON) -c "import json; \
		from repro.orchestrator.sharded import load_sharded_manifest; \
		from repro.scenario import run_scenario; \
		scenario, shards, epoch = load_sharded_manifest('results/scale_smoke/pool'); \
		pool = [json.load(open('results/scale_smoke/pool/summary/shard%03d.json' % k))['fingerprint'] for k in range(shards)]; \
		serial = run_scenario(scenario, 'sharded', shards=shards, epoch=epoch, run_dir='results/scale_smoke/serial', serial=True).fingerprints[:-1]; \
		assert pool == serial, (pool, serial); \
		print('pool/serial shard fingerprints identical:', ' '.join(f[:16] for f in pool))"
	rm -rf results/scale_smoke

topo-smoke:  # wan-king on both substrates, invariant-checked, + lan==bare-star equivalence gate
	$(REPRO) topo verify
	$(REPRO) topo run --preset wan-king --substrate both \
		--nodes 6 --horizon 12 --seed 0 --check

report:
	$(REPRO) results make full_report

ci:  # what .github/workflows/ci.yml runs
	PYTHONPATH=src $(PYTHON) -m pytest -x -q --durations=20  # the 20 slowest tests, to show where tier-1 time goes
	$(REPRO) results check  # every pinned+fast results/*.txt rebuilt in memory, diffed against the committed file, gated
	$(MAKE) sweep-smoke
	$(MAKE) live-smoke
	$(MAKE) chaos-smoke
	$(MAKE) campaign-smoke
	$(MAKE) coalition-smoke
	$(MAKE) scale-smoke
	$(MAKE) topo-smoke
	$(MAKE) examples
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_smoke.py -q
	$(PYTHON) -m pytest benchmarks/rac_bench/tests -q  # the repo benchmark's self-tests: every layers.TARGETS path resolves
	$(PYTHON) benchmarks/rac_bench/run.py --workload sim-flood-40 --seconds 2 --trace 0  # one real workload; non-zero exit = failed operations or checks
	$(PYTHON) benchmarks/rac_bench/run.py --workload sim-storm-16 --seconds 2 --trace 0  # the loss path: retransmits, crash-restart outages, a silent relay convicted
	$(PYTHON) benchmarks/rac_bench/run.py --workload sim-onion-dh-12 --seconds 2 --trace 0  # DH onions: the only run of a trial peel that misses on the DH backend
	$(PYTHON) benchmarks/rac_bench/run.py --workload sharded-serial-256 --seconds 2 --trace 0  # jittered shards: the only run of snapshots and of the sequenced direct path
	$(PYTHON) benchmarks/rac_bench/run.py --workload sharded-serial-256 --seconds 2 --trace 1  # traced shards: rebinds every layers.TARGETS name the sharded path keeps for the benchmark
	$(PYTHON) benchmarks/rac_bench/run.py --workload live-loopback-8 --seconds 2 --trace 0  # live loopback: the only run of LiveCluster.shutdown -> LiveReport as the benchmark reads it

examples:  # every examples/*.py through the public API (system.evicted, stats_report(), ...)
	for ex in examples/*.py; do echo "=== $$ex ==="; PYTHONPATH=src $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis test_output.txt results/sweep_smoke results/sweep_smoke_chaos results/campaign_smoke results/coalition_smoke results/scale_smoke
	find . -name __pycache__ -type d -exec rm -rf {} +
