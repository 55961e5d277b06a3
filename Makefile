# Canonical targets for the interface-synthesis reproduction.

PYTHON ?= python

.PHONY: install test coverage lint lint-examples absint-check validate-compiled defect-corpus profile bench bench-kernel bench-only reports examples explain-examples explore-examples sim-source-examples verify-all verify-examples clean

#: Line-coverage floor (percent) for the simulator and protocol
#: generator packages, enforced by `make coverage` and CI.
COV_FAIL_UNDER ?= 85

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

coverage:         ## coverage gate on repro.sim + repro.protogen
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null || \
		{ echo "pytest-cov is not installed; pip install -e .[dev]"; \
		  exit 1; }
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/ \
		--cov=repro.sim --cov=repro.protogen --cov=repro.analysis \
		--cov=repro.analysis.tv --cov=repro.explore \
		--cov-report=term-missing \
		--cov-fail-under=$(COV_FAIL_UNDER)

lint:             ## static protocol analysis on the built-in systems
	PYTHONPATH=src $(PYTHON) -m repro.cli lint flc
	PYTHONPATH=src $(PYTHON) -m repro.cli lint answering-machine
	PYTHONPATH=src $(PYTHON) -m repro.cli lint ethernet

lint-examples:    ## static protocol analysis on the example .spec files,
                  ## plus their --json output and an instrumented profile
	@for spec in examples/specs/*.spec; do \
		echo "== $$spec"; \
		PYTHONPATH=src $(PYTHON) -m repro.cli lint $$spec || exit 1; \
		PYTHONPATH=src $(PYTHON) -m repro.cli lint $$spec --json \
			| $(PYTHON) -m json.tool >/dev/null || exit 1; \
		PYTHONPATH=src $(PYTHON) -m repro.cli profile $$spec || exit 1; \
	done

absint-check:     ## soundness gate: static bounds vs simulated counts
	PYTHONPATH=src $(PYTHON) tools/absint_check.py

validate-compiled: ## translation-validation gate: proofs and backend
                   ## agreement
	PYTHONPATH=src $(PYTHON) tools/validate_compiled.py

defect-corpus:    ## every seeded defect of the analyzer, codegen,
                  ## cache and shared-proof corpora fires exactly its
                  ## codes, every control fires nothing
	PYTHONPATH=src $(PYTHON) -m repro.corpus

profile:          ## instrumented synth+sim sweep with stage breakdown
	PYTHONPATH=src $(PYTHON) -m repro.cli profile

bench:            ## full benchmark suite (asserts + tables)
	$(PYTHON) -m pytest benchmarks/

bench-kernel:     ## kernel benches + wall-time regression gate
	rm -rf benchmarks/reports/.baseline
	mkdir -p benchmarks/reports/.baseline
	cp benchmarks/reports/BENCH_*.json benchmarks/reports/.baseline/
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_kernel_scaling.py benchmarks/bench_three_systems.py benchmarks/bench_analysis.py benchmarks/bench_flight_overhead.py benchmarks/bench_compiled_backend.py benchmarks/bench_tv.py benchmarks/bench_explore.py benchmarks/bench_fault_overhead.py
	PYTHONPATH=src $(PYTHON) benchmarks/compare_baselines.py \
		--baseline benchmarks/reports/.baseline \
		--fresh benchmarks/reports

bench-only:       ## timed harnesses only
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

reports: bench    ## regenerate benchmarks/reports/*.txt

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex > /dev/null && echo OK; done

explain-examples: ## flight-recorder explanations of the built-in systems
	PYTHONPATH=src $(PYTHON) -m repro.cli explain flc
	PYTHONPATH=src $(PYTHON) -m repro.cli explain answering-machine
	PYTHONPATH=src $(PYTHON) -m repro.cli explain ethernet
	PYTHONPATH=src $(PYTHON) -m repro.cli explain flc --protection crc8
	PYTHONPATH=src $(PYTHON) -m repro.cli explain answering-machine \
		--protocol burst_handshake
	PYTHONPATH=src $(PYTHON) -m repro.cli explain flc --protocol fixed_delay

explore-examples: ## memoized design-space sweeps (with differential
                  ## cache proof) on the three case-study systems
	rm -rf observability/explore-cache
	PYTHONPATH=src $(PYTHON) -m repro.cli explore flc \
		--grid width=4,8,auto protection=none,parity,crc8 \
		--cache observability/explore-cache/flc --check
	PYTHONPATH=src $(PYTHON) -m repro.cli explore answering-machine \
		--grid width=4,8 arbitration=fifo,priority \
		--cache observability/explore-cache/answering-machine --check
	PYTHONPATH=src $(PYTHON) -m repro.cli explore ethernet \
		--grid width=8,16 protection=none,crc8 \
		--cache observability/explore-cache/ethernet --check

sim-source-examples: ## dump the compiled backend's generated Python
	PYTHONPATH=src $(PYTHON) -m repro.cli synth flc --simulate \
		--backend compiled --emit-sim-source observability/sim-source/flc
	PYTHONPATH=src $(PYTHON) -m repro.cli synth answering-machine \
		--simulate --backend compiled \
		--emit-sim-source observability/sim-source/answering-machine
	PYTHONPATH=src $(PYTHON) -m repro.cli synth ethernet --simulate \
		--backend compiled \
		--emit-sim-source observability/sim-source/ethernet
	PYTHONPATH=src $(PYTHON) -m repro.cli synth flc --protection parity \
		--simulate --backend compiled \
		--emit-sim-source observability/sim-source/flc-parity

verify-all:       ## verify every built-in system's refinement, and gcd's
	PYTHONPATH=src $(PYTHON) -m repro.cli synth flc --verify
	PYTHONPATH=src $(PYTHON) -m repro.cli synth answering-machine --verify
	PYTHONPATH=src $(PYTHON) -m repro.cli synth ethernet --verify
	PYTHONPATH=src $(PYTHON) -m repro.cli synth \
		examples/specs/gcd_accelerator.spec --simulate --verify

verify-examples:  ## temporal model checking on the built-in systems,
                  ## plus a witness write/replay round trip
	PYTHONPATH=src $(PYTHON) -m repro.cli verify flc
	PYTHONPATH=src $(PYTHON) -m repro.cli verify answering-machine
	PYTHONPATH=src $(PYTHON) -m repro.cli verify ethernet
	PYTHONPATH=src $(PYTHON) -m repro.cli verify flc --protection parity
	PYTHONPATH=src $(PYTHON) -m repro.cli verify flc --protection crc8
	PYTHONPATH=src $(PYTHON) -m repro.cli verify answering-machine \
		--protection parity
	PYTHONPATH=src $(PYTHON) -m repro.cli verify answering-machine \
		--protection crc8
	PYTHONPATH=src $(PYTHON) -m repro.cli verify ethernet --protection parity
	PYTHONPATH=src $(PYTHON) -m repro.cli verify ethernet --protection crc8
	rm -rf observability/witnesses
	PYTHONPATH=src $(PYTHON) -m repro.cli verify --mutate ack_never_raised \
		--witness-dir observability/witnesses; status=$$?; \
		test $$status -eq 1 || { echo "expected exit 1 (refuted), got $$status"; exit 1; }
	@for witness in observability/witnesses/*.json; do \
		echo "== replay $$witness"; \
		PYTHONPATH=src $(PYTHON) -m repro.cli verify --replay $$witness || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/reports
	find . -name __pycache__ -type d -exec rm -rf {} +
