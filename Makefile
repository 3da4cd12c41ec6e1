PYTHON ?= python

.PHONY: install test lint bench figures golden examples chaos chaos-service all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# sophon-lint is always available (stdlib-only) and BLOCKING, including
# the v2 cross-module rules (GUARD01-03, TNT01).  ruff and mypy run when
# installed (CI installs them); both are BLOCKING over their pyproject
# scopes -- ruff's widened select (E4/E7/E9/F/B) and mypy's files list
# (core, rpc, cluster, telemetry, service, analysis).  See ROADMAP.md for
# the remaining widening work.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else echo "ruff not installed; skipping (CI installs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else echo "mypy not installed; skipping (CI installs it)"; fi

#: Where `make bench` writes the offline perf report (exits non-zero
#: unless every production path is byte-identical to its reference).
BENCH_REPORT ?= BENCH.json

#: Where `make bench` writes the decision-service load report.
BENCH_SERVICE_REPORT ?= BENCH_service.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only
	PYTHONPATH=src $(PYTHON) -m repro.bench --million --out $(BENCH_REPORT)
	PYTHONPATH=src $(PYTHON) -m repro.service.loadgen --clients 4 --requests 25 \
		--seed 7 --out $(BENCH_SERVICE_REPORT)

figures:
	$(PYTHON) -m repro.cli --samples 2000 --seed 7 all

# Regenerate the results lock (tests/golden/*.txt).  Only for a
# deliberate change of results; say why in the change's notes.
golden:
	PYTHONPATH=src $(PYTHON) tests/golden/test_golden.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

#: Where `make chaos` drops its telemetry artifacts (JSONL event logs,
#: chrome traces, Prometheus text, decision audit).
TELEMETRY_DIR ?= artifacts/chaos-telemetry

chaos:
	PYTHONPATH=src $(PYTHON) -m repro.harness.chaos --samples 160 --seed 7 \
		--telemetry-dir $(TELEMETRY_DIR)

#: Where `make chaos-service` keeps each run's flight-recorder dump and
#: the traced run's replayable telemetry JSONL.
FLIGHT_DIR ?= artifacts/service-flight

# Crash-recovery gate for the decision service: kill it mid-script,
# restart on the same journal, and require byte-identical grants -- with
# tracing both off (chaos run) and on (traced run).
chaos-service:
	PYTHONPATH=src $(PYTHON) -m repro.harness.service_chaos --requests 24 --seed 7 \
		--flight-dir $(FLIGHT_DIR)

all: test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis artifacts
	find . -name __pycache__ -type d -exec rm -rf {} +
