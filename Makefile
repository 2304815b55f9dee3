# Development targets.  `make verify` is the gate: the full test suite,
# the import contract (what each entry point may load), the perf smoke
# benchmarks — which fail loudly when a cache/engine
# speedup regresses below its floor, a sharded run stops being
# byte-identical to sequential, or disabled tracing stops being (near)
# free — and a traced end-to-end extraction whose artifacts must
# validate against the checked-in schemas.  The campaign, obs and
# service benchmarks refresh the machine-readable BENCH_*.json
# files at the repo root, and bench-report folds them into one
# BENCH_report.json trajectory.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench bench-report trace-smoke service-smoke \
	import-check verify

test:
	$(PYTHON) -m pytest -x -q

bench-smoke:
	$(PYTHON) benchmarks/bench_pipeline.py --smoke
	$(PYTHON) benchmarks/bench_campaign.py --smoke
	$(PYTHON) benchmarks/bench_obs.py --smoke
	$(PYTHON) benchmarks/bench_service.py --smoke

bench:
	$(PYTHON) benchmarks/bench_pipeline.py
	$(PYTHON) benchmarks/bench_campaign.py
	$(PYTHON) benchmarks/bench_obs.py
	$(PYTHON) benchmarks/bench_service.py

# CI service smoke: boot a real repro-serve + two repro-worker
# processes, push 50 requests (25 duplicates), require dedup >= 0.5,
# every run done, byte-identical results, manifest equivalence via
# `repro-runs diff`, and a clean SIGTERM teardown.
service-smoke:
	$(PYTHON) benchmarks/bench_service.py --ci-smoke

bench-report:
	$(PYTHON) benchmarks/bench_report.py

# End-to-end trace smoke: run a traced, manifested extraction through
# the real CLI and validate every artifact it writes.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(PYTHON) -c "import sys; from repro.cli import main_extract; \
	sys.exit(main_extract(['--trace', '$$tmp/run.jsonl', \
	'--chrome-trace', '$$tmp/run.json', '--manifest', '$$tmp/manifest.json', \
	'--explain', 'sparse_super2']))" >/dev/null && \
	$(PYTHON) -c "from repro.obs import events, manifest; \
	n = events.validate_events_file('$$tmp/run.jsonl'); \
	assert events.validate_chrome_trace_file('$$tmp/run.json') == n; \
	m = manifest.load_manifest('$$tmp/manifest.json'); \
	assert m['tool'] == 'repro-extract' and m['report']['count'], m; \
	print(f'trace-smoke: OK ({n} spans, ' \
	      f'{m[\"report\"][\"count\"]} dependencies)')"

# Import contract: each entry point loads only the layers it runs
# (module sets in fresh interpreters, plus the serve/obs layering
# check), then each console script's repro.* module count.
import-check:
	$(PYTHON) -m pytest -q tests/test_import_graph.py tests/test_lazy_exports.py
	$(PYTHON) tests/test_import_graph.py

verify: test import-check bench-smoke bench-report trace-smoke
	@echo "verify: OK"
