.PHONY: install test results examples golden-check golden-record golden-validate goldens-rerecord clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

golden-check:
	python -m repro golden check

# Record brand-new pins (stamps an initial provenance block).
golden-record:
	python -m repro golden record

# Cheap header audit of every pin: format version, stored-value digest,
# provenance chain.  Runs no producer.
golden-validate:
	python -m repro golden validate

# Provenance-tracked re-record of every pin (trace goldens and value pins:
# run-verb reports, runs, searches, fleet layouts) after an intentional
# behaviour change:
#   make goldens-rerecord REASON="why the store moves" [TAG=pr<N>-slug]
# Chains each replaced digest into the pin's provenance header and prints
# one migration report of per-pin deltas (see docs/determinism.md).
goldens-rerecord:
	@test -n "$(REASON)" || { echo 'usage: make goldens-rerecord REASON="why" [TAG=pr<N>-slug]'; exit 1; }
	python -m repro golden rerecord --reason "$(REASON)" $(if $(TAG),--tag "$(TAG)")

# The paper's claims table rendered (src/repro/harness/claims.py), the
# extension comparisons (differential, chaos, prefix, tenants, hetero) with
# it; tier-1 fails while the committed RESULTS.md differs from a fresh
# render.  One claim alone: `python -m repro claims ext_chaos`.
results:
	python -m repro claims > RESULTS.md

examples:
	python examples/quickstart.py
	python examples/chatbot_sharegpt.py --fast
	python examples/summarization_longbench.py --fast
	python examples/bottleneck_aware.py
	python examples/latency_breakdown.py
	python examples/workload_shift.py
	python examples/fleet_serving.py
	python examples/placement_planner.py
	python examples/heterogeneous_cluster.py

# Untracked artefacts only: RESULTS.md is tracked (rewrite it with `make results`).
clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
