.PHONY: install test results examples golden-check golden-record golden-validate goldens-rerecord differential chaos policies prefix tenants hetero clean

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
# verb reports, runs, searches, fleet layouts) after an intentional
# behaviour change:
#   make goldens-rerecord REASON="why the store moves" [TAG=pr<N>-slug]
# Chains each replaced digest into the pin's provenance header and prints
# one migration report of per-pin deltas (see docs/determinism.md).
goldens-rerecord:
	@test -n "$(REASON)" || { echo 'usage: make goldens-rerecord REASON="why" [TAG=pr<N>-slug]'; exit 1; }
	python -m repro golden rerecord --reason "$(REASON)" $(if $(TAG),--tag "$(TAG)")

differential:
	python -m repro differential --seeds 0,1,2

chaos:
	python -m repro chaos --smoke
	python -m repro chaos --smoke --systems distserve --plans prefill-crash,decode-crash --seed 1
	python -m repro chaos --fleet --smoke
	python -m repro chaos --fleet --smoke --plans nic-outage --span-nodes
	python -m repro chaos --fleet --smoke --tier-mix interactive=0.25,standard=0.5,best_effort=0.25

policies:
	python -m repro chaos --fleet --smoke --router tier-aware --tier-mix interactive=0.25,standard=0.5,best_effort=0.25
	python -m repro chaos --smoke --admission preemptive --tier-mix interactive=0.5,standard=0.2,best_effort=0.3

# Prefix caching: affinity-vs-blind routing comparison on a shared-prefix
# workload (see docs/prefix-caching.md).  Exits non-zero unless warm beats
# cold, affinity wins, and every invariant holds.
prefix:
	python -m repro prefix --smoke --out prefix_smoke.json

# Tenant isolation: fair-share vs FIFO-within-tier under a heavy-tenant
# burst (see docs/fair-share.md).  Exits non-zero unless fair-share holds
# the isolation bound that FIFO violates on the same workload bytes.
tenants:
	python -m repro tenants --smoke --out tenants_smoke.json

# Heterogeneous fleets: seconds-based routing vs count-based, and
# failure-reactive re-planning vs running degraded, on a mixed
# A800+H100 fleet (see docs/heterogeneous-fleets.md).  Exits non-zero
# unless both differentials hold and every chaos invariant passes.
hetero:
	python -m repro hetero --smoke --out hetero_smoke.json

# The paper's claims table rendered (src/repro/harness/claims.py); tier-1
# fails while the committed RESULTS.md differs from a fresh render.
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
