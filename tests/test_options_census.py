"""Options census: every config field is set somewhere outside the tests.

A field of the seven config objects that no code under ``src/`` or
``bench/`` ever sets is a knob with one value in use; it belongs in a
module constant, or, when it only switches on a path nothing takes, it
goes with that path.  The census parses every module with ``ast`` and
counts a field as set when a keyword argument or an attribute assignment
anywhere uses its name.

Blind spot: the census matches names, not owners, so two fields that share
a name hide each other (``startup_delay`` of ``AutoscalerConfig`` would
hide a ``Cell.startup_delay``), as does any keyword argument of the same
name on an unrelated call (``KVBlockManager(block_size=...)``).
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from repro.core.autoscaler import AutoscalerConfig
from repro.core.config import WindServeConfig
from repro.faults.config import ResilienceConfig
from repro.harness.cell import Cell
from repro.policies.fairshare import FairShareConfig
from repro.serving.instance import InstanceConfig
from repro.serving.system import SystemConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = (
    WindServeConfig,
    InstanceConfig,
    ResilienceConfig,
    AutoscalerConfig,
    FairShareConfig,
    SystemConfig,
    Cell,
)

#: Fields kept although nothing under src/ or bench/ sets them.
ALLOWED_UNSET = {
    "max_prefill_tokens_per_batch": "the M/G/1 oracle of ROADMAP item 17 sets it to 1",
    "trace_enabled": "the observability switch (examples/workload_shift.py sets it)",
}

#: Settable fields across the seven config objects.  Raise it only for a
#: field two existing callers need at different values.
FIELD_COUNT = 67


def _set_names() -> set[str]:
    names: set[str] = set()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(
                        sub.attr
                        for target in targets
                        for sub in ast.walk(target)
                        if isinstance(sub, ast.Attribute)
                    )
    return names


def test_every_config_field_is_set_outside_the_tests():
    names = _set_names()
    unset = [
        f"{config.__name__}.{f.name}"
        for config in CONFIGS
        for f in fields(config)
        if f.name not in names and f.name not in ALLOWED_UNSET
    ]
    assert not unset, f"config fields nothing under src/ or bench/ sets: {unset}"


def test_allowlist_names_real_fields():
    declared = {f.name for config in CONFIGS for f in fields(config)}
    assert set(ALLOWED_UNSET) <= declared


def test_field_count_does_not_grow():
    assert sum(len(fields(config)) for config in CONFIGS) == FIELD_COUNT
