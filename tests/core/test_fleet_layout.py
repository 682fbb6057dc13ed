"""Fleet GPU layouts pinned as a literal table.

Every case builds a fleet (or, for ``replan:*``, fails members of the
hetero-s15 shape under the re-planner) and records, per member, its name,
its prefill and decode GPU ids, and each instance's GPU type, TP, PP and
bound TP link bandwidth.  Inputs the builder rejects are recorded as
``"ValueError"``.  Any change to how fleets claim GPUs shows up here as a
table diff, member by member.
"""

from __future__ import annotations

import pytest

from repro.baselines.distserve import DistServeSystem
from repro.core.config import FleetShape
from repro.core.fleet import build_windserve_fleet
from repro.core.replan import FleetReplanner
from repro.hardware.cluster import ClusterTopology
from repro.harness.golden import GOLDEN_MATRIX
from repro.models.parallelism import ParallelConfig
from repro.models.registry import get_model
from repro.serving.system import SystemConfig

FLEET_GOLDENS = (
    "fleet-chaos-node-s5",
    "fleet-chaos-promote-s6",
    "windserve-fleet-tieraware-s12",
    "windserve-hetero-s15",
)
PARALLELISMS = {
    "tp2/tp2": (ParallelConfig(tp=2), ParallelConfig(tp=2)),
    "tp1/tp2": (ParallelConfig(tp=1), ParallelConfig(tp=2)),
    "tp2pp2/tp1": (ParallelConfig(tp=2, pp=2), ParallelConfig(tp=1)),
}
SHAPES = ("a800,h100,a800", "a800:2,h100:2", "a800:1:1x1+1x1,h100", "h100:2:2x1+2x2")
HETERO_S15 = "a800:1:1x1+1x1,h100:1:2x1+2x1,a800:1:1x1+1x1"


def _config() -> SystemConfig:
    return SystemConfig(model=get_model("opt-13b"))


def _instance(instance) -> tuple:
    p = instance.parallel
    return (instance.gpu.name, p.tp, p.pp, p.tp_link_gbps)


def layout(fleet) -> tuple:
    return tuple(
        (
            m.name,
            tuple(m.prefill_instance.gpus),
            tuple(m.decode_instance.gpus),
            _instance(m.prefill_instance),
            _instance(m.decode_instance),
        )
        for m in fleet.members
    )


def _golden(name):
    return next(c for c in GOLDEN_MATRIX if c.name == name).build()


def _homogeneous(system, nodes, pairs, span, par):
    prefill, decode = PARALLELISMS[par]
    return build_windserve_fleet(
        _config(),
        ClusterTopology(num_nodes=nodes, gpus_per_node=8),
        prefill_parallel=prefill,
        decode_parallel=decode,
        pairs_per_node=pairs,
        system_factory=DistServeSystem if system == "distserve" else None,
        span_nodes=span,
    )


def _shaped(spec, pairs, span):
    return build_windserve_fleet(
        _config(), pairs_per_node=pairs, span_nodes=span, shape=FleetShape.parse(spec)
    )


def _replan(*deaths):
    fleet = _shaped(HETERO_S15, 1, False)
    fleet.replanner = FleetReplanner()
    for index in deaths:
        fleet.fail_member(index)
    return fleet


def _cases() -> dict:
    cases = {f"golden:{name}": (_golden, name) for name in FLEET_GOLDENS}
    for system in ("windserve", "distserve"):
        for nodes in (1, 2, 3):
            for pairs in (1, 2):
                for span in (False, True):
                    for par in PARALLELISMS:
                        key = f"{system}:n{nodes}:p{pairs}:span={span}:{par}"
                        cases[key] = (_homogeneous, system, nodes, pairs, span, par)
    for spec in SHAPES:
        for pairs in (1, 2):
            for span in (False, True):
                cases[f"shape:{spec}:p{pairs}:span={span}"] = (_shaped, spec, pairs, span)
    for first in range(3):
        cases[f"replan:{first}"] = (_replan, first)
        for second in range(3):
            if second != first:
                cases[f"replan:{first},{second}"] = (_replan, first, second)
    return cases


CASES = _cases()


def observed(key: str):
    build, *args = CASES[key]
    try:
        return layout(build(*args))
    except ValueError:
        return "ValueError"


# -- the table ------------------------------------------------------------------

INF = float("inf")

EXPECTED = {
    'golden:fleet-chaos-node-s5': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'golden:fleet-chaos-promote-s6': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'golden:windserve-fleet-tieraware-s12': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'golden:windserve-hetero-s15': (
        ('windserve-0.0', (0,), (1,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n1:p1:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p1:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n1:p1:span=False:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n1:p1:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p1:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n1:p1:span=True:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n1:p2:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p2:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p2:span=False:tp2pp2/tp1': 'ValueError',
    'windserve:n1:p2:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (2, 3), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p2:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (1,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n1:p2:span=True:tp2pp2/tp1': 'ValueError',
    'windserve:n2:p1:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p1:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n2:p1:span=False:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9, 10, 11), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n2:p1:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p1:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.0', (8,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n2:p1:span=True:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9, 10, 11), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n2:p2:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p2:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.1', (11,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p2:span=False:tp2pp2/tp1': 'ValueError',
    'windserve:n2:p2:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (12, 13), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (2, 3), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (10, 11), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p2:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (10, 11), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (1,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (9,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n2:p2:span=True:tp2pp2/tp1': 'ValueError',
    'windserve:n3:p1:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p1:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-2.0', (16,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n3:p1:span=False:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9, 10, 11), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-2.0', (16, 17, 18, 19), (20,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n3:p1:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p1:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.0', (8,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-2.0', (16,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'windserve:n3:p1:span=True:tp2pp2/tp1': (
        ('windserve-0.0', (0, 1, 2, 3), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9, 10, 11), (20,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-2.0', (16, 17, 18, 19), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'windserve:n3:p2:span=False:tp2/tp2': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.1', (20, 21), (22, 23), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p2:span=False:tp1/tp2': (
        ('windserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-1.1', (11,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('windserve-2.1', (19,), (20, 21), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p2:span=False:tp2pp2/tp1': 'ValueError',
    'windserve:n3:p2:span=True:tp2/tp2': (
        ('windserve-0.0', (0, 1), (12, 13), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (2, 3), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (20, 21), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (10, 11), (22, 23), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.1', (18, 19), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p2:span=True:tp1/tp2': (
        ('windserve-0.0', (0,), (10, 11), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (1,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8,), (18, 19), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (9,), (20, 21), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.1', (17,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'windserve:n3:p2:span=True:tp2pp2/tp1': 'ValueError',
    'distserve:n1:p1:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p1:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n1:p1:span=False:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n1:p1:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p1:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n1:p1:span=True:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n1:p2:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p2:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p2:span=False:tp2pp2/tp1': 'ValueError',
    'distserve:n1:p2:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (2, 3), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p2:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (1,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n1:p2:span=True:tp2pp2/tp1': 'ValueError',
    'distserve:n2:p1:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p1:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n2:p1:span=False:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-1.0', (8, 9, 10, 11), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n2:p1:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p1:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.0', (8,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n2:p1:span=True:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-1.0', (8, 9, 10, 11), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n2:p2:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p2:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.1', (11,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p2:span=False:tp2pp2/tp1': 'ValueError',
    'distserve:n2:p2:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (12, 13), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (2, 3), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (10, 11), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p2:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (10, 11), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (1,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (9,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n2:p2:span=True:tp2pp2/tp1': 'ValueError',
    'distserve:n3:p1:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16, 17), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p1:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-2.0', (16,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n3:p1:span=False:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-1.0', (8, 9, 10, 11), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-2.0', (16, 17, 18, 19), (20,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n3:p1:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16, 17), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p1:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.0', (8,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-2.0', (16,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'distserve:n3:p1:span=True:tp2pp2/tp1': (
        ('distserve-0.0', (0, 1, 2, 3), (12,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-1.0', (8, 9, 10, 11), (20,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('distserve-2.0', (16, 17, 18, 19), (4,), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'distserve:n3:p2:span=False:tp2/tp2': (
        ('distserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (12, 13), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16, 17), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.1', (20, 21), (22, 23), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p2:span=False:tp1/tp2': (
        ('distserve-0.0', (0,), (1, 2), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-0.1', (3,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8,), (9, 10), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-1.1', (11,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16,), (17, 18), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
        ('distserve-2.1', (19,), (20, 21), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p2:span=False:tp2pp2/tp1': 'ValueError',
    'distserve:n3:p2:span=True:tp2/tp2': (
        ('distserve-0.0', (0, 1), (12, 13), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (2, 3), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8, 9), (20, 21), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (10, 11), (22, 23), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16, 17), (4, 5), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.1', (18, 19), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p2:span=True:tp1/tp2': (
        ('distserve-0.0', (0,), (10, 11), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-0.1', (1,), (12, 13), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.0', (8,), (18, 19), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-1.1', (9,), (20, 21), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.0', (16,), (2, 3), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('distserve-2.1', (17,), (4, 5), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'distserve:n3:p2:span=True:tp2pp2/tp1': 'ValueError',
    'shape:a800,h100,a800:p1:span=False': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16, 17), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'shape:a800,h100,a800:p1:span=True': (
        ('windserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-1.0', (8, 9), (18, 19), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'shape:a800,h100,a800:p2:span=False': 'ValueError',
    'shape:a800,h100,a800:p2:span=True': 'ValueError',
    'shape:a800:2,h100:2:p1:span=False': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-2.0', (16, 17), (18, 19), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-3.0', (24, 25), (26, 27), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
    ),
    'shape:a800:2,h100:2:p1:span=True': (
        ('windserve-0.0', (0, 1), (10, 11), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (18, 19), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16, 17), (26, 27), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-3.0', (24, 25), (2, 3), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'shape:a800:2,h100:2:p2:span=False': (
        ('windserve-0.0', (0, 1), (2, 3), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-0.1', (4, 5), (6, 7), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-1.1', (12, 13), (14, 15), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
    ),
    'shape:a800:2,h100:2:p2:span=True': (
        ('windserve-0.0', (0, 1), (12, 13), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-0.1', (2, 3), (14, 15), ('NVIDIA A800-80GB', 2, 1, 180.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-1.0', (8, 9), (4, 5), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
        ('windserve-1.1', (10, 11), (6, 7), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA A800-80GB', 2, 1, 180.0)),
    ),
    'shape:a800:1:1x1+1x1,h100:p1:span=False': (
        ('windserve-0.0', (0,), (1,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
    ),
    'shape:a800:1:1x1+1x1,h100:p1:span=True': (
        ('windserve-0.0', (0,), (10,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA H100-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9), (1, 2), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA A800-80GB', 2, 1, 23.04)),
    ),
    'shape:a800:1:1x1+1x1,h100:p2:span=False': 'ValueError',
    'shape:a800:1:1x1+1x1,h100:p2:span=True': 'ValueError',
    'shape:h100:2:2x1+2x2:p1:span=False': (
        ('windserve-0.0', (0, 1), (2, 3, 4, 5), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 2, 35.2)),
        ('windserve-1.0', (8, 9), (10, 11, 12, 13), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 2, 35.2)),
    ),
    'shape:h100:2:2x1+2x2:p1:span=True': (
        ('windserve-0.0', (0, 1), (10, 11, 12, 13), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 2, 35.2)),
        ('windserve-1.0', (8, 9), (2, 3, 4, 5), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 2, 35.2)),
    ),
    'shape:h100:2:2x1+2x2:p2:span=False': 'ValueError',
    'shape:h100:2:2x1+2x2:p2:span=True': 'ValueError',
    'replan:0': (
        ('windserve-0.0', (0,), (1,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16, 17, 18, 19), (20, 21, 22, 23), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
    ),
    'replan:0,1': (
        ('windserve-0.0', (0,), (1,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16, 17, 18, 19), (20, 21, 22, 23), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
    ),
    'replan:0,2': (
        ('windserve-0.0', (0,), (1,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
        ('windserve-1.0', (8, 9, 10, 11), (12, 13, 14, 15), ('NVIDIA H100-80GB', 2, 2, 46.08), ('NVIDIA H100-80GB', 2, 2, 46.08)),
        ('windserve-2.0', (16, 17, 18, 19), (20, 21, 22, 23), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
    ),
    'replan:1': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'replan:1,0': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16, 17, 18, 19), (20, 21, 22, 23), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
    ),
    'replan:1,2': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'replan:2': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'replan:2,0': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9, 10, 11), (12, 13, 14, 15), ('NVIDIA H100-80GB', 2, 2, 46.08), ('NVIDIA H100-80GB', 2, 2, 46.08)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
    'replan:2,1': (
        ('windserve-0.0', (0, 1, 2, 3), (4, 5, 6, 7), ('NVIDIA A800-80GB', 2, 2, 23.04), ('NVIDIA A800-80GB', 2, 2, 23.04)),
        ('windserve-1.0', (8, 9), (10, 11), ('NVIDIA H100-80GB', 2, 1, 405.0), ('NVIDIA H100-80GB', 2, 1, 405.0)),
        ('windserve-2.0', (16,), (17,), ('NVIDIA A800-80GB', 1, 1, 200.0), ('NVIDIA A800-80GB', 1, 1, 200.0)),
    ),
}


def test_table_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_layout_matches_table(key):
    assert observed(key) == EXPECTED[key]
