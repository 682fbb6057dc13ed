"""Pinned outputs of the single-system run path, searches and run verbs.

Each entry in :data:`EXPECTED` is the SHA-256 of the canonical JSON of one
output: a run's warm-up-trimmed summary plus its counters, a placement
ranking, a capacity search, or the stdout of a ``--json`` CLI verb.  The
table is literal, so any change to how a run is described, built, driven
or summarised shows up as a changed hash.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.core.config import WindServeConfig
from repro.harness.capacity import find_capacity
from repro.harness.cell import Cell
from repro.harness.placement_search import search_placement
from repro.harness.runner import SYSTEM_NAMES
from repro.serving.instance import InstanceConfig
from repro.sim.fingerprint import canonical_json

TIERS = "interactive=0.3,standard=0.4,best_effort=0.3"


def _digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def _cell(**overrides) -> Cell:
    return Cell(**{"num_requests": 120, **overrides})


def _run(cell: Cell) -> dict:
    run = cell.run()
    return {"summary": run.summary(), "counters": dict(run.metrics.counters)}


RUNS = {
    **{
        f"{system}/opt-13b/sharegpt": _cell(system=system, rate_per_gpu=4.5)
        for system in SYSTEM_NAMES
    },
    **{
        f"{system}/llama2-13b/longbench": _cell(
            system=system, model="llama2-13b", dataset="longbench", rate_per_gpu=2.2
        )
        for system in SYSTEM_NAMES
    },
    "ws_config": _cell(ws_config=WindServeConfig(dispatch_threshold_frac=0.5)),
    "instance_config": _cell(
        system="vllm", instance_config=InstanceConfig(max_batched_tokens=256)
    ),
    "decode_instance_config": _cell(
        decode_instance_config=InstanceConfig(kv_capacity_override_tokens=16384)
    ),
    "prefill_parallel": _cell(prefill_parallel=(2, 2)),
    "num_node_gpus": _cell(num_node_gpus=4, prefill_parallel=(1, 1), decode_parallel=(1, 1)),
    "gpu": _cell(model="llama2-7b", gpu="rtx-4090", rate_per_gpu=1.5),
    "shed_limit": _cell(shed_limit=8, tier_mix=TIERS),
    "preemptive": _cell(
        admission_policy="preemptive",
        instance_config=InstanceConfig(
            preemption_policy="tier-aware", kv_capacity_override_tokens=8192
        ),
        tier_mix=TIERS,
        rate_per_gpu=4.5,
    ),
}


def _ranking(scores) -> list:
    return [[s.label(), s.slo_attainment, s.goodput_per_gpu] for s in scores]


SEARCHES = {
    "placement/opt-13b": lambda: _ranking(
        search_placement("distserve", "opt-13b", "sharegpt", 1.5, num_requests=60)
    ),
    "placement/rtx-4090": lambda: _ranking(
        search_placement(
            "windserve", "llama2-7b", "sharegpt", 1.5, num_requests=60, gpu="rtx-4090"
        )
    ),
    "capacity": lambda: vars(
        find_capacity(
            _cell(num_requests=60, seed=5), target_attainment=0.5, low=0.5, high=8.0,
            iterations=3,
        )
    ),
}

SMALL = ["--requests", "40", "--json"]
VERBS = {
    "cli/run": ["run", "--system", "distserve", "--rate", "3", *SMALL],
    "cli/sweep": ["sweep", "--systems", "windserve,vllm", "--rates", "2,4", *SMALL],
    "cli/placement": ["placement", "--rate", "1.5", "--node-gpus", "4", *SMALL],
    "cli/breakdown": ["breakdown", "--rate", "2", "--prefill-parallel", "1", *SMALL],
}

EXPECTED = {
    "capacity": "f2af3166a1b7c94fab6c50745e2ed3973911310a97f49fc54cbfae6aed8692fd",
    "cli/breakdown": "427d84b10fb7f2619d072445902d1d69badd45bb57e0631e47c6322afa246ba0",
    "cli/placement": "3b596b7ee5f1ef3aab68f1ab7ac4a5f2c56b74fbdd42c3f8a200545fa1ac3a06",
    "cli/run": "da7881892135a38f67bd9e63ea72912ba1ac4a0e4d7852e9f305e826997a59e6",
    "cli/sweep": "788eeea801c6c3489b00d21e9b1947ff630b5fe7b9cef0bac54846c81f91170e",
    "decode_instance_config": "aefa140b26d5d88de268c29bd9c7231d6d5951ca2486f8df3db4f52b21a69485",
    "distserve/llama2-13b/longbench": "d74869032ea9ce1a434e1859e326a525bf429e4da8538795eb22c5c389c7bdef",
    "distserve/opt-13b/sharegpt": "c46f26ace0a367b545ef62678ca13d1c34dbc7db71977bbf60d6915e5b07f809",
    "gpu": "4ee05a6baaf9713e275e421547924aeadd0c82f2b501850c90bd621e8866dc06",
    "instance_config": "26ced384f5f5b2fed657d0f2ffc8c9fa2555199f5cb5885637f150c20680633d",
    "num_node_gpus": "481f163e50900eb79ced0f1601df80081a170f3bad33a326f3f8eb8dc0c8e1e2",
    "placement/opt-13b": "bfa3deb0dfb37995b407341a364bc25c3a61a5f0f89c73093511f4b66a14cac5",
    "placement/rtx-4090": "2a8f841bc52c330dd09440a277ca7facfe4fc3292ea98d787baba8e9b3d175e4",
    "preemptive": "6dba0c8bd1e6bba5c5589da6e6f271fcf23ee7a38bd70c2f355758108b60a620",
    "prefill_parallel": "1f9c173523cde48578890b4db077a02b30538d58288d9cac75141bb174c59609",
    "shed_limit": "df5840db4fc0535df9888ce999753eeb3e8a738b3cff05efe725e69ea369b88f",
    "vllm/llama2-13b/longbench": "4291ce1bc05cd0045391388e721d0947de873e1fc48085dcde02bdd17fc52b0d",
    "vllm/opt-13b/sharegpt": "fbbe88fa19b77b0944c5d29564e81b42f9a3fbfc623f81f7eabe6206e73cc386",
    "windserve-no-resche/llama2-13b/longbench": "4ca98c1e29d2f910c65a8bd092fa64da243a13ecf69884b3bc46bb78534e6fae",
    "windserve-no-resche/opt-13b/sharegpt": "b007f277140379f8802677e76ea8fd8ab5ae1b5449b8d9feec4360432663e6ba",
    "windserve-no-split/llama2-13b/longbench": "53f8a089e668f9ecac33ef448c86fa4663ca4eddf7af0dd95d98aac8d19e8229",
    "windserve-no-split/opt-13b/sharegpt": "7edb9ca7aca5a0250ea3a6096fc7053845433247b67f8ee81569cfd37609734f",
    "windserve-static/llama2-13b/longbench": "c62a1ed723457f3d476a48abfd10cc37acf7f6df94ec6df775a2757a4cb38275",
    "windserve-static/opt-13b/sharegpt": "a120f54d90c1c60f128bdb8e43e4666aa445f53a61d3eabf4856a3ef9e9f2569",
    "windserve/llama2-13b/longbench": "4ca98c1e29d2f910c65a8bd092fa64da243a13ecf69884b3bc46bb78534e6fae",
    "windserve/opt-13b/sharegpt": "b007f277140379f8802677e76ea8fd8ab5ae1b5449b8d9feec4360432663e6ba",
    "ws_config": "960b6f2a5bfea5ac7ca7f30ab42f18750bb5e750c50c7aef14de41fd1d20d251",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_pinned(name):
    assert _digest(_run(RUNS[name])) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_outputs_pinned(name):
    assert _digest(SEARCHES[name]()) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(VERBS))
def test_verb_stdout_pinned(name, capsys):
    assert main(VERBS[name]) == 0
    out = capsys.readouterr().out
    json.loads(out)
    assert _digest(out) == EXPECTED[name]
