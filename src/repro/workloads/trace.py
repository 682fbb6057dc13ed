"""Request traces: the arrival-ordered container and its generator."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.models.spec import ModelSpec
from repro.serving.request import DEFAULT_TENANT, DEFAULT_TIER, Request
from repro.sim.random import RandomStreams
from repro.workloads.arrivals import TierMix, gamma_arrivals, poisson_arrivals
from repro.workloads.datasets import DatasetProfile
from repro.workloads.prefixes import PrefixMix
from repro.workloads.tenants import TenantMix


class Trace:
    """An ordered collection of requests with arrival timestamps."""

    def __init__(self, requests: list[Request], rate: float = 0.0, name: str = "trace") -> None:
        self.requests = sorted(requests, key=lambda r: r.arrival_time)
        self.rate = rate
        self.name = name
        # Named RNG streams touched while sampling this trace (empty for
        # hand-built traces); folded into run fingerprints.
        self.rng_registry: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def duration(self) -> float:
        if not self.requests:
            return 0.0
        return self.requests[-1].arrival_time - self.requests[0].arrival_time


def generate_trace(
    dataset: DatasetProfile,
    rate: float,
    num_requests: int,
    seed: int = 0,
    model: Optional[ModelSpec] = None,
    start_id: int = 0,
    arrival_process: str = "poisson",
    burstiness_cv: float = 2.0,
    tier_mix: Optional[TierMix] = None,
    prefix_mix: Optional[PrefixMix] = None,
    tenant_mix: Optional[TenantMix] = None,
) -> Trace:
    """Sample an arrival trace from a dataset profile.

    ``arrival_process`` is ``"poisson"`` (the paper's setting) or
    ``"bursty"`` (Gamma renewals with inter-arrival CV ``burstiness_cv``).
    When ``model`` is given, prompt+output lengths are clamped so the full
    sequence fits the model's context window (as real benchmark harnesses
    must do — OPT's 2K limit truncates long ShareGPT turns).  With a
    ``tier_mix``, each request draws an SLO tier from the dedicated
    ``"tiers"`` RNG stream; without one the stream is never touched, so
    tier-free traces (and their RNG registries) are byte-identical to
    pre-tier recordings.  A ``prefix_mix`` works the same way over the
    dedicated ``"prefix"`` stream: each request draws a shared-prefix
    assignment (``prefix_hash``/``prefix_len``), clamped so at least one
    prompt token always remains to compute.  A ``tenant_mix`` assigns each
    request an owning tenant from the dedicated ``"tenants"`` stream —
    again only touched when a mix is given, keeping tenant-free traces
    byte-identical to pre-tenant recordings.
    """
    streams = RandomStreams(seed)
    if arrival_process == "poisson":
        arrivals = poisson_arrivals(rate, num_requests, streams.get("arrivals"))
    elif arrival_process == "bursty":
        arrivals = gamma_arrivals(
            rate, num_requests, streams.get("arrivals"), cv=burstiness_cv
        )
    else:
        raise ValueError(f"unknown arrival_process {arrival_process!r}")
    prompts = dataset.prompt.sample(streams.get("prompt-lengths"), num_requests)
    outputs = dataset.output.sample(streams.get("output-lengths"), num_requests)
    tiers = None
    if tier_mix is not None:
        tiers = tier_mix.sample(streams.get("tiers"), num_requests)
    prefixes = None
    if prefix_mix is not None:
        prefixes = prefix_mix.sample(streams.get("prefix"), num_requests)
    tenants = None
    if tenant_mix is not None:
        tenants = tenant_mix.sample(streams.get("tenants"), num_requests)

    requests = []
    for i in range(num_requests):
        prompt, output = int(prompts[i]), int(outputs[i])
        if model is not None:
            prompt = min(prompt, model.max_context - 2)
            output = max(1, min(output, model.max_context - prompt))
        if prefixes is not None:
            p_hash, p_len = prefixes[i]
            # The shared header is a leading slice of the prompt; at least
            # one prompt token must remain uncached so prefill still runs.
            p_len = min(p_len, prompt - 1)
            if p_len <= 0:
                p_hash, p_len = 0, 0
        else:
            p_hash, p_len = 0, 0
        requests.append(
            Request(
                request_id=start_id + i,
                prompt_tokens=prompt,
                output_tokens=output,
                arrival_time=float(arrivals[i]),
                tier=tiers[i] if tiers is not None else DEFAULT_TIER,
                prefix_hash=p_hash,
                prefix_len=p_len,
                tenant=tenants[i] if tenants is not None else DEFAULT_TENANT,
            )
        )
    trace = Trace(requests, rate=rate, name=f"{dataset.name}-r{rate:g}-n{num_requests}")
    trace.rng_registry = streams.registry()
    return trace
