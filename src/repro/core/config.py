"""WindServe policy configuration (the knobs described in §3 of the paper).

:class:`WindServeConfig` holds the knobs a claim, pin or ablation sets to a
second value; the thresholds every run shares are module constants
(``ASSIST_KV_HEADROOM_BLOCKS``, ``RESCHEDULE_WATERMARK_FRAC``, ...).

Also home of the fleet-shape spec: :class:`MemberShape` /
:class:`FleetShape` describe a (possibly heterogeneous) fleet one member at
a time — GPU type from the :mod:`repro.hardware.gpu` registry plus the
member's own prefill/decode parallelism — parsed from the same compact
spec-string form the workload mixes use (``"h100:2,a800:4"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.gpu import GPU_REGISTRY

#: Short aliases accepted in shape spec strings, on top of the full
#: registry keys ("a800-80gb", ...).
GPU_ALIASES = {
    "a800": "a800-80gb",
    "a100": "a100-80gb",
    "h100": "h100-80gb",
    "rtx4090": "rtx-4090",
    "4090": "rtx-4090",
}

#: The shape every pre-shape fleet implicitly had: the paper's testbed GPU
#: with TP-2 prefill and TP-2 decode.  A fleet whose members all match this
#: serialises nothing into the run fingerprint.
DEFAULT_MEMBER = ("a800-80gb", (2, 1), (2, 1))


def _resolve_gpu_key(token: str) -> str:
    key = token.strip().lower()
    key = GPU_ALIASES.get(key, key)
    if key not in GPU_REGISTRY:
        raise ValueError(
            f"unknown GPU {token!r} in fleet shape; known: "
            f"{sorted(GPU_REGISTRY)} (aliases: {sorted(GPU_ALIASES)})"
        )
    return key


def _parse_parallel(token: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """``"2x1+2x1"`` -> ((prefill_tp, prefill_pp), (decode_tp, decode_pp))."""
    try:
        prefill_s, decode_s = token.split("+")
        ptp, ppp = (int(x) for x in prefill_s.split("x"))
        dtp, dpp = (int(x) for x in decode_s.split("x"))
    except ValueError:
        raise ValueError(
            f"bad parallelism {token!r} in fleet shape "
            "(expected '<ptp>x<ppp>+<dtp>x<dpp>', e.g. '2x1+2x1')"
        ) from None
    if min(ptp, ppp, dtp, dpp) < 1:
        raise ValueError(f"parallelism degrees must be >= 1, got {token!r}")
    return (ptp, ppp), (dtp, dpp)


@dataclass(frozen=True)
class MemberShape:
    """One fleet member's hardware: GPU type + prefill/decode parallelism."""

    gpu: str  # GPU_REGISTRY key
    prefill_parallel: tuple[int, int] = (2, 1)  # (tp, pp)
    decode_parallel: tuple[int, int] = (2, 1)

    @property
    def num_gpus(self) -> int:
        return (
            self.prefill_parallel[0] * self.prefill_parallel[1]
            + self.decode_parallel[0] * self.decode_parallel[1]
        )

    @property
    def is_default(self) -> bool:
        return (self.gpu, self.prefill_parallel, self.decode_parallel) == DEFAULT_MEMBER

    def parallel_string(self) -> str:
        p, d = self.prefill_parallel, self.decode_parallel
        return f"{p[0]}x{p[1]}+{d[0]}x{d[1]}"


@dataclass(frozen=True)
class FleetShape:
    """An ordered tuple of member shapes (member ``i`` = ``members[i]``)."""

    members: tuple[MemberShape, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a fleet shape needs at least one member")

    @classmethod
    def parse(cls, spec: str) -> "FleetShape":
        """Parse ``"<gpu>[:<count>][:<ptp>x<ppp>+<dtp>x<dpp>]"`` terms.

        Examples: ``"h100:2,a800:4"`` (counts, default TP-2/TP-2 pairs),
        ``"h100,a800"`` (one each), ``"h100:2:2x1+2x2"`` (explicit
        per-member parallelism).
        """
        members: list[MemberShape] = []
        for term in spec.split(","):
            term = term.strip()
            if not term:
                raise ValueError(f"empty term in fleet shape {spec!r}")
            parts = term.split(":")
            if len(parts) > 3:
                raise ValueError(
                    f"bad fleet-shape term {term!r} "
                    "(expected '<gpu>[:<count>][:<parallel>]')"
                )
            gpu = _resolve_gpu_key(parts[0])
            count = 1
            parallel = ((2, 1), (2, 1))
            for part in parts[1:]:
                if "x" in part or "+" in part:
                    parallel = _parse_parallel(part)
                else:
                    try:
                        count = int(part)
                    except ValueError:
                        raise ValueError(
                            f"bad member count {part!r} in fleet shape {spec!r}"
                        ) from None
                    if count < 1:
                        raise ValueError(f"member count must be >= 1, got {count}")
            members.extend(
                MemberShape(gpu, parallel[0], parallel[1]) for _ in range(count)
            )
        return cls(members=tuple(members))

    def spec_string(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        terms: list[str] = []
        run: Optional[MemberShape] = None
        count = 0

        def flush() -> None:
            if run is None:
                return
            term = run.gpu
            if count > 1:
                term += f":{count}"
            if (run.prefill_parallel, run.decode_parallel) != ((2, 1), (2, 1)):
                term += f":{run.parallel_string()}"
            terms.append(term)

        for member in self.members:
            if member == run:
                count += 1
            else:
                flush()
                run, count = member, 1
        flush()
        return ",".join(terms)

    @property
    def is_default(self) -> bool:
        """True when every member matches the implicit pre-shape default."""
        return all(m.is_default for m in self.members)

    @property
    def num_gpus(self) -> int:
        return sum(m.num_gpus for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


#: KV blocks the decode instance keeps free before accepting assist
#: prefills (so dispatch never triggers swapping).
ASSIST_KV_HEADROOM_BLOCKS = 128
#: Dynamic Rescheduling triggers when the decode instance's free KV blocks
#: drop below this fraction ...
RESCHEDULE_WATERMARK_FRAC = 0.08
#: ... and migrates long-context requests until they rise above this one.
RESCHEDULE_STOP_FRAC = 0.18
#: Stall-free migration pauses the request once the remaining KV to transfer
#: is below the KV produced by this many decode iterations.
MIGRATION_PAUSE_ITERATIONS = 8
#: The prefill instance must have at least this fraction of KV free to keep
#: backups (§3.3) ...
BACKUP_PREFILL_FREE_FRAC = 0.40
#: ... and keeps them only while the decode instance's free KV fraction is
#: below this one (memory pressure).
BACKUP_DECODE_PRESSURE_FRAC = 0.35
#: Multiplier on prefill duration while an overlapped KV transfer is in
#: flight (the transfer steals a little bandwidth — the paper's "slight
#: increase in TTFT").
ASYNC_PREFILL_SLOWDOWN = 1.05


@dataclass(frozen=True)
class WindServeConfig:
    """Tunables of WindServe's Global Scheduler and execution strategies.

    Attributes:
        dispatch_threshold_frac: The dispatch threshold ``thrd`` of
            Algorithm 1 as a fraction of the TTFT SLO ("slightly below the
            TTFT SLO", §3.2.2).
        backup_enabled: Prefill instance retains ("backs up") KV of
            long-context requests after hand-off when memory allows (§3.3).
        backup_min_prompt_tokens: Only prompts at least this long are backed
            up.
        reschedule_policy: Which running requests Dynamic Rescheduling
            migrates first: ``"longest-context"`` (WindServe's choice —
            frees the most KV per migration) or ``"shortest-context"``
            (Llumnix's choice — cheapest individual migrations).  Exposed
            for the design-choice ablation.
        colocation_mode: How dispatched prefills co-execute with decoding:
            ``"sbd"`` (separate CUDA streams, §3.4), ``"hybrid"`` (regular
            fused batches — the paper's *WindServe-no-split* ablation), or
            ``"static-partition"`` (MPS/MIG-style fixed resource split,
            the §3.4 alternative WindServe argues against: the partition
            wastes its share whenever only one job type is present).
        static_partition_fraction: Fraction of GPU resources reserved for
            the prefill partition in ``"static-partition"`` mode.
        rescheduling_enabled: Dynamic rescheduling; False gives
            *WindServe-no-resche*.
        dispatch_enabled: Dynamic prefill dispatch; False disables
            Algorithm 1 entirely (pure DistServe-style routing).
        async_transfer: Overlap the prefill->decode KV transfer with the
            prefill computation itself (layer-by-layer), instead of
            transferring after the prefill completes.
    """

    dispatch_threshold_frac: float = 0.9
    backup_enabled: bool = True
    backup_min_prompt_tokens: int = 1024
    reschedule_policy: str = "longest-context"
    colocation_mode: str = "sbd"
    static_partition_fraction: float = 0.30
    rescheduling_enabled: bool = True
    dispatch_enabled: bool = True
    async_transfer: bool = True

    def __post_init__(self) -> None:
        if self.reschedule_policy not in ("longest-context", "shortest-context"):
            raise ValueError(f"unknown reschedule_policy {self.reschedule_policy!r}")
        if self.colocation_mode not in ("sbd", "hybrid", "static-partition"):
            raise ValueError(f"unknown colocation_mode {self.colocation_mode!r}")
        if not 0.05 <= self.static_partition_fraction <= 0.95:
            raise ValueError("static_partition_fraction must be in [0.05, 0.95]")

    def resolve_threshold(self, ttft_slo: float) -> float:
        """The dispatch threshold ``thrd`` in seconds."""
        return self.dispatch_threshold_frac * ttft_slo
