"""Failure-reactive TP/PP re-planning (ROADMAP: fleet re-planning).

When the fleet's heartbeat sweep declares a member dead, the survivors are
suddenly over-subscribed — and on a heterogeneous fleet the lost capacity
may be the *fast* kind (trade a lost H100 for two surviving A800s).  The
:class:`FleetReplanner` reacts by widening one surviving member onto its
home node's spare (never-assigned) GPUs: it picks the widest
strictly-wider shape among the placement candidates that fits the slowest
eligible survivor's aggregate GPU budget, and rebuilds that one member
through :meth:`~repro.core.fleet.ServingFleet.replan_member` — which
drains and re-queues the member's in-flight work through the existing
crash-requeue path, so conservation invariants hold by construction.

Dead members' GPUs are deliberately **never** reclaimed: a crashed member
rejoins with its original placement once its fault window closes, so only
spare slots on the survivors' own home nodes are up for grabs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.models.parallelism import ParallelConfig
from repro.serving.placement import PLACEMENT_CANDIDATES, GpuLedger, bind_placement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fleet import ServingFleet


class FleetReplanner:
    """Widens surviving members over spare GPUs when a member dies."""

    def __init__(self) -> None:
        #: One record per executed replan (time, member, placements).
        self.replans: list[dict] = []

    def identity(self) -> str:
        """Fingerprint identity of this replanner's decision procedure."""
        return "greedy"

    # -- the reaction ---------------------------------------------------------

    def on_member_failure(self, fleet: "ServingFleet", dead_index: int) -> None:
        """Re-plan the first eligible survivor onto spare home GPUs."""
        cluster = fleet.cluster
        if cluster is None:
            return
        # Every member's GPUs are taken — including dead members', which
        # rejoin with their original placement when their fault window closes.
        ledger = GpuLedger(
            cluster,
            (g for member in fleet.members for inst in member.instances for g in inst.gpus),
        )
        survivors = [
            i
            for i in range(len(fleet.members))
            if i not in fleet.failed and i not in fleet.crashed
        ]
        # Slowest prefill hardware first: widening an A800 member recovers
        # more of the lost H100's capacity than widening another H100.
        survivors.sort(
            key=lambda i: (
                fleet.members[i].instances[0].gpu.effective_flops
                if fleet.members[i].instances
                else float("inf"),
                i,
            )
        )
        for index in survivors:
            member = fleet.members[index]
            if not hasattr(member, "rebuild_placement"):
                continue
            nodes = fleet.member_nodes(index)
            if len(nodes) != 1:
                continue  # span-node members keep their placement
            node = next(iter(nodes))
            spare = ledger.free_on(node)
            if not spare:
                continue
            own = [g for inst in member.instances for g in inst.gpus]
            choice = self._choose(member, budget=len(own) + len(spare))
            if choice is None:
                continue
            p_cfg, d_cfg = (ParallelConfig(*par) for par in choice)
            # Release-then-claim: the member keeps its lowest ids and
            # widens over the node's lowest spares.
            ledger.release(own)
            prefill_gpus = ledger.claim(node, p_cfg.num_gpus, f"{member.name}'s prefill")
            decode_gpus = ledger.claim(node, d_cfg.num_gpus, f"{member.name}'s decode")
            placement = bind_placement(cluster, prefill_gpus, decode_gpus, p_cfg, d_cfg)
            old_label = member.placement.label()
            requeued = fleet.replan_member(index, placement)
            self.replans.append(
                {
                    "time": fleet.sim.now,
                    "member": member.name,
                    "trigger": fleet.members[dead_index].name,
                    "from": old_label,
                    "to": placement.label(),
                    "requeued": requeued,
                }
            )
            return

    # -- candidate choice -----------------------------------------------------

    def _eligible_candidates(
        self, member, budget: int
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Strictly-wider candidates that fit the budget and never shrink
        either instance (per-instance memory never drops, so the model
        keeps fitting without a trial construction)."""
        cur_p = member.placement.prefill_parallel.num_gpus
        cur_d = member.placement.decode_parallel.num_gpus
        out = []
        for p_par, d_par in PLACEMENT_CANDIDATES:
            p = p_par[0] * p_par[1]
            d = d_par[0] * d_par[1]
            if p + d > budget or p < cur_p or d < cur_d or p + d <= cur_p + cur_d:
                continue
            out.append((p_par, d_par))
        return out

    def _choose(
        self, member, budget: int
    ) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
        eligible = self._eligible_candidates(member, budget)
        if not eligible:
            return None
        # Analytic greedy: widest total, then decode-heavy (decode is the
        # IO-bound side that absorbs the re-routed backlog), then prefill.
        return max(
            eligible,
            key=lambda c: (
                c[0][0] * c[0][1] + c[1][0] * c[1][1],
                c[1][0] * c[1][1],
                c[0][0] * c[0][1],
            ),
        )
