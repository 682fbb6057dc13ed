"""What a fault plan can hit: one scope per kind of run target.

A :class:`SystemScope` (one serving system; its units are instances) or a
:class:`FleetScope` (a fleet; its units are member indices) holds all that
differs between the two: how a target name resolves to units and links,
the crash, restart and failure-notice calls, and the injector's trace
component.  :func:`scope_of` picks one; the injector and the heartbeat
monitor never branch on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fleet import ServingFleet
    from repro.hardware.interconnect import Link
    from repro.serving.instance import Instance
    from repro.serving.system import ServingSystem


def _unique(links) -> list["Link"]:
    """``links`` without repeats, in first-seen order."""
    return list({link.name: link for link in links}.values())


class SystemScope:
    """Faults inside one serving system: the units are its instances."""

    component = "fault-injector"
    #: The heartbeat monitor reads a unit's ground-truth failure here.
    down_attr = "failed"

    def __init__(self, system: "ServingSystem") -> None:
        self.system = system

    def systems(self) -> list["ServingSystem"]:
        return [self.system]

    def units(self, target: str) -> list["Instance"]:
        system = self.system
        for instance in system.instances:
            if instance.name == target:
                return [instance]
        if target == "prefill":
            return [getattr(system, "prefill_instance", system.instances[0])]
        if target == "decode":
            return [getattr(system, "decode_instance", system.instances[-1])]
        raise ValueError(
            f"fault target {target!r} matches no instance of {system.name!r} "
            f"(known: {[i.name for i in system.instances]})"
        )

    def links(self, target: str) -> list["Link"]:
        system = self.system
        topology = system.topology
        if target.startswith("host:"):
            (instance,) = self.units(target.split(":", 1)[1])
            return _unique(
                link for gpu in instance.gpus for link in topology.host_path(gpu).links
            )
        if target == "pd":
            instances = system.instances
            if len(instances) >= 2:
                src, dst = instances[0], instances[-1]
                return _unique(
                    link
                    for s in src.gpus
                    for d in dst.gpus
                    for link in topology.path(s, d).links
                )
            # Single-instance systems: the swap path is the only KV traffic.
            return self.links(f"host:{instances[0].name}")
        raise ValueError(f"unknown link fault target {target!r}")

    def name(self, instance: "Instance") -> str:
        return instance.name

    def instances(self, instance: "Instance") -> list["Instance"]:
        return [instance]

    def tag(self, instance: "Instance") -> dict[str, Any]:
        return {}

    def down(self, instance: "Instance") -> Optional[bool]:
        """Whether ``instance`` has crashed; None while the system is halted
        (then neither a crash nor a recovery applies)."""
        return None if self.system.halted else instance.failed

    def crash(self, instance: "Instance") -> None:
        self.system.register_crash(instance, instance.fail())

    def restart(self, instance: "Instance") -> None:
        instance.recover()

    def watch(self) -> Optional[tuple[list["Instance"], frozenset]]:
        """The units to heartbeat and the keys to skip, or None once halted
        (``notice_failure`` ignores a repeat itself, so none are skipped)."""
        system = self.system
        return None if system.halted else (system.instances, frozenset())

    def notice(self, key: int, instance: "Instance") -> None:
        self.system.notice_failure(instance)


class FleetScope:
    """Cluster-scope faults: the units are fleet member indices."""

    component = "fleet-fault-injector"
    down_attr = "halted"

    def __init__(self, fleet: "ServingFleet") -> None:
        self.fleet = fleet

    def systems(self) -> list["ServingSystem"]:
        return self.fleet.members

    def units(self, target: str) -> list[int]:
        fleet = self.fleet
        if target.startswith("member:"):
            key = target.split(":", 1)[1]
            for index, member in enumerate(fleet.members):
                if member.name == key:
                    return [index]
            if key.isdigit() and int(key) < len(fleet.members):
                return [int(key)]
            raise ValueError(
                f"fault target {target!r} matches no fleet member "
                f"(known: {[m.name for m in fleet.members]})"
            )
        if target.startswith("node:"):
            node = int(target.split(":", 1)[1])
            members = fleet.members_on_node(node)
            if not members:
                raise ValueError(f"no fleet member has a GPU on node {node}")
            return members
        raise ValueError(f"unknown fleet fault target {target!r}")

    def links(self, target: str) -> list["Link"]:
        if not target.startswith("nic:"):
            raise ValueError(
                f"fleet link faults target NICs ('nic:<node>'); got {target!r}"
            )
        cluster = self.fleet.cluster
        if cluster is None:
            raise ValueError("nic fault targets need a ClusterTopology fleet")
        return [cluster.nic(int(target.split(":", 1)[1]))]

    def name(self, index: int) -> str:
        return self.fleet.members[index].name

    def instances(self, index: int) -> list["Instance"]:
        return self.fleet.members[index].instances

    def tag(self, index: int) -> dict[str, Any]:
        return {"member": self.name(index)}

    def down(self, index: int) -> bool:
        return index in self.fleet.crashed

    def crash(self, index: int) -> None:
        self.fleet.crash_member(index)

    def restart(self, index: int) -> None:
        self.fleet.restart_member(index)

    def watch(self) -> tuple[list["ServingSystem"], set[int]]:
        """The members to heartbeat, and the indices already declared dead."""
        fleet = self.fleet
        return fleet.members, fleet.failed

    def notice(self, key: int, member: "ServingSystem") -> None:
        self.fleet.notice_member_failure(key)


def scope_of(target) -> SystemScope | FleetScope:
    """The scope for a run target: a target with ``members`` is a fleet."""
    return FleetScope(target) if hasattr(target, "members") else SystemScope(target)
