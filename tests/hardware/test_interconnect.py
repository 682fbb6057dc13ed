"""Tests for link bandwidth reservation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hardware.interconnect import GB, Link, LinkType


def pcie_link() -> Link:
    return Link("pcie", LinkType.PCIE_SWITCH, bandwidth_gbps=32.0)


class TestTransferDuration:
    def test_zero_bytes_is_latency_only(self):
        link = pcie_link()
        assert link.transfer_duration(0) == pytest.approx(link.latency_s)

    def test_duration_scales_linearly(self):
        link = pcie_link()
        small = link.transfer_duration(GB) - link.latency_s
        large = link.transfer_duration(4 * GB) - link.latency_s
        assert large == pytest.approx(4 * small)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            pcie_link().transfer_duration(-1)

    def test_paper_worked_example(self):
        """1.5 GB over PCIe Gen4 x16 takes ~65 ms (paper §2.2)."""
        link = pcie_link()
        ms = link.transfer_duration(int(1.5 * GB)) * 1e3
        assert 55 <= ms <= 80

    def test_nvlink_much_faster_than_pcie(self):
        nvlink = Link("nv", LinkType.NVLINK_BRIDGE, bandwidth_gbps=200.0)
        assert nvlink.transfer_duration(GB) < pcie_link().transfer_duration(GB) / 4


class TestReservation:
    def test_idle_link_starts_immediately(self):
        link = pcie_link()
        res = link.reserve(now=5.0, nbytes=GB)
        assert res.start == 5.0
        assert res.finish > 5.0

    def test_back_to_back_serialization(self):
        link = pcie_link()
        first = link.reserve(0.0, GB)
        second = link.reserve(0.0, GB)
        assert second.start == pytest.approx(first.finish)

    def test_reservation_after_drain_starts_at_now(self):
        link = pcie_link()
        first = link.reserve(0.0, GB)
        later = first.finish + 10.0
        second = link.reserve(later, GB)
        assert second.start == later

    def test_counters(self):
        link = pcie_link()
        link.reserve(0.0, 100)
        link.reserve(0.0, 200)
        assert link.bytes_transferred == 300
        assert link.transfer_count == 2

    def test_utilization_bounded(self):
        link = pcie_link()
        link.reserve(0.0, 10 * GB)
        assert 0.0 <= link.utilization(horizon=0.1) <= 1.0
        assert link.utilization(horizon=0.0) == 0.0

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("bad", LinkType.PCIE_SWITCH, bandwidth_gbps=0.0)


@given(sizes=st.lists(st.integers(0, 10 * GB), min_size=1, max_size=20))
def test_property_fifo_reservations_never_overlap(sizes):
    link = pcie_link()
    reservations = [link.reserve(0.0, s) for s in sizes]
    for earlier, later in zip(reservations, reservations[1:]):
        assert later.start >= earlier.finish - 1e-12
        assert later.duration >= 0
