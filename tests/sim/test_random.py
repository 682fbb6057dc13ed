"""Tests for named random streams."""

from __future__ import annotations

import numpy as np

from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).get("arrivals").random(10)
        b = RandomStreams(7).get("arrivals").random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.get("arrivals").random(10)
        b = streams.get("lengths").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(10)
        b = RandomStreams(2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_stream_cached_per_name(self):
        streams = RandomStreams(0)
        assert streams.get("a") is streams.get("a")

    def test_consuming_one_stream_does_not_affect_another(self):
        s1 = RandomStreams(3)
        s1.get("a").random(1000)  # heavy consumption
        after = s1.get("b").random(5)
        fresh = RandomStreams(3).get("b").random(5)
        np.testing.assert_array_equal(after, fresh)

    def test_seed_property(self):
        assert RandomStreams(42).seed == 42


class TestStreamRegistry:
    def test_registry_records_first_touch_order(self):
        streams = RandomStreams(0)
        streams.get("arrivals")
        streams.get("lengths")
        streams.get("arrivals")  # cached; must not re-register
        assert streams.registry() == ("root/arrivals", "root/lengths")
