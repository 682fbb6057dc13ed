"""Tests for WindServe configuration."""

from __future__ import annotations

import pytest

from repro.core.config import RESCHEDULE_STOP_FRAC, RESCHEDULE_WATERMARK_FRAC, WindServeConfig


class TestThresholdResolution:
    def test_derived_from_slo(self):
        """Paper: 'we set the threshold slightly below the TTFT SLO'."""
        cfg = WindServeConfig()
        assert cfg.resolve_threshold(1.0) == pytest.approx(0.9)
        assert cfg.resolve_threshold(1.0) < 1.0


class TestDefaults:
    def test_all_features_on_by_default(self):
        cfg = WindServeConfig()
        assert cfg.colocation_mode == "sbd"
        assert cfg.rescheduling_enabled
        assert cfg.dispatch_enabled
        assert cfg.backup_enabled
        assert cfg.async_transfer

    def test_watermark_below_stop_fraction(self):
        assert RESCHEDULE_WATERMARK_FRAC < RESCHEDULE_STOP_FRAC

    def test_frozen(self):
        with pytest.raises(AttributeError):
            WindServeConfig().colocation_mode = "hybrid"  # type: ignore[misc]
