"""The configuration surface: only values some caller varies are fields.

Every other timer or size is a module constant of the one module that
reads it, so adding a field here is a deliberate API change.
"""

from dataclasses import fields

from repro.core import LwgConfig
from repro.vsync import VsyncConfig


def field_names(config_class):
    return {f.name for f in fields(config_class)}


def test_lwg_config_fields():
    assert field_names(LwgConfig) == {
        "k_m",
        "k_c",
        "policy_period_us",
        "shrink_grace_us",
        "placement_policy",
        "placement_max_switches",
        "enable_policies",
        "enable_reconciliation",
        "coordinator_silence_us",
    }


def test_vsync_config_fields():
    assert field_names(VsyncConfig) == {
        "heartbeat_period_us",
        "fd_timeout_us",
    }


def test_no_scaled_helpers():
    assert not hasattr(LwgConfig, "scaled")
    assert not hasattr(VsyncConfig, "scaled")
