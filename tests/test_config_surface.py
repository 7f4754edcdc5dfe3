"""The configuration surface: only values some caller varies are fields.

Every other timer or size is a module constant of the one module that
reads it, so adding a field or a constructor option here is a deliberate
API change, and a removed option cannot come back unnoticed.
"""

import inspect
from dataclasses import fields

from repro.core import LwgConfig
from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.sim import Network
from repro.sim.process import SimRuntime
from repro.vsync import VsyncConfig
from repro.workloads import Cluster


def field_names(config_class):
    return {f.name for f in fields(config_class)}


def test_lwg_config_fields():
    assert field_names(LwgConfig) == {
        "k_m",
        "k_c",
        "policy_period_us",
        "shrink_grace_us",
        "enable_policies",
        "enable_reconciliation",
    }


def test_vsync_config_fields():
    assert field_names(VsyncConfig) == {
        "heartbeat_period_us",
        "fd_timeout_us",
    }


def test_no_scaled_helpers():
    assert not hasattr(LwgConfig, "scaled")
    assert not hasattr(VsyncConfig, "scaled")


def parameter_names(function):
    return list(inspect.signature(function).parameters)


def test_cluster_parameters():
    assert parameter_names(Cluster.__init__) == [
        "self",
        "num_processes",
        "seed",
        "flavour",
        "num_name_servers",
        "lwg_config",
        "vsync_config",
        "link",
        "keep_trace",
        "process_prefix",
        "checkers",
        "env",
        "replication_factor",
    ]


def test_runtime_and_network_parameters():
    assert parameter_names(SimRuntime.create) == ["seed", "link", "keep_trace"]
    assert parameter_names(AsyncioRuntime.create) == ["seed", "keep_trace"]
    assert parameter_names(Network.__init__) == ["self", "sim", "rng", "tracer", "link"]
