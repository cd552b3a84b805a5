"""Multicell massive-MIMO sum-rate simulator and power-allocation library.

Modules:
    topology    hexagonal layout, user drops, large-scale fading
    mcrate      Monte Carlo ergodic rates under ZF receivers/precoders
    closedform  uplink rate bounds/approximation, downlink lower bound
    allocation  water-filling, strategy coefficients and the four strategies
    network     scheduled per-cell rounds and the joint benchmark
    cli         seeded batch experiments with CSV/manifest outputs
"""

from .allocation import (
    WaterfillCoefficients,
    WaterfillResult,
    downlink_alloc,
    equal_alloc,
    relative_gain,
    uplink_alloc_approx,
    uplink_alloc_lower_bound,
    uplink_alloc_upper_bound,
    waterfill,
)
from .closedform import (
    DownlinkProfile,
    InterferenceProfile,
    downlink_lower_bound,
    downlink_profile,
    uplink_approximation,
    uplink_lower_bound,
    uplink_profile,
    uplink_upper_bound,
)
from .mcrate import (
    RateEstimate,
    downlink_rate_mc,
    uplink_rate_mc,
)
from .network import (
    JointResult,
    NetworkState,
    PowerAllocation,
    network_sum_rate,
    run_joint,
    run_scheduled,
)
from .topology import (
    CellTopology,
    NetworkConfig,
    build_topology,
    schedule_groups,
)

__version__ = "0.1.0"

__all__ = [
    "CellTopology",
    "DownlinkProfile",
    "InterferenceProfile",
    "JointResult",
    "NetworkConfig",
    "NetworkState",
    "PowerAllocation",
    "RateEstimate",
    "WaterfillCoefficients",
    "WaterfillResult",
    "build_topology",
    "downlink_alloc",
    "downlink_lower_bound",
    "downlink_profile",
    "downlink_rate_mc",
    "equal_alloc",
    "network_sum_rate",
    "relative_gain",
    "run_joint",
    "run_scheduled",
    "schedule_groups",
    "uplink_alloc_approx",
    "uplink_alloc_lower_bound",
    "uplink_alloc_upper_bound",
    "uplink_approximation",
    "uplink_lower_bound",
    "uplink_profile",
    "uplink_rate_mc",
    "uplink_upper_bound",
    "waterfill",
]
