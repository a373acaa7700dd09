"""Discrete-event simulator for Energy-Efficient Ethernet link aggregates.

A bundle of 802.3az ports is fed by a deterministic packet stream; a control
loop re-estimates per-flow rates every sampling period and reallocates flows
across ports under one of six algorithms, three of them aware of low-latency
traffic classes.
"""

from .allocation import (
    Algorithm,
    AllocationPlan,
    BundleConfig,
    FlowEstimate,
    allocate,
    conservative_allocate,
    estimate_rates,
    required_ports,
)
from .eee_port import EeePort, EeePortConfig, PortState, Queue
from .engine import FlowTable, MetricsReport, SimConfig, oracle_simulate, run
from .errors import ConfigError, SimulationFault, TraceError
from .traffic import (
    DEFAULT_LL_DSCPS,
    Packet,
    TrafficClass,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm", "AllocationPlan", "BundleConfig", "FlowEstimate",
    "allocate", "conservative_allocate", "estimate_rates", "required_ports",
    "EeePort", "EeePortConfig", "PortState", "Queue",
    "FlowTable", "MetricsReport", "SimConfig", "oracle_simulate", "run",
    "ConfigError", "SimulationFault", "TraceError",
    "DEFAULT_LL_DSCPS", "Packet", "TrafficClass", "read_trace", "write_trace",
    "__version__",
]
