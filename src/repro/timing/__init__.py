"""Static timing analysis and delay models."""

from .delay_models import (
    DEFAULT_DELAY_MODEL,
    LIBRARY_DELAY,
    OUTPUT_PAD_LOAD,
    UNIT_DELAY,
    WIRE_DELAY,
    DelayModel,
    LibraryDelay,
    UnitDelay,
    WireDelay,
)
from .sta import TimingEngine, TimingReport, analyze, critical_delay, critical_path_nets

__all__ = [
    "DEFAULT_DELAY_MODEL",
    "LIBRARY_DELAY",
    "OUTPUT_PAD_LOAD",
    "UNIT_DELAY",
    "WIRE_DELAY",
    "DelayModel",
    "LibraryDelay",
    "UnitDelay",
    "WireDelay",
    "TimingEngine",
    "TimingReport",
    "analyze",
    "critical_delay",
    "critical_path_nets",
]
