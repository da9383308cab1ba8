"""End-to-end fingerprinting pipelines and the verification ladder.

The entry points (`run_flow`, `run_batch_flow`, `run_ladder`) take a
keyword-only :class:`FlowOptions`.  Prefer the :mod:`repro.api` facade.
"""

from .ladder import (
    DEFAULT_SAT_BUDGET,
    LadderConfig,
    LadderResult,
    VerificationReport,
    VerificationTier,
    run_ladder,
)
from .options import FlowOptions
from .batch import (
    BatchError,
    BatchResult,
    CopyRecord,
    run_batch_flow,
    select_values,
)
from .pipeline import FlowResult, run_flow

__all__ = [
    "DEFAULT_SAT_BUDGET",
    "FlowOptions",
    "LadderConfig",
    "LadderResult",
    "VerificationReport",
    "VerificationTier",
    "run_ladder",
    "FlowResult",
    "run_flow",
    "BatchError",
    "BatchResult",
    "CopyRecord",
    "run_batch_flow",
    "select_values",
]
