"""The unified exception hierarchy: one root, structured diagnostics."""

from __future__ import annotations

import pytest

from repro.budget import BudgetError
from repro.cells.functions import UnknownGateKindError
from repro.cells.library import CellNotFoundError
from repro.errors import (
    DesignLoadError,
    FaultInjectionError,
    ReproError,
    TraversalError,
    VerificationError,
    annotate,
)
from repro.fingerprint.embed import EmbeddingError
from repro.fingerprint.fuses import FuseError
from repro.fingerprint.signature import RegistryFullError
from repro.netlist.blif import BlifError
from repro.netlist.circuit import NetlistError
from repro.netlist.sop import SopError
from repro.netlist.verilog import VerilogError
from repro.sat.cnf import CnfError
from repro.sim.equivalence import PortMismatchError
from repro.sim.vectors import StimulusError
from repro.techmap.mapper import MappingError

ALL_ERROR_TYPES = [
    BudgetError,
    BlifError,
    CellNotFoundError,
    CnfError,
    DesignLoadError,
    EmbeddingError,
    FaultInjectionError,
    FuseError,
    MappingError,
    NetlistError,
    PortMismatchError,
    RegistryFullError,
    SopError,
    StimulusError,
    TraversalError,
    UnknownGateKindError,
    VerificationError,
    VerilogError,
]


@pytest.mark.parametrize("error_type", ALL_ERROR_TYPES)
def test_every_library_error_is_a_repro_error(error_type):
    assert issubclass(error_type, ReproError)
    exc = error_type("boom")
    assert isinstance(exc, ReproError)
    assert "boom" in str(exc)


@pytest.mark.parametrize(
    "error_type, builtin",
    [
        (NetlistError, ValueError),
        (BlifError, ValueError),
        (VerilogError, ValueError),
        (MappingError, ValueError),
        (CnfError, ValueError),
        (CellNotFoundError, KeyError),
        (RegistryFullError, RuntimeError),
        (FuseError, RuntimeError),
    ],
)
def test_historical_builtin_bases_are_kept(error_type, builtin):
    """Pre-hierarchy ``except ValueError:`` style handlers keep working."""
    assert issubclass(error_type, builtin)
    with pytest.raises(builtin):
        raise error_type("still catchable the old way")


def test_context_fields_round_trip():
    exc = ReproError("no driver", stage="validate", design="C432", net="n42")
    assert exc.context() == {
        "stage": "validate",
        "design": "C432",
        "net": "n42",
    }
    assert exc.message == "no driver"
    assert exc.gate is None


def test_diagnostic_rendering():
    exc = NetlistError("output 'F' undriven", stage="validate",
                       design="fig1", net="F")
    line = exc.diagnostic()
    assert line.startswith("[validate] NetlistError: output 'F' undriven")
    assert "design='fig1'" in line
    assert "net='F'" in line


def test_diagnostic_without_context_is_bare():
    assert ReproError("plain").diagnostic() == "ReproError: plain"


def test_annotate_fills_only_missing_fields():
    exc = NetlistError("bad", net="n1")
    returned = annotate(exc, stage="embed", design="C880", net="OTHER")
    assert returned is exc
    assert exc.stage == "embed"
    assert exc.design == "C880"
    assert exc.net == "n1"  # raising site wins


def test_annotate_is_idempotent_across_stages():
    exc = ReproError("x")
    annotate(exc, stage="inner")
    annotate(exc, stage="outer", design="d")
    assert exc.stage == "inner"
    assert exc.design == "d"


def test_subclass_keyword_context_passthrough():
    exc = VerilogError("unexpected token", gate="g7", detail={"line": 12})
    assert exc.context()["gate"] == "g7"
    assert exc.detail == {"line": 12}
