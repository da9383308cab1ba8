"""Gate delay models for static timing analysis.

Two models are provided.  :class:`UnitDelay` counts logic levels — handy in
tests where hand-computable numbers matter.  :class:`LibraryDelay` is the
default linear model: a gate's propagation delay is its cell's intrinsic
delay plus a load term proportional to the capacitance of everything the
gate drives (consumer input pins plus primary-output pad load).  This is
the same first-order model behind the paper's ABC-reported delays, and it
is what makes fingerprint modifications *cost* delay: widening a cell both
raises its intrinsic delay (bigger cell) and adds load to the trigger net.
"""

from __future__ import annotations

from typing import Protocol

from ..netlist.circuit import Circuit, Gate

#: Capacitive load presented by one primary-output pad.
OUTPUT_PAD_LOAD = 2.0


class DelayModel(Protocol):
    """Computes one gate's propagation delay inside a circuit.

    Locality contract: a gate's delay may depend only on its own cell, the
    input pins of its consumers (their cells and how many pins the gate
    drives on each), whether it is a primary output, and the logic levels
    of the gate itself and of its consumers.  Accordingly, a model may
    query ``circuit`` only through ``gate(name)`` for the gate's
    consumers, ``fanouts(gate.name)``, ``is_output(gate.name)`` and
    ``levels()``.  :class:`repro.timing.sta.TimingEngine` relies on this:
    after an edit it recomputes only the delays the contract lets change,
    and it passes itself as ``circuit``, answering those four queries from
    its incrementally maintained state.  :class:`UnitDelay`,
    :class:`LibraryDelay` and :class:`WireDelay` all meet the contract.
    """

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        """Propagation delay of ``gate`` in ``circuit``, in ns."""
        ...


class UnitDelay:
    """Every gate takes one time unit; constants take zero."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        if gate.kind in ("CONST0", "CONST1"):
            return 0.0
        return 1.0


class LibraryDelay:
    """Linear delay: ``intrinsic + load_coefficient * driven_capacitance``."""

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        load = 0.0
        for consumer_name in circuit.fanouts(gate.name):
            consumer = circuit.gate(consumer_name)
            # A net may enter the same consumer on several pins.
            pins = sum(1 for n in consumer.inputs if n == gate.name)
            load += pins * consumer.cell.input_cap
        if circuit.is_output(gate.name):
            load += OUTPUT_PAD_LOAD
        return gate.cell.intrinsic_delay + gate.cell.load_delay * load


class WireDelay(LibraryDelay):
    """Library delay plus interconnect delay for long routes.

    A gate driving a consumer many logic levels away needs a physically
    long wire; the accumulated route capacitance slows the *driver*, and
    therefore every path through it.  We charge the driver
    ``per_level * sum(span)`` where each consumer contributes
    ``max(0, level(consumer) - level(driver) - 1)`` — locally-consumed
    nets pay nothing, and every additional long tap adds cost.

    This is the first-order reason the paper's fingerprint reroutes are
    expensive: the ODC trigger is deliberately tapped at the *earliest*
    logic level and hauled to a *deep* target gate — a cross-layout route
    whose RC burdens the trigger's (early, widely shared) driver.  It is
    what makes the measured delay overhead dominate area and power, as in
    the paper's Table II, and what the reactive heuristic then claws back
    by removing exactly the taps that burden the critical path.
    """

    def __init__(self, per_level: float = 0.30) -> None:
        if per_level < 0:
            raise ValueError("per_level must be >= 0")
        self.per_level = per_level

    def gate_delay(self, circuit: Circuit, gate: Gate) -> float:
        base = LibraryDelay.gate_delay(self, circuit, gate)
        if self.per_level == 0:
            return base
        levels = circuit.levels()
        my_level = levels.get(gate.name, 0)
        total_span = 0
        for consumer in circuit.fanouts(gate.name):
            span = levels.get(consumer, 0) - my_level - 1
            if span > 0:
                total_span += span
        return base + self.per_level * total_span


#: Shared default instances.
UNIT_DELAY = UnitDelay()
LIBRARY_DELAY = LibraryDelay()
WIRE_DELAY = WireDelay()

#: Model used when callers do not specify one.
DEFAULT_DELAY_MODEL = WIRE_DELAY
