"""Static timing analysis: arrival, required time, slack, critical path.

Arrival times propagate forward from primary inputs (time 0); required
times propagate backward from primary outputs, whose required time is the
circuit's own critical delay (zero-slack critical path convention, as in
ABC's ``print_stats``).  Slack information drives the paper's *proactive*
overhead heuristic, which refuses fingerprint modifications that would eat
more slack than the delay budget allows.

:class:`TimingEngine` holds the timing picture of one live circuit —
topological positions, fanouts, levels, gate delays and arrivals — and
keeps it current under local edits.  After :meth:`TimingEngine.update`
with the nets an edit touched, levels and arrivals are recomputed only in
their fanout cone, and gate delays only where the :class:`DelayModel`
locality contract says they can change.  The overhead heuristics time
every trial modification this way.  :func:`analyze` is an engine build
plus :meth:`TimingEngine.report`, so full and incremental timing share one
implementation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .. import telemetry
from ..netlist.circuit import Circuit, Gate
from .delay_models import DEFAULT_DELAY_MODEL, DelayModel


@dataclass
class TimingReport:
    """Full STA result for one circuit under one delay model."""

    critical_delay: float
    arrival: Dict[str, float]
    required: Dict[str, float]
    gate_delays: Dict[str, float]
    critical_path: List[str] = field(default_factory=list)

    def slack(self, net: str) -> float:
        """Required minus arrival time of ``net``."""
        return self.required[net] - self.arrival[net]

    def slacks(self) -> Dict[str, float]:
        """Slack of every net."""
        return {net: self.required[net] - self.arrival[net] for net in self.arrival}

    def worst_slack(self) -> float:
        """Minimum slack (0.0 under the zero-slack convention)."""
        return min(self.required[n] - self.arrival[n] for n in self.arrival)


class TimingEngine:
    """Incrementally maintained arrival times of one circuit.

    The engine tracks ``circuit`` through :meth:`update`: every mutation
    of the circuit must be reported there, as the nets it added, removed
    or replaced, in the order they were mutated.  Fanout lists keep the
    circuit's own consumer order, so load sums — and therefore every
    delay and arrival — are bit-identical to a fresh build.

    ``order`` optionally names the gates of a *superset* netlist in
    topological order (e.g. the maximal fingerprint embedding).  Its
    positions stay valid for every circuit made of a subset of that
    netlist's edges, so edits inside the set never reorder anything; an
    edit that breaks the positions rebuilds the engine from the circuit.

    The engine answers the circuit queries a :class:`DelayModel` may make
    (``gate``, ``fanouts``, ``is_output``, ``levels``) from its own state,
    so recomputing a delay never re-derives whole-circuit tables.
    """

    def __init__(
        self,
        circuit: Circuit,
        model: Optional[DelayModel] = None,
        order: Optional[Sequence[str]] = None,
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else DEFAULT_DELAY_MODEL
        self._build(order)

    # ------------------------------------------------------------------ #
    # the circuit queries a delay model may make
    # ------------------------------------------------------------------ #

    def gate(self, name: str) -> Gate:
        """The current gate driving ``name``."""
        return self._gates[name]

    def fanouts(self, net: str) -> List[str]:
        """Consumers of ``net``, once per pin, in circuit order (read-only)."""
        return self._fanouts.get(net, [])

    def is_output(self, net: str) -> bool:
        """True when ``net`` is a primary output."""
        return net in self._output_set

    def levels(self) -> Dict[str, int]:
        """Logic level of every net (read-only)."""
        return self._levels

    # ------------------------------------------------------------------ #
    # build / update
    # ------------------------------------------------------------------ #

    def _build(self, order: Optional[Sequence[str]] = None) -> None:
        circuit = self.circuit
        gates = circuit.topological_order()
        self._gates: Dict[str, Gate] = {g.name: g for g in gates}
        self._outputs = circuit.outputs
        self._output_set = frozenset(self._outputs)
        # The circuit's version-cached tables, shared until the first
        # update() copies them: a one-off analysis allocates no copies.
        self._fanouts: Dict[str, List[str]] = circuit.fanouts()
        self._levels: Dict[str, int] = circuit.levels()
        self._shared = True
        positions = {net: -1 for net in circuit.inputs}
        positions.update((name, i) for i, name in enumerate(order or ()))
        if not all(self._edges_ordered(g, positions) for g in gates):
            # No usable order given: lay out in the circuit's own order.
            positions = {net: -1 for net in circuit.inputs}
            positions.update((g.name, i) for i, g in enumerate(gates))
        self._pos = positions

        delay = self.model.gate_delay
        self._delays: Dict[str, float] = {g.name: delay(self, g) for g in gates}
        arrival: Dict[str, float] = {net: 0.0 for net in circuit.inputs}
        for gate in gates:
            arrival[gate.name] = self._arrival_of(gate, arrival)
        self._arrival = arrival
        telemetry.count("timing.builds")

    def _edges_ordered(self, gate: Gate, positions: Dict[str, int]) -> bool:
        mine = positions.get(gate.name)
        if mine is None:
            return False
        for net in gate.inputs:
            theirs = positions.get(net)
            if theirs is None or theirs >= mine:
                return False
        return True

    def _arrival_of(self, gate: Gate, arrival: Dict[str, float]) -> float:
        delay = self._delays[gate.name]
        if gate.inputs:
            return delay + max(arrival[n] for n in gate.inputs)
        return delay

    def update(self, touched: Iterable[str]) -> None:
        """Bring the engine up to date after the circuit edits ``touched``.

        ``touched`` lists every net whose driving gate was added, removed
        or replaced since the last update, in mutation order (repeats
        allowed).  Other nets are assumed unchanged.  Each listed net goes
        to the back of its drivers' consumer lists, as a re-inserted gate
        goes to the back of the circuit, so list only nets really mutated.
        """
        telemetry.count("timing.updates")
        if self._shared:
            self._fanouts = {net: list(c) for net, c in self._fanouts.items()}
            self._levels = dict(self._levels)
            self._shared = False
        circuit = self.circuit
        gates = self._gates
        fanouts = self._fanouts
        pos = self._pos
        seeds: List[str] = []
        load_changed = set()
        for net in touched:
            old = gates.pop(net, None)
            new = circuit.driver(net)
            if old is not None:
                for source in set(old.inputs):
                    consumers = fanouts[source]
                    consumers[:] = [c for c in consumers if c != net]
                load_changed.update(old.inputs)
            if new is None:
                self._levels.pop(net, None)
                self._delays.pop(net, None)
                self._arrival.pop(net, None)
                continue
            if not self._edges_ordered(new, pos):
                self._build()
                return
            gates[net] = new
            for source in new.inputs:
                fanouts.setdefault(source, []).append(net)
            load_changed.update(new.inputs)
            seeds.append(net)

        levels = self._levels
        relevelled = self._propagate(
            seeds,
            lambda gate: 1 + max(levels[n] for n in gate.inputs) if gate.inputs else 0,
            levels,
        )
        stale = load_changed.union(seeds, relevelled)
        for name in relevelled:
            stale.update(gates[name].inputs)
        delays = self._delays
        delay = self.model.gate_delay
        retimed = list(seeds)
        for name in stale:
            gate = gates.get(name)
            if gate is None:
                continue  # a primary input, or a net just removed
            value = delay(self, gate)
            if delays.get(name) != value:
                delays[name] = value
                retimed.append(name)
        arrival = self._arrival
        self._propagate(retimed, lambda gate: self._arrival_of(gate, arrival), arrival)

    def _propagate(self, seeds: Iterable[str], evaluate, values: dict) -> List[str]:
        """Re-evaluate ``seeds`` and, transitively, consumers whose inputs moved.

        Gates are visited in position order, so each is evaluated after
        all of its changed drivers.  Returns the gates whose value changed.
        """
        gates = self._gates
        fanouts = self._fanouts
        pos = self._pos
        heap = [(pos[name], name) for name in set(seeds)]
        heapq.heapify(heap)
        queued = {name for _, name in heap}
        changed: List[str] = []
        while heap:
            _, name = heapq.heappop(heap)
            value = evaluate(gates[name])
            if values.get(name) == value:
                continue
            values[name] = value
            changed.append(name)
            for consumer in fanouts.get(name, ()):
                if consumer not in queued:
                    queued.add(consumer)
                    heapq.heappush(heap, (pos[consumer], consumer))
        return changed

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def critical_delay(self) -> float:
        """Latest primary-output arrival (0.0 for an empty circuit)."""
        arrival = self._arrival
        if not arrival:
            return 0.0
        output_arrivals = [arrival[n] for n in self._outputs if n in arrival]
        return max(output_arrivals) if output_arrivals else max(arrival.values())

    def critical_path(self) -> List[str]:
        """Nets on one maximal-delay path, PI side first."""
        arrival = self._arrival
        if not arrival:
            return []
        outputs = [n for n in self._outputs if n in arrival] or list(arrival)
        current = max(outputs, key=arrival.__getitem__)
        path = [current]
        while True:
            gate = self._gates.get(current)
            if gate is None or not gate.inputs:
                break
            current = max(gate.inputs, key=arrival.__getitem__)
            path.append(current)
        path.reverse()
        return path

    def report(self) -> TimingReport:
        """Snapshot of the full timing picture, required times included."""
        critical = self.critical_delay()
        required: Dict[str, float] = {net: critical for net in self._arrival}
        order = sorted(self._gates, key=self._pos.__getitem__)
        for name in reversed(order):
            gate = self._gates[name]
            budget = required[name] - self._delays[name]
            for net in gate.inputs:
                if budget < required[net]:
                    required[net] = budget
        return TimingReport(
            critical_delay=critical,
            arrival=dict(self._arrival),
            required=required,
            gate_delays=dict(self._delays),
            critical_path=self.critical_path(),
        )


def analyze(circuit: Circuit, model: Optional[DelayModel] = None) -> TimingReport:
    """Run STA and return a :class:`TimingReport`.

    An empty circuit reports zero delay.
    """
    with telemetry.span("timing.sta", design=circuit.name, gates=circuit.n_gates):
        report = _analyze(circuit, model)
    telemetry.count("timing.analyses")
    return report


def _analyze(circuit: Circuit, model: Optional[DelayModel]) -> TimingReport:
    return TimingEngine(circuit, model).report()


def critical_delay(circuit: Circuit, model: Optional[DelayModel] = None) -> float:
    """The circuit's critical-path delay (convenience wrapper)."""
    return analyze(circuit, model).critical_delay


def critical_path_nets(circuit: Circuit, model: Optional[DelayModel] = None) -> List[str]:
    """Nets on one maximal-delay path, PI side first."""
    return analyze(circuit, model).critical_path
