"""Applying fingerprint configurations to a circuit (and removing them).

A :class:`FingerprintedCircuit` wraps a mutable clone of the golden design
together with the location catalog.  Applying a slot variant widens the
target gate with the variant's literal(s); complemented literals share
inverters (reference-counted so removal is exact).  The reactive overhead
heuristic relies on :meth:`FingerprintedCircuit.remove` reverting a slot
bit-exactly to the original structure.

The module also provides the paper's default *full embedding* policy: one
modification per location, choosing the deepest slot target (the paper
picks the highest-depth gate so the rerouted signal is needed as late as
possible).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import telemetry
from ..netlist.circuit import Circuit, Gate
from .locations import LocationCatalog
from .modifications import Slot
from ..errors import ReproError


class EmbeddingError(ReproError, ValueError):
    """Invalid slot/variant selection or inconsistent embedding state."""


class FingerprintedCircuit:
    """A fingerprint copy under construction or analysis."""

    def __init__(
        self,
        base: Circuit,
        catalog: LocationCatalog,
        name: Optional[str] = None,
    ) -> None:
        self.base = base
        self.catalog = catalog
        self.circuit = base.clone(name or f"{base.name}_fp")
        self._slot_of: Dict[str, Slot] = {s.target: s for s in catalog.slots()}
        self._applied: Dict[str, int] = {}
        self._original: Dict[str, Gate] = {}
        self._inverter_of: Dict[str, str] = {}
        self._inverter_refs: Dict[str, int] = {}
        # Inverters already present in the golden design, reused for
        # complemented literals instead of minting structural twins
        # (cheaper, and keeps the netlist twin-free for structural
        # matching).  Slot targets are excluded — a reused inverter must
        # never itself be widened — matching the catalog-build decisions
        # (see find_locations), and acyclicity is guaranteed by the
        # catalog's forward-level discipline.
        from .modifications import inverter_index

        self._base_inverter_of: Dict[str, str] = inverter_index(
            base, excluded=frozenset(self._slot_of)
        )

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def applied(self) -> Dict[str, int]:
        """Active modifications: target gate -> 1-based variant index."""
        return dict(self._applied)

    def assignment(self) -> Dict[str, int]:
        """Configuration of *every* slot (0 = unmodified)."""
        return {
            slot.target: self._applied.get(slot.target, 0)
            for slot in self.catalog.slots()
        }

    def slot(self, target: str) -> Slot:
        try:
            return self._slot_of[target]
        except KeyError:
            raise EmbeddingError(f"gate {target!r} is not a slot target")

    # ------------------------------------------------------------------ #
    # inverter sharing
    # ------------------------------------------------------------------ #

    def _inverted_net(self, source: str, touched: List[str]) -> str:
        existing = self._base_inverter_of.get(source)
        if existing is not None:
            return existing  # golden inverter: shared, never removed
        net = self._inverter_of.get(source)
        if net is not None:
            self._inverter_refs[net] += 1
            return net
        net = f"fp_inv_{source}"
        suffix = 0
        while self.circuit.has_net(net):
            suffix += 1
            net = f"fp_inv_{source}_{suffix}"
        self.circuit.add_gate(net, "INV", [source])
        touched.append(net)
        self._inverter_of[source] = net
        self._inverter_refs[net] = 1
        return net

    def _release_inverted(self, net: str, touched: List[str]) -> None:
        self._inverter_refs[net] -= 1
        if self._inverter_refs[net] == 0:
            gate = self.circuit.gate(net)
            self.circuit.remove_gate(net)
            touched.append(net)
            del self._inverter_refs[net]
            del self._inverter_of[gate.inputs[0]]

    # ------------------------------------------------------------------ #
    # apply / remove
    # ------------------------------------------------------------------ #

    def apply(self, target: str, variant_index: int) -> List[str]:
        """Set slot ``target`` to 1-based ``variant_index`` (0 removes).

        Returns the nets whose driving gate was added, removed or replaced
        — the target plus any inverter created or released — in mutation
        order, the form :meth:`repro.timing.sta.TimingEngine.update` takes.
        """
        slot = self.slot(target)
        if variant_index == 0:
            if target in self._applied:
                return self.remove(target)
            return []
        if not 1 <= variant_index <= len(slot.variants):
            raise EmbeddingError(
                f"slot {target}: variant {variant_index} out of range "
                f"1..{len(slot.variants)}"
            )
        touched = self.remove(target) if target in self._applied else []
        variant = slot.variants[variant_index - 1]
        original = self.circuit.gate(target)
        added: List[str] = []
        for literal in variant.literals:
            if literal.positive:
                added.append(literal.net)
            else:
                added.append(self._inverted_net(literal.net, touched))
        new_inputs = list(original.inputs) + added
        self.circuit.replace_gate(target, variant.kind, new_inputs)
        touched.append(target)
        self._original[target] = original
        self._applied[target] = variant_index
        return touched

    def remove(self, target: str) -> List[str]:
        """Revert slot ``target`` to its original gate.

        Returns the touched nets in mutation order, as :meth:`apply` does.
        """
        if target not in self._applied:
            raise EmbeddingError(f"slot {target!r} has no active modification")
        variant = self.slot(target).variants[self._applied[target] - 1]
        current = self.circuit.gate(target)
        original = self._original.pop(target)
        self.circuit.replace_gate(
            target, original.kind, original.inputs, cell=original.cell
        )
        touched = [target]
        # Release fingerprint-created inverters that backed complemented
        # literals (reused golden inverters are left alone).
        extra = list(current.inputs[len(original.inputs):])
        for literal, net in zip(variant.literals, extra):
            if not literal.positive and net in self._inverter_refs:
                self._release_inverted(net, touched)
        del self._applied[target]
        return touched

    def apply_assignment(self, assignment: Dict[str, int]) -> None:
        """Apply a full target->configuration map (0 entries are cleared)."""
        for target, variant_index in assignment.items():
            self.apply(target, variant_index)

    def clear(self) -> None:
        """Remove every active modification."""
        for target in list(self._applied):
            self.remove(target)

    @property
    def n_active(self) -> int:
        """Number of slots currently modified."""
        return len(self._applied)

    def __repr__(self) -> str:
        return (
            f"FingerprintedCircuit({self.base.name!r}, "
            f"active={self.n_active}/{len(self._slot_of)})"
        )


def representative_slots(
    base: Circuit, catalog: LocationCatalog
) -> List[Slot]:
    """One slot per location: the deepest target (paper Fig. 6, line 13)."""
    levels = base.levels()
    chosen = []
    for location in catalog:
        slot = max(location.slots, key=lambda s: (levels.get(s.target, 0), s.target))
        chosen.append(slot)
    return chosen


def full_assignment(
    base: Circuit,
    catalog: LocationCatalog,
    variant_index: int = 1,
) -> Dict[str, int]:
    """The paper's maximal embedding: every location modified once.

    Uses the first (direct, when available) variant of each location's
    representative slot; all other slots stay at configuration 0.
    """
    assignment = {slot.target: 0 for slot in catalog.slots()}
    for slot in representative_slots(base, catalog):
        index = min(variant_index, len(slot.variants))
        assignment[slot.target] = index
    return assignment


def embed(
    base: Circuit,
    catalog: LocationCatalog,
    assignment: Dict[str, int],
    name: Optional[str] = None,
) -> FingerprintedCircuit:
    """Produce a fingerprint copy realizing ``assignment``."""
    with telemetry.span("fingerprint.embed", design=base.name) as embed_span:
        copy = FingerprintedCircuit(base, catalog, name=name)
        copy.apply_assignment(assignment)
        copy.circuit.validate()
        embed_span.set(modifications=copy.n_active)
    telemetry.count("fingerprint.embeds")
    telemetry.count("fingerprint.modifications", copy.n_active)
    return copy
