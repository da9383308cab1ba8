"""Exact truth-table reasoning, used by the tests as an independent oracle.

The product finds ODC locations with the compiled IR and windowed
simulation + SAT (:mod:`repro.odcwin`).  This module recomputes the same
facts the slow, obviously-correct way — dense truth tables over a small
variable set — so tests can check the engine against them:

* :class:`TruthTable`: a Boolean function as an integer bitmask, with
  cofactors, Boolean difference and the paper's Eq. 1 ODC;
* :func:`local_odc`: one gate input's local ODC set (paper Table I);
* :func:`net_functions` / :func:`global_observability` /
  :func:`global_odc`: exact per-net functions and global observability of
  a small circuit over its primary inputs.

Bit ``r`` of a table is the output under the assignment whose integer
encoding is ``r``, where variable ``i`` (in the table's variable order)
contributes bit ``i`` of ``r``.  Sizes are bounded by :data:`MAX_VARS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.cells import functions
from repro.netlist.circuit import Circuit

#: Largest supported variable count (2**MAX_VARS table rows).
MAX_VARS = 20

#: Variable names used for kind-level (anonymous) ODC tables.
PLACEHOLDER = tuple(f"in{i}" for i in range(12))


class TruthTableError(ValueError):
    """Variable mismatch or size overflow in truth-table operations."""


def _full_mask(n_vars: int) -> int:
    return (1 << (1 << n_vars)) - 1


@dataclass(frozen=True)
class TruthTable:
    """An immutable Boolean function over an ordered variable tuple."""

    variables: Tuple[str, ...]
    bits: int

    def __post_init__(self) -> None:
        if len(self.variables) > MAX_VARS:
            raise TruthTableError(
                f"{len(self.variables)} variables exceed MAX_VARS={MAX_VARS}"
            )
        if len(set(self.variables)) != len(self.variables):
            raise TruthTableError("duplicate variables")
        if self.bits < 0 or self.bits > _full_mask(len(self.variables)):
            raise TruthTableError("bits out of range for variable count")

    @staticmethod
    def constant(value: int, variables: Sequence[str] = ()) -> "TruthTable":
        """Constant 0/1 function over the given variables."""
        variables = tuple(variables)
        return TruthTable(variables, _full_mask(len(variables)) if value else 0)

    @staticmethod
    def variable(name: str, variables: Sequence[str]) -> "TruthTable":
        """Projection onto one variable of ``variables``."""
        variables = tuple(variables)
        index = variables.index(name)
        rows = (row for row in range(1 << len(variables)) if (row >> index) & 1)
        return TruthTable.from_rows(variables, rows)

    @staticmethod
    def from_kind(kind: str, variables: Sequence[str]) -> "TruthTable":
        """Truth table of a gate kind applied to ``variables`` in order."""
        variables = tuple(variables)
        return TruthTable(variables, functions.truth_table(kind, len(variables)))

    @staticmethod
    def from_rows(variables: Sequence[str], rows: Iterable[int]) -> "TruthTable":
        """Build from the set of on-set row indices."""
        variables = tuple(variables)
        bits = 0
        limit = 1 << len(variables)
        for row in rows:
            if not 0 <= row < limit:
                raise TruthTableError(f"row {row} out of range")
            bits |= 1 << row
        return TruthTable(variables, bits)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def evaluate(self, assignment: Dict[str, int]) -> int:
        """Evaluate under a variable->bit assignment."""
        row = 0
        for index, var in enumerate(self.variables):
            if var not in assignment:
                raise TruthTableError(f"missing assignment for {var!r}")
            if assignment[var]:
                row |= 1 << index
        return (self.bits >> row) & 1

    def is_tautology(self) -> bool:
        return self.bits == _full_mask(self.n_vars)

    def is_contradiction(self) -> bool:
        return self.bits == 0

    def on_set_size(self) -> int:
        """Number of satisfying assignments."""
        return bin(self.bits).count("1")

    def on_set(self) -> List[Dict[str, int]]:
        """All satisfying assignments as variable->bit dicts."""
        return [
            {v: (row >> i) & 1 for i, v in enumerate(self.variables)}
            for row in range(1 << self.n_vars)
            if (self.bits >> row) & 1
        ]

    def depends_on(self, name: str) -> bool:
        """True when the function is sensitive to variable ``name``."""
        return not self.boolean_difference(name).is_contradiction()

    def support(self) -> List[str]:
        """Variables the function actually depends on."""
        return [v for v in self.variables if self.depends_on(v)]

    def _aligned(self, other: "TruthTable") -> Tuple["TruthTable", "TruthTable"]:
        if self.variables == other.variables:
            return self, other
        merged = list(self.variables)
        merged += [var for var in other.variables if var not in merged]
        return self.extended(merged), other.extended(merged)

    def extended(self, variables: Sequence[str]) -> "TruthTable":
        """Re-express over a superset/reordering of the variable tuple."""
        variables = tuple(variables)
        for var in self.variables:
            if var not in variables:
                raise TruthTableError(f"extension drops variable {var!r}")
        if variables == self.variables:
            return self
        positions = [variables.index(v) for v in self.variables]
        bits = 0
        for row in range(1 << len(variables)):
            local = 0
            for i, pos in enumerate(positions):
                if (row >> pos) & 1:
                    local |= 1 << i
            if (self.bits >> local) & 1:
                bits |= 1 << row
        return TruthTable(variables, bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.variables, self.bits ^ _full_mask(self.n_vars))

    def __and__(self, other: "TruthTable") -> "TruthTable":
        a, b = self._aligned(other)
        return TruthTable(a.variables, a.bits & b.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        a, b = self._aligned(other)
        return TruthTable(a.variables, a.bits | b.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        a, b = self._aligned(other)
        return TruthTable(a.variables, a.bits ^ b.bits)

    def equivalent(self, other: "TruthTable") -> bool:
        """Semantic equality (over the union of supports)."""
        a, b = self._aligned(other)
        return a.bits == b.bits

    def cofactor(self, name: str, value: int) -> "TruthTable":
        """Shannon cofactor with ``name`` fixed to ``value``.

        The result keeps the full variable tuple; the fixed variable
        simply becomes irrelevant.
        """
        index = self.variables.index(name)
        bits = 0
        for row in range(1 << self.n_vars):
            src = (row | (1 << index)) if value else (row & ~(1 << index))
            if (self.bits >> src) & 1:
                bits |= 1 << row
        return TruthTable(self.variables, bits)

    def boolean_difference(self, name: str) -> "TruthTable":
        """``dF/dx = F_x XOR F_x'`` — sensitivity of F to ``name``."""
        return self.cofactor(name, 1) ^ self.cofactor(name, 0)

    def odc(self, name: str) -> "TruthTable":
        """Paper Eq. 1: ``ODC_x = (dF/dx)'``."""
        return ~self.boolean_difference(name)

    def compose(self, name: str, inner: "TruthTable") -> "TruthTable":
        """Substitute ``inner`` for ``name``: ``g & F_x | ~g & F_x'``."""
        f1, g = self.cofactor(name, 1)._aligned(inner)
        f0 = self.cofactor(name, 0).extended(f1.variables)
        return (g & f1) | (~g & f0)


def local_odc(kind: str, n_inputs: int, position: int) -> TruthTable:
    """ODC set of ``kind``'s input ``position`` over :data:`PLACEHOLDER`.

    The table ranges over all ``n_inputs`` placeholder variables but never
    depends on ``in<position>`` itself.
    """
    if not 0 <= position < n_inputs:
        raise ValueError(f"input position {position} out of range")
    table = TruthTable.from_kind(kind, PLACEHOLDER[:n_inputs])
    return table.odc(PLACEHOLDER[position])


def _apply(kind: str, operands: List[TruthTable]) -> TruthTable:
    if kind == "BUF":
        return operands[0]
    if kind == "INV":
        return ~operands[0]
    base = functions.base_operator(kind)
    acc = operands[0]
    for table in operands[1:]:
        if base == "AND":
            acc = acc & table
        elif base == "OR":
            acc = acc | table
        else:  # XOR family
            acc = acc ^ table
    return ~acc if functions.is_inverting(kind) else acc


def _simulate(
    circuit: Circuit, variables: Tuple[str, ...], tables: Dict[str, TruthTable]
) -> Dict[str, TruthTable]:
    """Fill ``tables`` with every gate's function, in topological order.

    Nets already present in ``tables`` keep their given function.
    """
    for gate in circuit.topological_order():
        if gate.name in tables:
            continue
        if gate.kind in ("CONST0", "CONST1"):
            tables[gate.name] = TruthTable.constant(gate.kind == "CONST1", variables)
        else:
            tables[gate.name] = _apply(gate.kind, [tables[n] for n in gate.inputs])
    return tables


def net_functions(circuit: Circuit) -> Dict[str, TruthTable]:
    """Truth table of every net over the circuit's primary inputs."""
    variables = tuple(circuit.inputs)
    if len(variables) > MAX_VARS:
        raise TruthTableError(
            f"{len(variables)} primary inputs exceed exact-analysis limit"
        )
    tables = {name: TruthTable.variable(name, variables) for name in variables}
    return _simulate(circuit, variables, tables)


def global_observability(circuit: Circuit, net: str) -> TruthTable:
    """Global observability of ``net``: OR over outputs of ``dF_o/d(net)``.

    ``net`` is replaced by a fresh free variable, the circuit is
    re-simulated symbolically, and each output is differenced against it.
    """
    variables = tuple(circuit.inputs)
    if len(variables) >= MAX_VARS:
        raise TruthTableError("too many inputs for global observability")
    if not circuit.has_net(net):
        raise TruthTableError(f"unknown net {net!r}")
    extended = variables + ("__free__",)
    tables = {name: TruthTable.variable(name, extended) for name in variables}
    tables[net] = TruthTable.variable("__free__", extended)
    _simulate(circuit, extended, tables)
    sensitivity = TruthTable.constant(0, extended)
    for out in circuit.outputs:
        sensitivity = sensitivity | tables[out].boolean_difference("__free__")
    # The sensitivity no longer depends on the free variable: keep the
    # rows with it at 0, which are exactly the original input tuple's.
    reduced = sensitivity.cofactor("__free__", 0)
    return TruthTable(variables, reduced.bits & _full_mask(len(variables)))


def global_odc(circuit: Circuit, net: str) -> TruthTable:
    """Global ODC set of ``net`` (complement of global observability)."""
    return ~global_observability(circuit, net)
