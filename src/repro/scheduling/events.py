"""Schedule data structures produced by the lattice-surgery scheduler."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from ..arch.grid import Position

#: note prefix tagging ops that carry / consume a distilled magic state;
#: the factory index follows (e.g. ``"magic-state from f2"``).  Route hops
#: and the final consume op both carry it, so the validity engine can
#: attribute every consumption to its producing factory.
MAGIC_NOTE_PREFIX = "magic-state from f"


@dataclass(slots=True)
class ScheduledOp:
    """One scheduled lattice-surgery operation.

    Treated as immutable everywhere (re-timing copies via :meth:`shifted`);
    not ``frozen=True`` because the scheduler constructs tens of thousands
    of these per compile and the frozen ``object.__setattr__`` init is ~6x
    slower than plain slot assignment.

    Attributes:
        uid: unique, monotonically increasing id in schedule order.
        kind: operation class — "gate", "move", "route", "evict".
        name: gate mnemonic (for kind="gate") or "move"/"route".
        qubits: program qubits whose timelines this op occupies.
        cells: grid cells locked for the op's duration (ancillas, route).
        start: start time in units of d.
        duration: latency in units of d.
        min_start: external release time (e.g. magic state availability);
            resimulation must not start the op earlier.
        gate_index: DAG node index of the originating gate, if any.
        note: free-form annotation for debugging / reports.
    """

    uid: int
    kind: str
    name: str
    qubits: Tuple[int, ...]
    cells: Tuple[Position, ...]
    start: float
    duration: float
    min_start: float = 0.0
    gate_index: Optional[int] = None
    note: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def resource_cells(self) -> Tuple[Position, ...]:
        """Cells this op actually locks for its duration.

        Data-qubit moves lock only their destination: a contiguous chain of
        patches can shift together in one move cycle (the vacated origin is
        immediately reusable by the patch behind), so serialising on the
        origin would forbid the standard simultaneous row shift.  Gates,
        routes and everything else lock every listed cell.
        """
        if self.kind in ("move", "evict", "restore") and len(self.cells) == 2:
            return self.cells[1:]
        return self.cells

    def magic_factory(self) -> Optional[int]:
        """Index of the factory whose state this op carries/consumes.

        Parsed from the ``note`` tag the scheduler writes on magic-state
        route hops and consume ops; None for everything else.
        """
        if not self.note.startswith(MAGIC_NOTE_PREFIX):
            return None
        suffix = self.note[len(MAGIC_NOTE_PREFIX):]
        try:
            return int(suffix)
        except ValueError:
            return None

    def shifted(self, new_start: float) -> "ScheduledOp":
        """Copy with a different start time (used by resimulation)."""
        if new_start == self.start:
            return self
        return ScheduledOp(
            uid=self.uid, kind=self.kind, name=self.name, qubits=self.qubits,
            cells=self.cells, start=new_start, duration=self.duration,
            min_start=self.min_start, gate_index=self.gate_index,
            note=self.note,
        )

    def to_dict(self) -> dict:
        """JSON-safe representation; :meth:`from_dict` restores it exactly."""
        return {
            "uid": self.uid,
            "kind": self.kind,
            "name": self.name,
            "qubits": list(self.qubits),
            "cells": [list(c) for c in self.cells],
            "start": self.start,
            "duration": self.duration,
            "min_start": self.min_start,
            "gate_index": self.gate_index,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduledOp":
        return cls(
            uid=data["uid"],
            kind=data["kind"],
            name=data["name"],
            qubits=tuple(data["qubits"]),
            cells=tuple(tuple(c) for c in data["cells"]),
            start=data["start"],
            duration=data["duration"],
            min_start=data.get("min_start", 0.0),
            gate_index=data.get("gate_index"),
            note=data.get("note", ""),
        )

    def __str__(self) -> str:
        qubits = ",".join(map(str, self.qubits))
        return f"[{self.start:7.1f} +{self.duration:4.1f}] {self.name:6s} q({qubits})"


def _intern(values: List) -> Tuple[List, List[int]]:
    """``(table, indices)``: distinct values in first-seen order."""
    table: Dict = {}
    indices = [table.setdefault(value, len(table)) for value in values]
    return list(table), indices


def _split(flat: List, counts: List[int]) -> List[tuple]:
    """``flat`` cut into consecutive tuples of ``counts`` items each."""
    ends = list(accumulate(counts))
    if (ends[-1] if ends else 0) != len(flat):
        raise ValueError("columnar schedule counts disagree with its data")
    return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


#: the :meth:`Schedule.to_columns` arrays that hold one entry per op.
_PER_OP_COLUMNS = (
    "uid", "kind", "name", "qubit_counts", "cell_counts", "start",
    "duration", "min_start", "gate_index", "note",
)


def _ops_of(columns: dict) -> List[ScheduledOp]:
    """The ops of a :meth:`Schedule.to_columns` dict, in order.

    Raises ValueError when the columns disagree in length (KeyError or
    TypeError when one is missing or malformed).
    """
    if len({len(columns[name]) for name in _PER_OP_COLUMNS}) > 1:
        raise ValueError("columnar schedule arrays differ in length")
    kinds, names, notes = columns["kinds"], columns["names"], columns["notes"]
    coords = columns["cells"]
    if len(coords) % 2:
        raise ValueError("schedule cells must be (row, col) pairs")
    return list(map(
        ScheduledOp,
        columns["uid"],
        [kinds[i] for i in columns["kind"]],
        [names[i] for i in columns["name"]],
        _split(columns["qubits"], columns["qubit_counts"]),
        _split(list(zip(coords[0::2], coords[1::2])), columns["cell_counts"]),
        columns["start"],
        columns["duration"],
        columns["min_start"],
        columns["gate_index"],
        [notes[i] for i in columns["note"]],
    ))


@dataclass
class Schedule:
    """An ordered list of :class:`ScheduledOp` plus summary statistics."""

    ops: List[ScheduledOp] = field(default_factory=list)

    def append(self, op: ScheduledOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ScheduledOp]:
        return iter(self.ops)

    @property
    def makespan(self) -> float:
        """Total execution time in units of d."""
        best = 0.0
        for op in self.ops:
            end = op.start + op.duration
            if end > best:
                best = end
        return best

    def count_kind(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.kind == kind)

    @property
    def num_moves(self) -> int:
        """Move operations inserted by the compiler (incl. evictions)."""
        return sum(1 for op in self.ops if op.kind in ("move", "evict", "restore"))

    @property
    def num_gates(self) -> int:
        return self.count_kind("gate")

    def kind_histogram(self) -> Dict[str, int]:
        return dict(Counter(op.kind for op in self.ops))

    def name_histogram(self) -> Dict[str, int]:
        return dict(Counter(op.name for op in self.ops))

    def busy_time(self) -> float:
        """Sum of all op durations (an activity measure, not the makespan)."""
        return sum(op.duration for op in self.ops)

    def ops_for_qubit(self, qubit: int) -> List[ScheduledOp]:
        return [op for op in self.ops if qubit in op.qubits]

    def validate(self) -> None:
        """Check per-qubit timelines and cell footprints; raise on conflict.

        Thin wrapper over the :mod:`repro.verify` replay validator's
        resource checks (the full engine adds DAG and magic-state audits —
        use :func:`repro.verify.validate_schedule` for those).
        """
        from ..verify.validator import ScheduleValidator

        validator = ScheduleValidator(self)
        validator.check_timelines()
        validator.check_cell_conflicts()
        validator.check_min_start()
        if not validator.report.ok:
            raise ValueError(validator.report.summary())

    def to_dict(self) -> dict:
        """JSON-safe representation, one dict per op (the editable form)."""
        return {"ops": [op.to_dict() for op in self.ops]}

    def to_columns(self) -> dict:
        """The columnar form: one JSON array per op field, not one dict per op.

        ``uid``, ``start``, ``duration``, ``min_start`` and ``gate_index``
        are parallel arrays; ``kind``, ``name`` and ``note`` are indices
        into the interned ``kinds``/``names``/``notes`` tables; qubits and
        cells are flattened (cells as ``row, col`` pairs) with per-op
        ``qubit_counts`` and ``cell_counts``.  Values keep their JSON
        types, so :meth:`from_dict` restores every op exactly.
        """
        ops = self.ops
        kinds, kind = _intern([op.kind for op in ops])
        names, name = _intern([op.name for op in ops])
        notes, note = _intern([op.note for op in ops])
        cell_counts = [len(op.cells) for op in ops]
        coords = [value for op in ops for cell in op.cells for value in cell]
        if len(coords) != 2 * sum(cell_counts):
            raise ValueError("schedule cells must be (row, col) pairs")
        return {
            "uid": [op.uid for op in ops],
            "kind": kind,
            "kinds": kinds,
            "name": name,
            "names": names,
            "qubit_counts": [len(op.qubits) for op in ops],
            "qubits": [q for op in ops for q in op.qubits],
            "cell_counts": cell_counts,
            "cells": coords,
            "start": [op.start for op in ops],
            "duration": [op.duration for op in ops],
            "min_start": [op.min_start for op in ops],
            "gate_index": [op.gate_index for op in ops],
            "note": note,
            "notes": notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        """Rebuild from :meth:`to_dict` or :meth:`to_columns` output."""
        if "ops" in data:
            return cls(ops=[ScheduledOp.from_dict(op) for op in data["ops"]])
        return cls(ops=_ops_of(data))

    def timeline_text(self, limit: int = 40) -> str:
        """Human-readable dump of the first ``limit`` ops."""
        lines = [str(op) for op in self.ops[:limit]]
        if len(self.ops) > limit:
            lines.append(f"... ({len(self.ops) - limit} more ops)")
        return "\n".join(lines)
