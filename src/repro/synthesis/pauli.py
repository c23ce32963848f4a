"""Pauli string algebra with Clifford conjugation.

This is the algebraic substrate behind the Litinski "Game of Surface Codes"
baseline (paper Sec. VII-C): a Clifford+T circuit is rewritten into a
sequence of pi/8 Pauli-product rotations by commuting every Clifford gate to
the end of the circuit, conjugating the Pauli axes of the remaining
rotations as it passes.

Paulis are stored in the symplectic (x-bits, z-bits) representation together
with a phase exponent of ``i`` so products and conjugations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..ir import gates as g
from ..ir.gates import Gate

#: single-qubit letters indexed by (x_bit, z_bit)
_LETTERS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def _build_product_phase_table():
    """i-exponent of single-letter products: letter(a)·letter(b) = i^e·letter(a^b).

    E.g. X*Y = iZ (e=1), Y*X = -iZ (e=3), X*Z = -iY (e=3).
    """
    exponents = {
        ("X", "Y"): 1, ("Y", "X"): 3,
        ("Y", "Z"): 1, ("Z", "Y"): 3,
        ("Z", "X"): 1, ("X", "Z"): 3,
    }
    table = {}
    for (xa, za), a in _LETTERS.items():
        for (xb, zb), b in _LETTERS.items():
            table[(xa, za, xb, zb)] = exponents.get((a, b), 0)
    return table


_PRODUCT_PHASE = _build_product_phase_table()


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator ``i^phase * P_0 ⊗ ... ⊗ P_{n-1}``.

    Attributes:
        x: tuple of x-bits per qubit.
        z: tuple of z-bits per qubit.
        phase: exponent of ``i`` modulo 4.
    """

    x: Tuple[int, ...]
    z: Tuple[int, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        if len(self.x) != len(self.z):
            raise ValueError("x and z bit vectors must have equal length")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The identity operator on ``num_qubits`` qubits."""
        zeros = (0,) * num_qubits
        return cls(zeros, zeros)

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        """Build from a letter string, e.g. ``PauliString.from_label("XIZ")``."""
        try:
            bits = [_BITS[ch] for ch in label.upper()]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli letter in {label!r}") from exc
        return cls(tuple(b[0] for b in bits), tuple(b[1] for b in bits), phase)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, letter: str) -> "PauliString":
        """A single-qubit Pauli embedded in an n-qubit identity."""
        x = [0] * num_qubits
        z = [0] * num_qubits
        bx, bz = _BITS[letter.upper()]
        x[qubit], z[qubit] = bx, bz
        return cls(tuple(x), tuple(z))

    # -- inspection -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.x)

    def label(self) -> str:
        """Letter string without the phase, e.g. ``"XIZ"``."""
        return "".join(_LETTERS[(xb, zb)] for xb, zb in zip(self.x, self.z))

    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return sum(1 for xb, zb in zip(self.x, self.z) if xb or zb)

    def support(self) -> Tuple[int, ...]:
        """Qubits where the operator acts non-trivially."""
        return tuple(
            q for q, (xb, zb) in enumerate(zip(self.x, self.z)) if xb or zb
        )

    def is_identity(self) -> bool:
        return self.weight() == 0

    def __str__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase]
        return prefix + self.label()

    # -- algebra ----------------------------------------------------------------

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two operators commute (symplectic inner product 0)."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("operator sizes differ")
        anti = 0
        for xa, za, xb, zb in zip(self.x, self.z, other.x, other.z):
            anti ^= (xa & zb) ^ (za & xb)
        return anti == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product ``self @ other`` with exact phase tracking.

        Phases follow the letter semantics (X*Y = iZ, Y*X = -iZ, ...), so
        the result's matrix equals the matrix product of the factors.
        """
        if self.num_qubits != other.num_qubits:
            raise ValueError("operator sizes differ")
        phase = self.phase + other.phase
        xs, zs = [], []
        for xa, za, xb, zb in zip(self.x, self.z, other.x, other.z):
            phase += _PRODUCT_PHASE[(xa, za, xb, zb)]
            xs.append(xa ^ xb)
            zs.append(za ^ zb)
        return PauliString(tuple(xs), tuple(zs), phase)

    def conjugated_by(self, gate: Gate) -> "PauliString":
        """Return ``C P C†`` for Clifford gate ``C``.

        Supported Cliffords: H, S, Sdg, X, Y, Z, SX, SXdg, CX, CZ, SWAP.
        This is the sign convention the PPR transpiler's Clifford frame is
        derived from: it conjugates each gate's local generators once, and
        builds every frame update from those images.
        """
        x = list(self.x)
        z = list(self.z)
        phase = self.phase

        def sign_flip() -> None:
            nonlocal phase
            phase = (phase + 2) % 4

        name = gate.name
        if name == g.H:
            (q,) = gate.qubits
            if x[q] and z[q]:
                sign_flip()  # H Y H = -Y
            x[q], z[q] = z[q], x[q]
        elif name in (g.S, g.SDG):
            (q,) = gate.qubits
            # S X S† = Y, S Y S† = -X
            if x[q]:
                if z[q]:  # Y
                    if name == g.S:
                        sign_flip()
                else:  # X -> Y (S) / -Y? Sdg X Sdg† = -Y
                    if name == g.SDG:
                        sign_flip()
                z[q] ^= 1
        elif name in (g.SX, g.SXDG):
            (q,) = gate.qubits
            # SX Z SX† = -Y ; SX Y SX† = Z
            if z[q]:
                if x[q]:  # Y -> Z (SX) ; Y -> -Z? SXdg: Y -> -Z
                    if name == g.SXDG:
                        sign_flip()
                else:  # Z -> -Y (SX) ; Z -> Y (SXdg)
                    if name == g.SX:
                        sign_flip()
                x[q] ^= 1
        elif name == g.X:
            (q,) = gate.qubits
            if z[q]:
                sign_flip()
        elif name == g.Z:
            (q,) = gate.qubits
            if x[q]:
                sign_flip()
        elif name == g.Y:
            (q,) = gate.qubits
            if x[q] ^ z[q]:
                sign_flip()
        elif name == g.CX:
            c, t = gate.qubits
            # X_c -> X_c X_t ; Z_t -> Z_c Z_t ; sign flip on Y_c Y_t overlap
            if x[c] and z[t] and (x[t] ^ z[c] ^ 1):
                sign_flip()
            x[t] ^= x[c]
            z[c] ^= z[t]
        elif name == g.CZ:
            a, b = gate.qubits
            if x[a] and x[b] and (z[a] ^ z[b]):
                sign_flip()
            z[a] ^= x[b]
            z[b] ^= x[a]
        elif name == g.SWAP:
            a, b = gate.qubits
            x[a], x[b] = x[b], x[a]
            z[a], z[b] = z[b], z[a]
        else:
            raise ValueError(f"gate {name!r} is not a supported Clifford")
        return PauliString(tuple(x), tuple(z), phase)

    def conjugated_by_all(self, gates: Iterable[Gate]) -> "PauliString":
        """Conjugate by a sequence of Cliffords, applied left to right."""
        result = self
        for gate in gates:
            result = result.conjugated_by(gate)
        return result


def pauli_weight_histogram(paulis: Iterable[PauliString]) -> Dict[int, int]:
    """Histogram of operator weights — used in PPR layout sizing."""
    hist: Dict[int, int] = {}
    for p in paulis:
        hist[p.weight()] = hist.get(p.weight(), 0) + 1
    return hist
