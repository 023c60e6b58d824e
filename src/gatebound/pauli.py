"""Exact algebra of n-qubit Pauli words in symplectic bit representation.

A word is stored as two n-bit masks (bit i set means an X / Z factor on
qubit i, both set means Y) together with an integer power of the imaginary
unit multiplying the bare word.  Products, commutation checks and
commutators are computed exactly in integer arithmetic; the dense form
builds the simulator's targets and drifts and the pulse controls.

Text form: one uppercase character of ``IXYZ`` per qubit, qubit 0 leftmost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ldexp, sqrt

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ResourceLimitError, require_qubit

MAX_DENSE_QUBITS = 12

# indexed by (x_bit, z_bit)
_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# a word read right to left is its x and z masks written in binary
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli word ``i**phase_exp * W`` with W a bare IXYZ word."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"qubit count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:  # a negative mask too
            raise DomainError(f"bit masks must lie in 0..2**{self.n} - 1")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def weight(self) -> int:
        """Number of qubits carrying a non-identity factor."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """Sorted qubits carrying a non-identity factor."""
        digits = f"{self.x_bits | self.z_bits:b}"[::-1]  # digit i is qubit i
        return tuple(m.start() for m in re.finditer("1", digits))

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    def bare(self) -> "PauliString":
        """The same word with the phase stripped."""
        if self.phase_exp == 0:
            return self
        return PauliString(self.n, self.x_bits, self.z_bits, 0)

    def label(self, qubit: int) -> str:
        """Single-qubit factor at ``qubit`` as one of I, X, Y, Z."""
        return _CHAR[(self.x_bits >> qubit & 1, self.z_bits >> qubit & 1)]

    def __str__(self) -> str:
        return format_pauli(self)

    def __repr__(self) -> str:
        pre = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_exp]
        return f"PauliString({pre}{format_pauli(self)})"


def single(n: int, qubit: int, axis: str) -> PauliString:
    """Weight-1 word with axis label x, y or z, in either case, on one qubit."""
    qubit = require_qubit(qubit, n)
    if not isinstance(axis, str) or axis.upper() not in ("X", "Y", "Z"):
        raise DomainError(f"axis must be one of x, y, z, got {axis!r}")
    x, z = _BITS[axis.upper()]
    return PauliString(n, x << qubit, z << qubit, 0)


def two_body(n: int, i: int, alpha: str, j: int, beta: str) -> PauliString:
    """Weight-2 word ``alpha`` on qubit i and ``beta`` on qubit j."""
    if i == j:
        raise DomainError("two-body word needs distinct qubits")
    a = single(n, i, alpha)
    b = single(n, j, beta)
    return PauliString(n, a.x_bits | b.x_bits, a.z_bits | b.z_bits, 0)


def parse_pauli(text: str) -> PauliString:
    """Parse a word over IXYZ, qubit 0 leftmost, phase 0."""
    if not isinstance(text, str):
        raise ParseError("a Pauli word must be a string")
    if not text:
        raise ParseError("empty Pauli word (need at least one qubit)")
    rest = text.lstrip("IXYZ")
    if rest:
        raise ParseError(f"invalid character {rest[0]!r} at position {len(text) - len(rest)}")
    word = text[::-1]
    return PauliString(len(text), int(word.translate(_X_DIGITS), 2),
                       int(word.translate(_Z_DIGITS), 2), 0)


def format_pauli(p: PauliString) -> str:
    """Bare word as text; the phase is not rendered."""
    return "".join(p.label(q) for q in range(p.n))


def _check_same_n(p: PauliString, q: PauliString) -> None:
    if p.n != q.n:
        raise DimensionError(f"qubit counts differ: {p.n} != {q.n}")


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product P*Q with the phase folded into phase_exp.

    Uses W(x,z) = i**(x&z) * X**x * Z**z per qubit, so the accumulated
    power of i is an integer and no rounding ever occurs.
    """
    _check_same_n(p, q)
    x3 = p.x_bits ^ q.x_bits
    z3 = p.z_bits ^ q.z_bits
    e = (
        p.phase_exp
        + q.phase_exp
        + (p.x_bits & p.z_bits).bit_count()
        + (q.x_bits & q.z_bits).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()
    )
    return PauliString(p.n, x3, z3, e % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic criterion: even overlap of (x_P, z_Q) and (z_P, x_Q)."""
    _check_same_n(p, q)
    sym = (p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()
    return sym % 2 == 0


def commutator(p: PauliString, q: PauliString) -> PauliString | None:
    """[P, Q]/2 = PQ with its phase, or None when P and Q commute.

    For phase-0 Hermitian words the phase is always +-i.
    """
    if commutes(p, q):
        return None
    return multiply(p, q)  # [P,Q] = PQ - QP = 2 PQ when anticommuting


def hs_norm_commutator(p: PauliString, q: PauliString) -> float:
    """Hilbert-Schmidt norm of [P, Q]: 0 or 2*sqrt(2**n) exactly."""
    if commutes(p, q):
        return 0.0
    half, odd = divmod(p.n, 2)
    try:
        return ldexp(sqrt(2.0) if odd else 1.0, half + 1)
    except OverflowError:
        raise DomainError(f"the commutator norm on {p.n} qubits overflows a float") from None


def to_matrix(p: PauliString, scale: complex = 1) -> np.ndarray:
    """Dense 2**n x 2**n scale * p; with the masks as index bits, qubit 0 the most
    significant, column r holds scale * i**(phase + #Y) * (-1)**popcount(r & z) at row r ^ x."""
    if p.n > MAX_DENSE_QUBITS:
        raise ResourceLimitError(
            f"dense form of {p.n} qubits exceeds the cap of {MAX_DENSE_QUBITS}"
        )
    x, z = (int(f"{m:0{p.n}b}"[::-1], 2) for m in (p.x_bits, p.z_bits))
    cols = np.arange(2 ** p.n)
    odd = cols & z
    for k in range(p.n.bit_length()):  # fold the parity of n bits onto bit 0
        odd ^= odd >> (1 << k)
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    phase = (1, 1j, -1, -1j)[(p.phase_exp + (p.x_bits & p.z_bits).bit_count()) % 4]
    values = phase * (1 - 2 * (odd & 1))
    # a factor of 1 is skipped: it would turn the -0 parts of +-i into +0
    out[cols ^ x, cols] = values if scale == 1 else values * scale
    return out
