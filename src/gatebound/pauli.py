"""Exact algebra of n-qubit Pauli words in symplectic bit representation.

A word is stored as two n-bit masks (bit i set means an X / Z factor on
qubit i, both set means Y) together with an integer power of the imaginary
unit multiplying the bare word.  Products, commutation checks and
commutators are computed exactly in integer arithmetic; the dense matrix
form exists as a verification oracle only.

Text form: one uppercase character of ``IXYZ`` per qubit, qubit 0 leftmost.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ldexp, sqrt

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ResourceLimitError

MAX_DENSE_QUBITS = 12

_MAT_I = np.eye(2, dtype=complex)
_MAT_X = np.array([[0, 1], [1, 0]], dtype=complex)
_MAT_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_MAT_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# indexed by (x_bit, z_bit)
_SINGLE = {(0, 0): _MAT_I, (1, 0): _MAT_X, (1, 1): _MAT_Y, (0, 1): _MAT_Z}
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
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise DomainError("bit masks exceed the declared qubit count")
        if self.x_bits < 0 or self.z_bits < 0:
            raise DomainError("bit masks must be non-negative")
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


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 0)


def single(n: int, qubit: int, axis: str) -> PauliString:
    """Weight-1 word with the given axis label on one qubit."""
    if not 0 <= qubit < n:
        raise DomainError(f"qubit {qubit} outside 0..{n - 1}")
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
    if not isinstance(text, str) or len(text) == 0:
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


def symplectic_bits(words) -> np.ndarray:
    """(l, 2, n) 0/1 uint8 array: word j's x and z bits on qubit i at [j, :, i]."""
    n = words[0].n
    raw = b"".join(m.to_bytes((n + 7) // 8, "little")
                   for p in words for m in (p.x_bits, p.z_bits))
    packed = np.frombuffer(raw, np.uint8).reshape(len(words), 2, -1)
    return np.unpackbits(packed, axis=2, count=n, bitorder="little")


@dataclass(frozen=True)
class CommutatorTerm:
    """Exact decomposition [P, Q] = scale * i**phase_exp * word."""

    scale: int
    phase_exp: int
    word: PauliString

    @property
    def phase(self) -> complex:
        return 1j ** self.phase_exp

    @property
    def coefficient(self) -> complex:
        return self.scale * self.phase


def commutator(p: PauliString, q: PauliString) -> CommutatorTerm | None:
    """[P, Q] as 2 * (+-i) * word, or None when P and Q commute.

    For phase-0 Hermitian words the phase factor is always +-i.
    """
    _check_same_n(p, q)
    if commutes(p, q):
        return None
    prod = multiply(p, q)  # [P,Q] = PQ - QP = 2 PQ when anticommuting
    return CommutatorTerm(scale=2, phase_exp=prod.phase_exp, word=prod.bare())


def hs_norm_commutator(p: PauliString, q: PauliString) -> float:
    """Hilbert-Schmidt norm of [P, Q]: 0 or 2*sqrt(2**n) exactly."""
    _check_same_n(p, q)
    if commutes(p, q):
        return 0.0
    half, odd = divmod(p.n, 2)
    try:
        return ldexp(sqrt(2.0) if odd else 1.0, half + 1)
    except OverflowError:
        raise DomainError(f"the commutator norm on {p.n} qubits overflows a float") from None


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2**n x 2**n matrix, qubit 0 the leftmost Kronecker factor."""
    if p.n > MAX_DENSE_QUBITS:
        raise ResourceLimitError(
            f"dense form of {p.n} qubits exceeds the cap of {MAX_DENSE_QUBITS}"
        )
    out = np.ones((1, 1), dtype=complex)
    for qubit in range(p.n):
        bits = (p.x_bits >> qubit & 1, p.z_bits >> qubit & 1)
        out = np.kron(out, _SINGLE[bits])
    return (1j ** p.phase_exp) * out
