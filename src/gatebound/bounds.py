"""Closed-form upper bounds on minimum gate times over a qubit network.

A target unitary is exp(i * sum_i a_i P_i) for real coefficients a_i and
Hermitian Pauli words P_i (a ``GeneratorSpec``).  The bounds below combine
three ingredients:

* a single word of commutator depth D costs at most (D*pi/2 + |a|)/J,
  where J is the smallest coupling in the network,
* a first-order product formula repeated m times approximates the sum of
  l terms with normalized error at most K/(2*sqrt(2)*m), where K collects
  the commutator norms of all term pairs,
* depths never exceed 2*(n-2) on a connected graph.

``bound_report`` works out each term's depth and walk, K and m once and
evaluates every bound from them; the individual formulas are also exposed
(CNOT/two-qubit times, n-body chain words, the exact 3-spin minimum, block
concatenation, and the reduced-control star graph).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .depth import DepthResult, depth_of_support, depth_upper_bound
from .errors import DomainError, ParseError, require_positive
from .network import QubitNetwork, json_number, min_coupling, read_json, require_full_local
from .pauli import PauliString, parse_pauli

_PAIR_BLOCK = 8192  # pair entries per block of commutator_weight


@dataclass(frozen=True)
class GeneratorSpec:
    """Target generator as a weighted list of distinct Pauli words; the
    constructor stores the values the bounds read, its arrays read-only."""

    terms: tuple[tuple[float, PauliString], ...]
    words: tuple[PauliString, ...] = field(init=False, repr=False, compare=False)
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)  # (l,) float64
    # (l, 2, n) uint8: word j's x and z bits on qubit i at [j, :, i]
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    norm_1: float = field(init=False, repr=False, compare=False)  # summed in term order
    norm_inf: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple((float(a), p) for a, p in self.terms)
        if not terms:
            raise DomainError("a generator needs at least one term")
        n = terms[0][1].n
        seen = set()
        for a, p in terms:
            if a == 0.0:
                raise DomainError("zero coefficients are not allowed")
            if not math.isfinite(a):
                raise DomainError(f"coefficient {a} of {p} is not finite")
            if p.n != n:
                raise DomainError("all words must act on the same qubit count")
            if p.is_identity:
                raise DomainError("identity words are excluded (traceless generators)")
            if p.phase_exp != 0:
                raise DomainError("words must carry phase 0; fold signs into a_i")
            key = (p.x_bits, p.z_bits)
            if key in seen:
                raise DomainError(f"duplicate word {p}")
            seen.add(key)
        coefficients = np.array([a for a, _ in terms])
        raw = b"".join(m.to_bytes((n + 7) // 8, "little")
                       for _, p in terms for m in (p.x_bits, p.z_bits))
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(terms), 2, -1),
                             axis=2, count=n, bitorder="little")
        for array in (coefficients, bits):
            array.setflags(write=False)
        for name, value in (("terms", terms), ("words", tuple(p for _, p in terms)),
                            ("coefficients", coefficients), ("bits", bits),
                            ("norm_1", sum(abs(a) for a, _ in terms)),
                            ("norm_inf", max(abs(a) for a, _ in terms))):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    @property
    def l(self) -> int:
        return len(self.terms)


def spec_from_list(data) -> GeneratorSpec:
    """Parse the JSON form [{"coeff": a, "pauli": "word"}, ...]."""
    if not isinstance(data, list):
        raise ParseError("generator JSON must be a list of terms")
    terms = []
    for entry in data:
        try:
            coeff, word = json_number(entry["coeff"]), entry["pauli"]
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"malformed term {entry!r}") from None
        terms.append((coeff, parse_pauli(word)))
    return GeneratorSpec(tuple(terms))


def load_spec(path) -> GeneratorSpec:
    return spec_from_list(read_json(path))


# ---------------------------------------------------------------------------
# elementary bounds

def single_term_bound(a: float, depth: int, J: float) -> float:
    """Time bound (depth*pi/2 + |a|)/J for one word of given depth."""
    require_positive("J", J)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if not math.isfinite(a):
        raise DomainError(f"angle {a} is not finite")
    return (depth * math.pi / 2 + abs(a)) / J


def commutator_weight(spec: GeneratorSpec) -> float:
    """K = 2 * sum of |a_j a_k| over the anticommuting pairs j > k.

    Overlap counts x_j.z_k + z_j.x_k come from float32 matmuls of bit rows
    [x | z] against a C-contiguous matrix of bit columns [z | x]; they are
    exact, since a count is at most 2n and float32 holds every integer up to
    2**24 (n <= 2**23).  The pairs go in blocks of whole rows, j ascending:
    as many rows as fit in _PAIR_BLOCK pairs, and at least one, so a block
    holds at most max(_PAIR_BLOCK, l - 1) pairs.  A block's counts are cast
    once to uint8 and reduced to parities in place; only its last r1 - r0
    columns, the strip that reaches the diagonal, are masked to k < j.  One
    compress of the raveled outer product takes the odd pairs' |a_j|*|a_k|
    in row-major order (j, then k < j, ascending), and cumsum after the
    previous block's last partial sum adds them one at a time, so K is
    bit-identical to the Python loop over the pairs in that order.
    """
    l, w = spec.l, np.abs(spec.coefficients)
    bits = spec.bits.astype(np.float32)
    rows, cols = bits.reshape(l, -1), bits.transpose(1, 2, 0)[::-1].reshape(-1, l)
    total, r0 = np.zeros(1), 1
    with np.errstate(over="ignore"):
        while r0 < l:  # rows r0..r1-1, the most h with h*(r0 + h - 1) <= _PAIR_BLOCK
            h = (math.isqrt((r0 - 1)**2 + 4 * _PAIR_BLOCK) - r0 + 1) // 2
            r1 = min(r0 + max(h, 1), l)
            odd = (rows[r0:r1] @ cols[:, :r1 - 1]).astype(np.uint8)
            odd &= 1
            strip, i = odd[:, r0 - 1:], np.arange(r1 - r0)
            strip &= i[:, None] >= i
            kept = (w[r0:r1, None] * w[:r1 - 1]).ravel().compress(odd.view(bool).ravel())
            total = np.concatenate((total, kept)).cumsum()[-1:]
            r0 = r1
    K = 2.0 * float(total[0])
    if not math.isfinite(K):
        raise DomainError("commutator weight overflows; coefficients too large")
    return K


def _error_bound(K: float, m: int) -> float:
    return K / (2 * math.sqrt(2) * m)


def _steps_for(K: float, epsilon: float) -> int:
    require_positive("epsilon", epsilon)
    e1 = _error_bound(K, 1)
    if e1 <= epsilon:
        return 1
    ratio = e1 / epsilon
    if not math.isfinite(ratio):
        raise DomainError(f"epsilon {epsilon} needs unboundedly many steps")
    # the bound is exactly K/(2*sqrt(2)*m); the ceil is off by at most one
    # against the evaluated bound, in the last ulp
    m = math.ceil(ratio)
    if m > 1 and _error_bound(K, m - 1) <= epsilon:
        m -= 1
    elif _error_bound(K, m) > epsilon:
        m += 1
    return m


def trotter_error_bound(spec: GeneratorSpec, m: int) -> float:
    """Normalized first-order product-formula error bound, exactly K/(2*sqrt(2)*m).

    Zero when all pairs commute (the product is then exact).
    """
    if m < 1:
        raise DomainError("step count m must be >= 1")
    return _error_bound(commutator_weight(spec), m)


def min_trotter_steps(spec: GeneratorSpec, epsilon: float) -> int:
    """Smallest integer m >= 1 with trotter_error_bound(spec, m) <= epsilon."""
    return _steps_for(commutator_weight(spec), epsilon)


# ---------------------------------------------------------------------------
# aggregated report

@dataclass(frozen=True)
class BoundReport:
    """All gate-time bounds for one generator on one network.

    ``coarse_bound`` is the closed-form l/J * (|a|_inf + ...) expression in
    l, |a|_inf and n only.  ``trotter_bound`` resolves the pairwise
    commutator structure verbatim; its product-pass count K/(2*sqrt(2)*eps)
    can drop below one for nearly commuting generators, in which case it
    stops charging for the commutator ladders, so ``schedule_bound`` floors
    that count at one full pass: schedule_bound = max(trotter_bound,
    (|a|_1 + pi/2 * sum(depths))/J).  The bounds are ordered
    trotter_bound <= schedule_bound, and schedule_bound <= coarse_bound
    whenever the coarse formula itself implies at least one pass
    (l*(l-1)*|a|_inf**2 >= 2*sqrt(2)*eps).  All three are undefined (None)
    for single-term generators, whose time is covered by
    ``per_term_bounds`` alone.

    ``trotter_steps`` is the integer repetition count a scheduler actually
    runs; ``run_time_bound`` evaluates the corresponding guaranteed ceiling
    on emitted schedule durations.  ``spec`` and each term's Steiner walk
    (None at weight 1 and for the 2*(n-2) fallback) are kept for synthesis
    and are not serialized.
    """

    coarse_bound: float | None
    trotter_bound: float | None
    schedule_bound: float | None
    per_term_bounds: tuple[float, ...]
    commutator_weight: float
    trotter_steps: int
    epsilon: float
    depths: tuple[int, ...]
    exact_depths: bool
    j_coupling: float
    spec: GeneratorSpec
    walks: tuple[DepthResult | None, ...]

    def to_dict(self) -> dict:
        # shallow: asdict would copy the per-term tuples element by element
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name not in ("spec", "walks")}

    @property
    def run_time_bound(self) -> float:
        """(|a|_1 + m*pi/2*sum(depths))/J, the ceiling on the schedule's duration."""
        return (self.spec.norm_1 + self.trotter_steps * math.pi / 2
                * sum(self.depths)) / self.j_coupling


def bound_report(spec: GeneratorSpec, net: QubitNetwork, epsilon: float,
                 use_exact_depths: bool = False) -> BoundReport:
    """Every time bound for ``spec`` on ``net`` at error ``epsilon``: K and m
    first, then one Steiner search per word of weight >= 2 when
    ``use_exact_depths``, else the 2*(n-2) fallback depth and no search."""
    require_full_local(net)
    if spec.n != net.n:
        raise DomainError(f"generator on {spec.n} qubits does not match network of {net.n}")
    K = commutator_weight(spec)
    m = _steps_for(K, epsilon)
    fallback = depth_upper_bound(net.n)
    walks = tuple(depth_of_support(net, word.support) if use_exact_depths and word.weight > 1
                  else None for word in spec.words)
    depths = tuple(0 if word.weight < 2 else fallback if walk is None else walk.depth
                   for word, walk in zip(spec.words, walks))
    J = min_coupling(net)
    per_term = tuple(single_term_bound(a, d, J) for (a, _), d in zip(spec.terms, depths))
    depth_sum = sum(depths)

    if spec.l == 1:
        coarse = trotter = schedule = None
    else:
        l, ai = spec.l, spec.norm_inf
        # l/J * (|a|_inf + pi*l*(l-1)*(n-2)*|a|_inf^2 / (2*sqrt(2)*eps));
        # float ** raises OverflowError where * gives inf
        coarse = l / J * (ai + math.pi * l * (l - 1) * (net.n - 2) * (ai * ai)
                          / (2 * math.sqrt(2) * epsilon))
        trotter = (spec.norm_1 + math.pi * K * depth_sum
                   / (4 * math.sqrt(2) * epsilon)) / J
        schedule = max(trotter, (spec.norm_1 + math.pi / 2 * depth_sum) / J)

    return BoundReport(coarse, trotter, schedule, per_term, K, m, epsilon, depths,
                       use_exact_depths, J, spec, walks)


def run_time_bound(spec: GeneratorSpec, net: QubitNetwork, epsilon: float,
                   use_exact_depths: bool = False) -> float:
    """Guaranteed duration ceiling for the schedule synth_generator emits.

    Uses the integer repetition count the scheduler runs, so it holds for
    every emitted schedule unconditionally (single-term generators included,
    where it reduces to the per-term bound).
    """
    return bound_report(spec, net, epsilon, use_exact_depths).run_time_bound


# ---------------------------------------------------------------------------
# named special cases

def cnot_bound(net: QubitNetwork, i: int, j: int) -> float:
    """CNOT time bound pi*((d(i,j)-1)/J + 1/(4J)), d the geodesic distance:
    the single-word bound at angle pi/4 and the depth 2*(d-1) of {i, j}."""
    depth = depth_of_support(net, (i, j)).depth
    return single_term_bound(math.pi / 4, depth, min_coupling(net))


def two_qubit_bound(net: QubitNetwork, i: int, j: int) -> float:
    """Any two-qubit gate costs at most three CNOTs plus free local rotations."""
    return 3.0 * cnot_bound(net, i, j)


def nbody_chain_bound(n: int, kappa: float, J_chain: float) -> float:
    """Bound (2*(n-2) + |kappa|) * pi / (4*J_chain) for the full-weight word
    exp(-i*(pi/4)*kappa * s_1...s_n) on any n-spin chain with smallest
    coupling J_chain: the single-word bound at depth n-2 and angle kappa*pi/4."""
    if n < 3:
        raise DomainError("chain word bound needs n >= 3")
    return single_term_bound(kappa * math.pi / 4, n - 2, J_chain)


def exact_three_spin(kappa: float, J: float) -> float:
    """Known minimum time sqrt(k*(4-k))/(2J) for exp(-i*(pi/4)*kappa*ZZZ)
    on the 3-spin chain with drift (pi/2)*J*sum ZZ, kappa in [0, 4].  Free
    local rotations make kappa, kappa + 2 and -kappa the same gate up to
    local factors, so kappa folds to k = min(kappa mod 2, 2 - kappa mod 2)
    in [0, 1] first (kappa = 2 is the local gate -i*ZZZ, time 0)."""
    if not 0 <= kappa <= 4:
        raise DomainError("kappa must lie in [0, 4]")
    require_positive("J", J)
    k = min(kappa % 2, 2 - kappa % 2)
    return math.sqrt(k * (4 - k)) / (2 * J)


def concatenation_bounds(
    T_c: float, n_per_block: int, spec: GeneratorSpec, epsilon: float
) -> tuple[float, float]:
    """Bounds for two n-qubit blocks joined by one controllable coupling.

    Returns (tau, T): tau = T_c*(4*(2n-1)+1) for a single word on the joint
    system, and T the product-formula bound for a full generator.
    """
    require_positive("T_c", T_c)
    if n_per_block < 1:
        raise DomainError("blocks need at least one qubit")
    require_positive("epsilon", epsilon)
    tau = T_c * (4 * (2 * n_per_block - 1) + 1)
    l = spec.l
    if l < 2:
        raise DomainError("the generator bound needs at least two terms")
    T = (tau * l**3 * (l - 1) * (spec.norm_inf * spec.norm_inf)
         / (2 * math.sqrt(2) * epsilon))
    return tau, T


def star_term_bound(n: int, J: float, a: float) -> float:
    """Single-word bound (pi/2*(12*(n-2)+1) + |a|)/J under the star graph's
    reduced control set (x/y on the hub, z on each leaf): the single-word
    bound at depth 12*(n-2)+1."""
    if n < 3:
        raise DomainError("star bound needs n >= 3")
    return single_term_bound(a, 12 * (n - 2) + 1, J)


# ---------------------------------------------------------------------------
# polynomial-time gate set membership

@dataclass(frozen=True)
class PolyMembership:
    """Whether a generator's size fits a polynomial budget in n, and the
    growth class its coarse time bound then falls into."""

    member: bool
    l_exponent: float
    norm_exponent: float
    scaling_exponent: float | None
    scaling_class: str


def poly_membership(spec: GeneratorSpec, degree_budget: float) -> PolyMembership:
    """Check l <= n**budget and |a|_inf <= n**budget and classify the bound.

    The class describes the coarse bound only, l**3 * n * |a|_inf**2 for
    multi-term generators: with l ~ n**p and |a|_inf ~ n**q its exponent is
    3p + 1 + 2q (single terms are linear in n); run_time_bound can grow more
    slowly.  Non-members fall into the exponential class, n * 2**(6n) at worst.
    """
    n = spec.n
    if n < 2:
        raise DomainError("membership classification needs n >= 2")
    if not (math.isfinite(degree_budget) and degree_budget >= 0):
        raise DomainError(f"degree budget must be finite and >= 0, got {degree_budget}")
    l, ai = spec.l, spec.norm_inf
    try:
        cap = float(n) ** degree_budget
    except OverflowError:  # past the largest float, which every finite l and |a|_inf fit under
        cap = math.inf
    member = l <= cap and ai <= cap
    l_exp = math.log(l) / math.log(n)
    a_exp = max(0.0, math.log(ai) / math.log(n))
    if not member:
        exponent = None
        klass = "exponential"
    elif l == 1:
        exponent = 1.0
        klass = "linear"
    else:
        exponent = 3 * l_exp + 1 + 2 * a_exp
        klass = f"polynomial, O(n^{exponent:g})"
    return PolyMembership(member, l_exp, a_exp, exponent, klass)
