"""Pauli word algebra against dense-matrix oracles."""

import math

import numpy as np
import pytest

from gatebound import PauliString, commutator, commutes, hs_norm_commutator, multiply
from gatebound.errors import DimensionError, DomainError, ParseError, ResourceLimitError
from gatebound.pauli import (
    format_pauli,
    parse_pauli,
    single,
    to_matrix,
    two_body,
)

from helpers import all_strings, identity, kron_word, parse_pauli_oracle, random_word


def test_single_qubit_products():
    X, Y, Z = (parse_pauli(c) for c in "XYZ")
    assert multiply(X, Y) == PauliString(1, 0, 1, 1)  # i*Z
    assert multiply(Y, X) == PauliString(1, 0, 1, 3)  # -i*Z
    assert multiply(Y, Z) == PauliString(1, 1, 0, 1)  # i*X
    assert multiply(Z, X) == PauliString(1, 1, 1, 1)  # i*Y
    assert multiply(X, X) == identity(1)


def test_square_is_identity():
    for p in all_strings(3):
        sq = multiply(p, p)
        assert sq.is_identity and sq.phase_exp == 0


def test_two_qubit_product_matches_matrix_oracle():
    p = parse_pauli("XZ")
    q = parse_pauli("ZX")
    r = multiply(p, q)
    assert format_pauli(r) == "YY" and r.phase_exp == 0
    expected = kron_word("XZ") @ kron_word("ZX")
    assert np.allclose(to_matrix(r), expected, atol=1e-14)


def test_multiply_matches_matrix_oracle_exhaustive_n2():
    for p in all_strings(2):
        mp = kron_word(format_pauli(p))
        for q in all_strings(2):
            r = multiply(p, q)
            assert np.allclose(to_matrix(r), mp @ kron_word(format_pauli(q)), atol=1e-13)


def test_multiply_associative_and_phase_exact_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        ps = [
            PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
            for _ in range(3)
        ]
        left = multiply(multiply(ps[0], ps[1]), ps[2])
        right = multiply(ps[0], multiply(ps[1], ps[2]))
        assert left == right
        oracle = to_matrix(ps[0]) @ to_matrix(ps[1]) @ to_matrix(ps[2])
        assert np.allclose(to_matrix(left), oracle, atol=1e-12)


def test_commutes_examples():
    assert commutes(parse_pauli("XI"), parse_pauli("IZ"))
    assert not commutes(parse_pauli("X"), parse_pauli("Y"))
    assert not commutes(parse_pauli("ZYI"), parse_pauli("IXZ"))


def test_commutes_matches_matrix_test_exhaustively():
    for n in (1, 2, 3):
        strings = list(all_strings(n))
        mats = {s: to_matrix(s) for s in strings}
        for p in strings:
            for q in strings:
                comm_norm = np.linalg.norm(mats[p] @ mats[q] - mats[q] @ mats[p])
                assert commutes(p, q) == (comm_norm < 1e-12)


def test_commutator_examples():
    c = commutator(parse_pauli("X"), parse_pauli("Y"))
    assert c.phase == 1j and format_pauli(c) == "Z"
    assert commutator(parse_pauli("XI"), parse_pauli("IZ")) is None
    c = commutator(parse_pauli("ZYI"), parse_pauli("IXZ"))
    assert c.phase == -1j and format_pauli(c) == "ZZZ"


def test_commutator_reconstruction_matches_matrices():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 4))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        q = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        c = commutator(p, q)
        oracle = to_matrix(p) @ to_matrix(q) - to_matrix(q) @ to_matrix(p)
        if c is None:
            assert np.linalg.norm(oracle) < 1e-12
        else:
            rebuilt = 2 * to_matrix(c)
            assert np.allclose(rebuilt, oracle, atol=1e-12)
        checked += 1


def test_commutator_nonempty_iff_not_commuting():
    for p in all_strings(2):
        for q in all_strings(2):
            assert (commutator(p, q) is None) == commutes(p, q)


def test_hs_norm_commutator_values():
    X1, Y1 = parse_pauli("X"), parse_pauli("Y")
    assert hs_norm_commutator(X1, X1) == 0.0
    assert hs_norm_commutator(X1, Y1) == pytest.approx(2 * math.sqrt(2), abs=1e-15)
    assert hs_norm_commutator(parse_pauli("XI"), parse_pauli("YI")) == pytest.approx(4.0)
    # matrix oracle for the n = 2 case
    oracle = np.linalg.norm(
        kron_word("XI") @ kron_word("YI") - kron_word("YI") @ kron_word("XI")
    )
    assert oracle == pytest.approx(4.0, abs=1e-12)


def test_hs_norm_commutator_on_thousands_of_qubits():
    for n in (1100, 1101):
        x, z = PauliString(n, 1, 0), PauliString(n, 0, 1)
        assert hs_norm_commutator(x, z) == pytest.approx(2 * math.sqrt(2) ** n, rel=1e-12)
        assert hs_norm_commutator(x, x) == 0.0
    # 2*sqrt(2**2046) = 2**1024 is past the float range
    with pytest.raises(DomainError):
        hs_norm_commutator(PauliString(2046, 1, 0), PauliString(2046, 0, 1))


def test_hs_norm_membership_invariant():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        q = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
        assert hs_norm_commutator(p, q) in (0.0, 2 * math.sqrt(2.0 ** n))


def test_to_matrix_basics():
    assert np.array_equal(to_matrix(identity(1)), np.eye(2))
    assert np.array_equal(to_matrix(parse_pauli("Z")), np.diag([1, -1]).astype(complex))
    assert np.array_equal(
        np.diag(to_matrix(parse_pauli("ZZ"))), np.array([1, -1, -1, 1], dtype=complex)
    )


def test_to_matrix_unitary_hermitian_up_to_phase():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        m = to_matrix(p)
        assert np.allclose(m @ m.conj().T, np.eye(2 ** n), atol=1e-13)


def test_to_matrix_equals_i_to_the_phase_times_the_kronecker_chain_exactly():
    # the dense form is written from the bit masks; entry for entry it is the
    # Kronecker chain of the word's factors, qubit 0 leftmost, times i**k
    rng = np.random.default_rng(4)
    words = [PauliString(n, x, z) for n in range(1, 5)
             for x in range(1 << n) for z in range(1 << n)]
    words += [random_word(rng, n) for n in (8, 10) for _ in range(2)]
    for w in words:
        for k in range(4):
            p = PauliString(w.n, w.x_bits, w.z_bits, k)
            assert np.array_equal(to_matrix(p), 1j ** k * kron_word(format_pauli(w))), p


def test_to_matrix_scales_only_the_entries_of_the_word():
    # a scale multiplies each of the 2**n written values; a scale of 1 leaves
    # their bits alone, the -0 real part of a -i entry included
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        for _ in range(4):
            p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                            int(rng.integers(0, 4)))
            plain = to_matrix(p)
            assert to_matrix(p, 1).tobytes() == plain.tobytes()
            for scale in (-0.3j, 0.5j, -1.25, 0.25 - 0.75j):
                scaled = to_matrix(p, scale)
                assert np.array_equal(scaled, plain * scale), (p, scale)
                assert np.count_nonzero(scaled) == 2 ** n


def test_to_matrix_cap():
    with pytest.raises(ResourceLimitError):
        to_matrix(identity(13))


def test_parse_format_round_trip():
    for text in ("ZZI", "XYZ", "I", "YXIZ"):
        assert format_pauli(parse_pauli(text)) == text
    p = parse_pauli("ZZI")
    assert p.z_bits == 0b011 and p.x_bits == 0
    p = parse_pauli("XYZ")
    assert p.x_bits == 0b011 and p.z_bits == 0b110
    assert repr(PauliString(3, 0b011, 0b110, 3)) == "PauliString(-i*XYZ)"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_pauli("")
    with pytest.raises(ParseError, match="position 2"):
        parse_pauli("XYqZ")
    with pytest.raises(ParseError):
        parse_pauli("xyz")  # lowercase is rejected


def test_parse_matches_per_character_oracle():
    rng = np.random.default_rng(31)
    for n in list(range(1, 12)) + [int(k) for k in rng.integers(12, 301, size=40)]:
        text = "".join(rng.choice(list("IXYZ"), size=n))
        assert parse_pauli(text) == parse_pauli_oracle(text)


@pytest.mark.parametrize("bad", ["q", "x", " ", "\n", "é", "0"])
def test_parse_error_text_matches_oracle_at_every_position(bad):
    for pos in range(6):
        text = "XYZIZ"[:pos] + bad + "XYZIZ"[pos:] + "?"  # the first one is reported
        with pytest.raises(ParseError) as oracle:
            parse_pauli_oracle(text)
        with pytest.raises(ParseError) as got:
            parse_pauli(text)
        assert str(got.value) == str(oracle.value)


def test_dimension_errors():
    with pytest.raises(DimensionError):
        multiply(parse_pauli("X"), parse_pauli("XX"))
    with pytest.raises(DimensionError):
        commutes(parse_pauli("X"), parse_pauli("XX"))
    with pytest.raises(DimensionError):
        commutator(parse_pauli("X"), parse_pauli("XX"))
    with pytest.raises(DimensionError):
        hs_norm_commutator(parse_pauli("X"), parse_pauli("XX"))


def test_weight_and_support():
    p = parse_pauli("IXYZI")
    assert p.weight == 3
    assert p.support == (1, 2, 3)
    assert single(4, 2, "y").support == (2,)
    with pytest.raises(DomainError):
        PauliString(0, 0, 0)
    for x, z in ((0b100, 0), (0, -1)):  # a bit past qubit 1, and a negative mask
        with pytest.raises(DomainError, match="bit masks"):
            PauliString(2, x, z)
    with pytest.raises(DomainError, match="qubit 4 outside"):
        single(4, 4, "x")
    with pytest.raises(DomainError, match="distinct qubits"):
        two_body(4, 1, "x", 1, "z")
    assert single(4, 2, "Y") == single(4, 2, "y")
    for label in ("w", "", "i", "I", 1):  # formerly a KeyError, the identity or an AttributeError
        for build in (lambda: single(3, 0, label), lambda: two_body(3, 0, label, 1, "x"),
                      lambda: two_body(3, 0, "x", 1, label)):
            with pytest.raises(DomainError, match="axis must be one of x, y, z"):
                build()


def test_support_matches_per_qubit_definition():
    for n in range(1, 6):
        for p in all_strings(n):
            occ = p.x_bits | p.z_bits
            assert p.support == tuple(q for q in range(n) if occ >> q & 1), p
    assert parse_pauli("Z" + "I" * 1998 + "X").support == (0, 1999)
