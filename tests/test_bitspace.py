"""Group elements, connection sets, and GF(2) linear algebra."""

import random

import numpy as np
import pytest

from cubewalk import dynamics, graphwalk, oracle, pst, spectral
from cubewalk.bitspace import (MAX_DIMENSION, ConnectionSet,
                               DimensionMismatchError, GroupElement,
                               SetFormatError, _mask_labels, hypercube,
                               odd_parity_functional)

from oracles import gf2_rank


def test_group_element_basics():
    a = GroupElement(0b101, 3)
    b = GroupElement(0b011, 3)
    assert (a ^ b).bits == 0b110
    assert a.weight == 2
    assert str(a) == "101"
    assert GroupElement.zero(3).bits == 0
    assert GroupElement.all_ones(3).bits == 0b111


def test_group_element_parse_forms():
    assert GroupElement.parse("101", 3).bits == 5
    assert GroupElement.parse("0x5", 3).bits == 5
    assert GroupElement.parse("0", 1).bits == 0  # zero allowed for vertices
    with pytest.raises(SetFormatError):
        GroupElement.parse("10", 3)  # wrong width
    with pytest.raises(SetFormatError):
        GroupElement.parse("102", 3)
    with pytest.raises(SetFormatError):
        GroupElement.parse("0x9", 3)  # out of range
    with pytest.raises(SetFormatError):
        GroupElement.parse("", 3)


def test_group_element_rejects_bad_dimension():
    with pytest.raises(ValueError):
        GroupElement(1, 0)
    with pytest.raises(ValueError):
        GroupElement(1, MAX_DIMENSION + 1)
    with pytest.raises(ValueError):
        GroupElement(8, 3)  # bits outside the space
    for n in (0, MAX_DIMENSION + 6):  # before the label is read
        with pytest.raises(ValueError, match="dimension must be in"):
            GroupElement.parse("1", n)


def test_connection_set_construction():
    omega = ConnectionSet(3, (7, 1, 2))
    assert omega.elements == (1, 2, 7)  # sorted
    assert omega.d == 3 and len(omega) == 3
    assert omega.u.bits == 1 ^ 2 ^ 7
    assert 7 in omega and GroupElement(7, 3) in omega
    assert 5 not in omega
    assert [e for e in omega] == [1, 2, 7]
    assert omega.members()[0] == GroupElement(1, 3)
    np.testing.assert_array_equal(omega.indicator(),
                                  [0, 1, 1, 0, 0, 0, 0, 1])


def test_connection_set_accepts_group_elements():
    omega = ConnectionSet(3, (GroupElement(4, 3), 1))
    assert omega.elements == (1, 4)


# Every entry point that takes operands from one Z₂ⁿ, each given one
# operand from Z₂² against a Z₂³ other; the swapped calls give the Z₂²
# operand first, so the Z₂³ one is named.
_E3, _E2 = GroupElement(1, 3), GroupElement(1, 2)
_H3 = hypercube(3)
_MISMATCHES = {
    "GroupElement.__xor__": lambda: _E3 ^ _E2,
    "ConnectionSet": lambda: ConnectionSet(3, (_E2,)),
    "amplitude_exact": lambda: dynamics.amplitude_exact(_H3, _E2,
                                                        dynamics.HALF_PI),
    "measurement_distribution": lambda: dynamics.measurement_distribution(
        _H3, _E2, dynamics.HALF_PI),
    "bfs_profile": lambda: graphwalk.bfs_profile(_H3, _E2),
    "decide_pst_exact": lambda: pst.decide_pst_exact(_H3, _E2),
    "certify": lambda: pst.certify(_H3, _E2, dynamics.HALF_PI),
    "plan_route": lambda: pst.plan_route(3, _E2),
    "classify_congruences": lambda: spectral.classify_congruences(
        spectral.spectrum(_H3), _E2, False),
    "commutation_check": lambda: oracle.commutation_check(_H3, hypercube(2)),
}
_SWAPPED = {
    "commutation_check-swapped": lambda: oracle.commutation_check(
        hypercube(2), _H3),
}
_CASES = {**{name: (call, 2, 3) for name, call in _MISMATCHES.items()},
          **{name: (call, 3, 2) for name, call in _SWAPPED.items()}}


@pytest.mark.parametrize("call, named, against", _CASES.values(), ids=_CASES)
def test_every_operand_check_names_the_foreign_space(call, named, against):
    with pytest.raises(DimensionMismatchError,
                       match=rf" of Z2\^{named} against Z2\^{against}$"):
        call()


def test_connection_set_rejections():
    with pytest.raises(ValueError):
        ConnectionSet(3, (0, 1))
    with pytest.raises(ValueError):
        ConnectionSet(3, (8,))
    with pytest.raises(ValueError):
        ConnectionSet(3, (1, 1))


def test_empty_set_is_legal():
    omega = ConnectionSet(3, ())
    assert omega.d == 0 and omega.u.bits == 0
    assert omega.format() == ""
    assert ConnectionSet.parse("", 3) == omega


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 8)
        pool = range(1, 1 << n)
        k = rng.randint(0, min(6, len(pool)))
        omega = ConnectionSet(n, tuple(rng.sample(pool, k)))
        assert ConnectionSet.parse(omega.format(), n) == omega
    assert ConnectionSet.parse("0x7,001", 3).elements == (1, 7)


def test_parse_set_errors():
    for bad in ("000", "11", "001,001", "abc", "001,,010"):
        with pytest.raises(SetFormatError):
            ConnectionSet.parse(bad, 3)


def test_hypercube():
    q4 = hypercube(4)
    assert q4.elements == (1, 2, 4, 8)
    assert q4.d == 4
    assert q4.u == GroupElement.all_ones(4)


def test_mask_labels_against_bit_tests():
    def reference(mask):
        return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]

    rng = random.Random(7)
    wide = [rng.getrandbits(1 << 14), rng.getrandbits((1 << 16) - 1),
            1 << (1 << 14), (1 << (1 << 14)) - 1,
            sum(1 << rng.randrange(1 << 15) for _ in range(40))]
    for mask in [*range(1 << 7), *wide]:  # every set at n <= 3, then wide
        assert _mask_labels(mask) == reference(mask)


def _span_size(vectors):
    # closure under xor, the dumbest possible rank oracle
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return len(span)


def test_gf2_rank_against_span_closure():
    # the rank is the tests' connectivity oracle (test_graphwalk), so it is
    # held against the span itself
    rng = random.Random(3)
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([1, 2, 3]) == 2
    for _ in range(200):
        n = rng.randint(1, 8)
        vecs = [rng.randrange(1 << n) for _ in range(rng.randint(0, 10))]
        assert (1 << gf2_rank(vecs)) == _span_size(vecs)


def test_odd_parity_functional_against_brute_force():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 6)
        vecs = [rng.randrange(1, 1 << n)
                for _ in range(rng.randint(1, 8))]
        got = odd_parity_functional(vecs, n)
        witnesses = [z for z in range(1 << n)
                     if all(bin(z & w).count("1") & 1 for w in vecs)]
        if got is None:
            assert witnesses == []
        else:
            assert all(bin(got & w).count("1") & 1 for w in vecs)
            assert got in witnesses


def test_odd_parity_functional_no_constraints():
    # vacuous system: anything qualifies, zero is the canonical pick
    assert odd_parity_functional([], 3) == 0
