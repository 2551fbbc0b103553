"""Walk amplitudes and fidelities, float and exact paths."""

import cmath
import math
import random

import numpy as np
import pytest

from cubewalk.bitspace import ConnectionSet, GroupElement, hypercube
from cubewalk.dynamics import (HALF_PI, GaussianInteger, RationalAngle,
                               UnsupportedAngleError, _phase, all_amplitudes,
                               all_fidelities, amplitude_exact,
                               exact_components, measurement_distribution)
from cubewalk.spectral import spectrum, wht

from oracles import all_sets, character, eigenvalues, random_set

# how far the float fidelities may stray from the exact ones on the grid
FLOAT_TOL = 1e-9


def _transform_components(omega, t):
    # the evaluation by transforms: each phase e^(-i lam m pi/2) is
    # (-i)^(lam m mod 4), and both parts are WHTs of these unit tables
    re_unit = np.array([1, 0, -1, 0], dtype=np.int64)
    im_unit = np.array([0, -1, 0, 1], dtype=np.int64)
    k = (spectrum(omega).values * (t.p * (2 // t.q))) % 4
    return wht(re_unit[k]), wht(im_unit[k])


def _direct_amplitudes(omega, t):
    # straight double loop over the definition, no transform anywhere
    n = omega.n
    lam = eigenvalues(omega.elements, n)
    out = []
    for delta in range(1 << n):
        acc = 0j
        for v in range(1 << n):
            acc += character(delta, v) * cmath.exp(-1j * lam[v] * t)
        out.append(acc)
    return np.array(out)


# ── rational angles ───────────────────────────────────────────────────────

def test_rational_angle_normalization():
    assert RationalAngle(2, 4) == RationalAngle(1, 2)
    assert RationalAngle(3) == RationalAngle(3, 1)
    assert RationalAngle(0, 5) == RationalAngle(0, 1)
    with pytest.raises(ValueError):
        RationalAngle(1, 0)
    with pytest.raises(ValueError):
        RationalAngle(-1, 2)


def test_rational_angle_parse_and_str():
    cases = {
        "0": (0, 1),
        "pi": (1, 1),
        "pi/2": (1, 2),
        "3*pi/4": (3, 4),
        "3*pi": (3, 1),
        "1/2": (1, 2),
        "7/2": (7, 2),
        "3": (3, 1),
    }
    for text, (p, q) in cases.items():
        assert RationalAngle.parse(text) == RationalAngle(p, q)
    # str round-trips through parse
    for angle in (RationalAngle(0), RationalAngle(1), HALF_PI,
                  RationalAngle(3, 4), RationalAngle(5, 2), RationalAngle(2)):
        assert RationalAngle.parse(str(angle)) == angle
    with pytest.raises(ValueError, match="denominator"):
        RationalAngle.parse("pi/0")
    for bad in ("", "-1/2", "x", "1/2/3", "3/", "pi/", "pi/x", "xpi", "1/2pi",
                "pi/2/3"):
        with pytest.raises(ValueError) as info:
            RationalAngle.parse(bad)
        assert str(info.value) == f"bad angle {bad!r}"


def test_rational_angle_radians_and_grid():
    assert math.isclose(HALF_PI.radians, math.pi / 2)
    assert HALF_PI.is_quarter_exact
    assert RationalAngle(1).is_quarter_exact
    assert RationalAngle(0).is_quarter_exact
    assert not RationalAngle(1, 4).is_quarter_exact
    assert not RationalAngle(2, 3).is_quarter_exact


# ── gaussian integers ─────────────────────────────────────────────────────

def test_gaussian_integer_ring_ops():
    rng = random.Random(5)
    for _ in range(100):
        a = GaussianInteger(rng.randint(-9, 9), rng.randint(-9, 9))
        b = GaussianInteger(rng.randint(-9, 9), rng.randint(-9, 9))
        assert complex(a + b) == complex(a) + complex(b)
        assert complex(a - b) == complex(a) - complex(b)
        assert complex(a * b) == complex(a) * complex(b)
        assert a.abs2() == a.re * a.re + a.im * a.im


def test_gaussian_unit_cycle():
    # the phase e^(-i d pi/2) of a transfer at pi/2 is the exact unit
    # i^(-d), with period 4 in the degree
    units = [GaussianInteger(1, 0), GaussianInteger(0, -1),
             GaussianInteger(-1, 0), GaussianInteger(0, 1)]
    assert [_phase(d, HALF_PI) for d in range(8)] == units + units


# ── float path ────────────────────────────────────────────────────────────

def test_all_amplitudes_against_direct_sum():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        t = rng.uniform(0, 2 * math.pi)
        got = all_amplitudes(omega, t)
        want = _direct_amplitudes(omega, t)
        assert np.max(np.abs(got - want)) <= 1e-9 * (1 << n)


def test_all_amplitudes_keep_the_bits_of_one_exponential_per_entry():
    # one exponential per distinct eigenvalue, gathered, against one per v
    rng = random.Random(17)
    cases = [(ConnectionSet(rng.randint(1, 8), ()), rng.uniform(0, 9))]
    cases += [(random_set(rng, rng.randint(1, 8)), t)
              for t in (0.0, 1e17, 1e300, -2.5, math.pi / 3)]
    cases += [(random_set(rng, rng.randint(1, 10)), rng.uniform(-50, 50))
              for _ in range(300)]
    for omega, t in cases:
        lam = spectrum(omega).values
        want = wht(np.exp(-1j * t * lam))
        assert all_amplitudes(omega, t).tobytes() == want.tobytes()


def test_float_paths_keep_their_bits_and_leave_the_spectrum_alone():
    # the phases gathered from the rolled table, transformed in place, and
    # the fidelities divided in place, against the plain gather with
    # lambda + d, the public transform and a fresh division, bit for bit;
    # the set's stored spectrum stays the same read-only array
    rng = random.Random(31)
    cases = [ConnectionSet(rng.randint(1, 12), ())]
    cases += [random_set(rng, rng.randint(1, 12)) for _ in range(40)]
    for omega in cases:
        spec = spectrum(omega)
        before = spec.values.tobytes()
        d = omega.d
        for t in (0.0, 0.37, math.pi / 3, -2.5, 1e17):
            table = np.exp(-1j * t * np.arange(-d, d + 1, dtype=np.int64))
            want = wht(table[spec.values + d])
            assert all_amplitudes(omega, t).tobytes() == want.tobytes()
            fidelities = np.abs(want) / (1 << omega.n)
            assert all_fidelities(omega, t).tobytes() == fidelities.tobytes()
        assert spectrum(omega) is spec
        assert not spec.values.flags.writeable
        assert spec.values.tobytes() == before


def test_fidelities_at_time_zero_and_bounds():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        fid0 = all_fidelities(omega, 0.0)
        assert math.isclose(fid0[0], 1.0, abs_tol=1e-12)
        assert np.max(fid0[1:]) <= 1e-12
        fid = all_fidelities(omega, rng.uniform(0, 3))
        assert np.all(fid >= -1e-12) and np.all(fid <= 1 + 1e-9)


def test_full_revival_at_pi():
    rng = random.Random(29)
    for _ in range(30):
        omega = random_set(rng, rng.randint(1, 8))
        fid = all_fidelities(omega, RationalAngle(1))
        assert fid[0] == 1.0  # exact branch, no rounding at all
        assert np.all(fid[1:] == 0.0)


# ── exact path ────────────────────────────────────────────────────────────

def test_exact_components_match_float_path():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        t = RationalAngle(rng.randint(0, 8), rng.choice((1, 2)))
        re, im = exact_components(omega, t)
        direct = _direct_amplitudes(omega, t.radians)
        assert np.max(np.abs(re + 1j * im - direct)) <= 1e-9 * (1 << n)


def _assert_matches_transforms(omega, t):
    re, im = exact_components(omega, t)
    want_re, want_im = _transform_components(omega, t)
    assert re.dtype == np.int64 and im.dtype == np.int64
    assert np.array_equal(re, want_re) and np.array_equal(im, want_im)
    return want_re, want_im


def test_exact_components_match_the_transforms():
    for n in (1, 2, 3):
        for labels in ((), *all_sets(n)):
            omega = ConnectionSet(n, labels)
            for m in range(9):
                t = RationalAngle(m, 2)
                want_re, want_im = _assert_matches_transforms(omega, t)
                for bits in range(1 << n):
                    got = amplitude_exact(omega, GroupElement(bits, n), t)
                    assert got == GaussianInteger(int(want_re[bits]),
                                                  int(want_im[bits]))
    rng = random.Random(47)
    for _ in range(2000):
        n = rng.randint(1, 12)
        pool = range(1, 1 << n)
        omega = ConnectionSet(n, tuple(rng.sample(
            pool, rng.randint(0, min(len(pool), 48)))))
        _assert_matches_transforms(
            omega, RationalAngle(rng.randint(0, 40), rng.choice((1, 2))))


def test_grid_path_computes_no_spectrum_and_no_transform(monkeypatch):
    def refuse(*_):
        raise AssertionError("transform on the exact grid")

    monkeypatch.setattr("cubewalk.dynamics.spectrum", refuse)
    monkeypatch.setattr("cubewalk.dynamics._wht_in_place", refuse)
    rng = random.Random(53)
    big = ConnectionSet(20, tuple(rng.sample(range(1, 1 << 20), 40)))
    small = ConnectionSet(8, tuple(rng.sample(range(1, 1 << 8), 40)))
    a = GroupElement(0b1011, 20)
    for omega in (big, small):
        assert omega.u.bits != 0
    for t, odd in ((HALF_PI, 1), (RationalAngle(1), 0)):
        mu = big.u.bits * odd
        re, im = exact_components(big, t)
        assert set(np.flatnonzero(re | im)) == {mu}
        assert amplitude_exact(big, GroupElement(mu, 20), t).abs2() == 1 << 40
        assert amplitude_exact(big, GroupElement(mu ^ 1, 20), t) == \
            GaussianInteger(0, 0)
        re, im = exact_components(small, t)
        assert list(np.flatnonzero(re * re + im * im)) == \
            [small.u.bits * odd]
        assert list(np.flatnonzero(all_fidelities(big, t))) == [mu]
        dist = measurement_distribution(big, a, t)
        assert list(np.flatnonzero(dist)) == [a.bits ^ mu]
        assert dist[a.bits ^ mu] == 1.0


def test_exact_amplitude_objects():
    omega = hypercube(3)
    assert all(isinstance(amplitude_exact(omega, GroupElement(b, 3),
                                          HALF_PI), GaussianInteger)
               for b in range(8))
    top = amplitude_exact(omega, GroupElement.all_ones(3), HALF_PI)
    assert top.abs2() == 64  # unit magnitude after the 1/2^n scale
    zero = amplitude_exact(omega, GroupElement.zero(3), HALF_PI)
    assert zero == GaussianInteger(0, 0)


def test_exact_path_rejects_off_grid_times():
    with pytest.raises(UnsupportedAngleError):
        exact_components(hypercube(2), RationalAngle(1, 4))
    with pytest.raises(UnsupportedAngleError):
        amplitude_exact(hypercube(2), GroupElement(1, 2), RationalAngle(2, 3))


def test_fidelity_exact_branch_agrees_with_float():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        t = RationalAngle(rng.randint(0, 6), rng.choice((1, 2)))
        exact = all_fidelities(omega, t)
        floaty = all_fidelities(omega, t.radians)
        assert np.max(np.abs(exact - floaty)) <= FLOAT_TOL


def test_grid_fidelities_keep_the_bits_of_the_point_mass_modulus():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 10)
        omega = random_set(rng, n)
        a = GroupElement(rng.randrange(1 << n), n)
        t = RationalAngle(rng.randint(0, 9), rng.choice((1, 2)))
        re, im = exact_components(omega, t)
        fid = np.sqrt((re * re + im * im).astype(np.float64)) / (1 << n)
        dist = (fid * fid)[np.arange(1 << n) ^ a.bits]
        assert all_fidelities(omega, t).tobytes() == fid.tobytes()
        assert measurement_distribution(omega, a, t).tobytes() == \
            dist.tobytes()


# ── measurement ───────────────────────────────────────────────────────────

def test_measurement_distribution_is_a_distribution():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 6)
        omega = random_set(rng, n)
        a = GroupElement(rng.randrange(1 << n), n)
        t = rng.uniform(0, 3)
        dist = measurement_distribution(omega, a, t)
        assert np.all(dist >= -1e-12)
        assert math.isclose(float(dist.sum()), 1.0, abs_tol=1e-9)


def test_measurement_translation_covariance():
    rng = random.Random(43)
    omega = random_set(rng, 4)
    t = 1.1
    base = measurement_distribution(omega, GroupElement.zero(4), t)
    for bits in (1, 7, 12):
        shifted = measurement_distribution(omega, GroupElement(bits, 4), t)
        idx = np.arange(16) ^ bits
        np.testing.assert_allclose(shifted, base[idx], atol=1e-12)


def test_measurement_certain_outcomes_on_the_grid():
    # nonzero xor-sum: all mass on a xor u at pi/2
    omega = ConnectionSet(3, (1, 2, 7))  # u = 100
    dist = measurement_distribution(omega, GroupElement(0b010, 3), HALF_PI)
    assert dist[0b110] == 1.0 and dist.sum() == 1.0
    # zero xor-sum: all mass back at the start
    flat = ConnectionSet(2, (1, 2, 3))
    dist = measurement_distribution(flat, GroupElement(0b01, 2), HALF_PI)
    assert dist[0b01] == 1.0
