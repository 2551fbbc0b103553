"""Continuous-time quantum walk on cubelike graphs.

The walk operator is U(t) = exp(−itA).  Because all cubelike adjacency
matrices are diagonalized by the same character basis, the transition
amplitude between vertices a and b depends only on δ = a⊕b:

    T_δ(t) = Σ_v (−1)^(δᵀv) e^(−iλ_v t)          (unnormalized; |·| ≤ 2ⁿ)

and one WHT of the phase vector e^(−iλt) yields T for every δ at once.
The fidelity is F_δ(t) = |T_δ(t)| / 2ⁿ.

On the grid t = mπ/2 (m = 2p/q, q | 2) no transform is needed.  With
c_v = (wᵀv mod 2) over w ∈ Ω, λ_v = d − 2·wt(c_v) and wt(c_v) ≡ uᵀv (mod 2)
for u the xor-sum, so every phase is (−i)^(md)·(−1)^(m·uᵀv) and T is the
point mass T_δ(mπ/2) = 2ⁿ·(−i)^(md)·[δ = mu], mu = u for odd m, else 0.
Every fidelity on the grid is thus exactly 0 or 1.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .bitspace import ConnectionSet, GroupElement, _same_space
from .spectral import _wht_in_place, spectrum


class UnsupportedAngleError(ValueError):
    """Exact evaluation was requested outside the quarter-period grid."""


# p, pi, p*pi or p pi, each optionally over /q; a bare pi stands for p = 1
_ANGLE = re.compile(r"([0-9]+|(?=pi))(\*?pi)?(?:/([0-9]+))?")


@dataclass(frozen=True)
class RationalAngle:
    """A time of the form (p/q)·π with p ≥ 0, q ≥ 1, stored in lowest terms."""

    p: int
    q: int = 1

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"denominator must be positive, got {self.q}")
        if self.p < 0:
            raise ValueError(f"numerator must be nonnegative, got {self.p}")
        g = math.gcd(self.p, self.q)
        if self.p == 0:
            object.__setattr__(self, "q", 1)
        elif g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)

    @property
    def radians(self) -> float:
        """The time as a float, taken mod 2π.

        Every eigenvalue is an integer, so the walk has period 2π; reducing
        p mod 2q first keeps a huge numerator exact, and leaves every time
        below 2π bit for bit as π·p/q.
        """
        return math.pi * (self.p % (2 * self.q)) / self.q

    @property
    def is_quarter_exact(self) -> bool:
        """True when the angle sits on the exact grid (multiples of π/2)."""
        return self.q in (1, 2)

    def __str__(self) -> str:
        if self.p == 0:
            return "0"
        head = "pi" if self.p == 1 else f"{self.p}*pi"
        return head if self.q == 1 else f"{head}/{self.q}"

    @classmethod
    def parse(cls, text: str) -> RationalAngle:
        """Accept 'p/q' or 'p', and the printed forms like 'pi/2', '3*pi/4'.

        Any other text raises ValueError("bad angle '<text>'").
        """
        match = _ANGLE.fullmatch(text.strip().lower().replace(" ", ""))
        if not match:
            raise ValueError(f"bad angle {text!r}")
        p, _, q = match.groups()
        return cls(int(p or 1), int(q or 1))


HALF_PI = RationalAngle(1, 2)


@dataclass(frozen=True)
class GaussianInteger:
    """Element of Z[i]; amplitudes on the exact grid land here."""

    re: int
    im: int

    def __add__(self, other: GaussianInteger) -> GaussianInteger:
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInteger) -> GaussianInteger:
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInteger:
        return GaussianInteger(-self.re, -self.im)

    def __mul__(self, other) -> GaussianInteger:
        if isinstance(other, GaussianInteger):
            return GaussianInteger(self.re * other.re - self.im * other.im,
                                   self.re * other.im + self.im * other.re)
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def abs2(self) -> int:
        """Squared modulus re² + im², exact."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        return f"{self.re}{im}" if self.im < 0 else f"{self.re}+{im}"


# i^k at index k
_UNITS = (GaussianInteger(1, 0), GaussianInteger(0, 1),
          GaussianInteger(-1, 0), GaussianInteger(0, -1))


def _phase(d: int, time: RationalAngle) -> GaussianInteger | complex:
    """e^(−idt), the phase of a transfer at ``time`` on a set of degree d:
    exact when it is a power of i on the quarter grid, complex otherwise."""
    q = time.q
    e0 = -time.p * d % (2 * q)
    k, rest = divmod(2 * e0, q)  # 0 ≤ k < 4; ζ^(e_0) = i^k when rest = 0
    phase = _UNITS[k] if rest == 0 else cmath.exp(1j * math.pi * e0 / q)
    return phase if time.is_quarter_exact else complex(phase)


# ── float path ────────────────────────────────────────────────────────────

def all_amplitudes(omega: ConnectionSet, t: float) -> np.ndarray:
    """Unnormalized amplitudes T_δ(t) for every δ, complex128.

    λ takes integer values in [−d, d] only, so the phases e^(−iλt) are read
    from a table of 2d + 1 exponentials, each computed by the same
    expression as a phase taken entry by entry, hence with the same bits.
    The table is rolled to start at λ = 0, so λ indexes it directly and a
    negative λ from the end; the gathered phases are the one array
    allocated, and they are transformed in place.
    """
    d = omega.d
    table = np.exp(-1j * float(t) * np.arange(-d, d + 1, dtype=np.int64))
    phases = np.roll(table, -d)[spectrum(omega).values]
    _wht_in_place(phases)
    return phases


def all_fidelities(omega: ConnectionSet, t) -> np.ndarray:
    """F_δ(t) = |T_δ(t)|/2ⁿ for every δ; index δ = a⊕b.

    ``t`` may be a float (radians) or a RationalAngle.  On the π/2 grid the
    entries are the exact 0.0 and 1.0 of the point mass, not approximations.
    """
    if isinstance(t, RationalAngle):
        if t.is_quarter_exact:
            return _grid_fidelities(omega, t, 0)
        t = t.radians
    fidelities = np.abs(all_amplitudes(omega, float(t)))
    fidelities /= 1 << omega.n
    return fidelities


# ── exact path (q | 2) ────────────────────────────────────────────────────

def _point_mass(omega: ConnectionSet,
                t: RationalAngle) -> tuple[int, GaussianInteger]:
    """(mu, 2ⁿ·(−i)^(md)) at t = mπ/2: where T_δ is nonzero, and its value."""
    if not t.is_quarter_exact:
        raise UnsupportedAngleError(
            f"exact amplitudes need a multiple of pi/2, got {t}")
    m = t.p * (2 // t.q)
    return (omega.u.bits if m % 2 else 0,
            _phase(omega.d, t) * (1 << omega.n))


def _grid_fidelities(omega: ConnectionSet, t: RationalAngle,
                    a: int) -> np.ndarray:
    """Float zeros with one exact 1.0 at a ⊕ mu: |T_δ(t)|/2ⁿ over δ = a⊕b."""
    out = np.zeros(1 << omega.n)
    out[a ^ _point_mass(omega, t)[0]] = 1.0
    return out


def exact_components(omega: ConnectionSet,
                     t: RationalAngle) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of T_δ(t) as int64 arrays, one per δ.

    The point mass of the module docstring; t must be a multiple of π/2.
    """
    mu, amp = _point_mass(omega, t)
    re, im = np.zeros((2, 1 << omega.n), dtype=np.int64)
    re[mu], im[mu] = amp.re, amp.im
    return re, im


def amplitude_exact(omega: ConnectionSet, delta: GroupElement,
                    t: RationalAngle) -> GaussianInteger:
    """T_δ(t) in O(1), read off the point mass; t must be a multiple of π/2."""
    _same_space(omega.n, delta=delta)
    mu, amp = _point_mass(omega, t)
    return amp if delta.bits == mu else GaussianInteger(0, 0)


# ── measurement ───────────────────────────────────────────────────────────

def measurement_distribution(omega: ConnectionSet, a: GroupElement,
                             t) -> np.ndarray:
    """Outcome distribution of a position measurement at time t.

    Entry b is F_δ(t)² with δ = a⊕b, read off ``all_fidelities``; on the
    exact grid, the point mass of the module docstring moved to a.
    """
    _same_space(omega.n, a=a)
    if isinstance(t, RationalAngle) and t.is_quarter_exact:
        return _grid_fidelities(omega, t, a.bits)
    fid = all_fidelities(omega, t)
    idx = np.arange(1 << omega.n) ^ a.bits
    return (fid * fid)[idx]
