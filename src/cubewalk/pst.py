"""Perfect state transfer: certificates, exact decision, routing.

Closed form.  The walk on every cubelike graph has period 2π, and at t = π
it is back at its start up to the global phase (−1)^d.  At the quarter
period t = π/2 the walk teleports by the xor-sum of the connection set:
when u = ⊕Ω ≠ 0 there is perfect state transfer x → x⊕u with global phase
e^(−idπ/2), and when u = 0 the walk revives at its start instead.

Exact decision.  PST 0 → δ at time τπ happens iff all 2ⁿ unit terms of
T_δ(τπ) line up, which reduces to congruences on the spectral gaps
Δ_v = d − λ_v (all even):

    Δ_v·τ ∈ ℤ  and  Δ_v·τ ≡ δᵀv (mod 2)    for every v.

Let g = gcd of all Δ_v.  Since g is an integer combination of the gaps,
the first condition holds iff gτ ∈ ℤ, so τ = j/g.  The second then reads
(Δ_v/g)·j ≡ δᵀv (mod 2): an even j forces δ = 0, and any odd j gives

    Δ_v/g mod 2 = δᵀv    for every v,

so PST happens iff the 0/1 vector Δ/g mod 2 is a character v ↦ δᵀv.  Then
δ is read off at the basis positions v = eᵢ, it is the only transfer
offset of the set, and the earliest time is π/g (consistent with Cheung
and Godsil, "Perfect state transfer in cubelike graphs", LAA 2011).  The
decision is one O(2ⁿ) integer pass, sound and complete over rational
multiples of π; the edgeless graph (g = 0) never transfers.

No gcd and no division is computed.  For distinct labels the gcd of the
gaps is a power of two (Ward; Cheung and Godsil), so it equals the lowest
set bit of the OR of the gaps, and Δ_v/g is odd exactly when Δ_v has
that bit.  Even where the gcd had an odd factor m, Δ_v/g and Δ_v/(g·m)
would have the same parity, so δ and the yes/no answer do not rest on
that theorem; only the time π/g does.

Certificates.  At t = (p/q)π the 2ⁿ unit terms (−1)^(δᵀv)·e^(−iλ_v t) of
T_δ(t) are powers ζ^(e_v) of ζ = e^(iπ/q), e_v = q·δᵀv − p·λ_v mod 2q, and
the fidelity is 1 iff they all coincide: p·Δ_v ≡ q·δᵀv (mod 2q) for every
v.  With p, q coprime these are the congruences above at τ = p/q, q | Δ_v
and Δ_v/q ≡ δᵀv (mod 2); p drops out, as it is odd when q is even and
Δ_v/q is even when q is odd.  Together they are one congruence per v,
Δ_v ≡ q·(δᵀv mod 2) (mod 2q), a mask of the low bits when q is a power
of two.  ``certify`` checks all 2ⁿ of them in integers, with no
amplitude and no tolerance, and reads off the global phase
e^(−idt) = ζ^(e_0), e_0 = −p·d mod 2q: a Gaussian unit on the π/2 grid, a
complex number otherwise, exact whenever it is a power of i.

Routing.  Removing one basis generator eᵢ from the folded-cube set leaves
a set with xor-sum eᵢ, so any target is reached by chaining quarter-period
hops along its set bits.  Removing a member w from a set takes the term
(−1)^(wᵀv) out of every λ_v and one from d, so stage i's gaps are

    Δ'_v = Δ_v − 2vᵢ,    Δ the gaps of the folded cube,

and its π/2 congruences Δ'_v ≡ 2vᵢ (mod 4) all read Δ_v ≡ 0 (mod 4),
whatever i: the folded cube's own revival at π/2, its certificate at
δ = 0.  For n ≥ 2 the folded cube's spectrum has a closed form: the
basis generators give n − 2·wt(v) and the diagonal (−1)^wt(v), so

    λ_v = n + 1 − 2·wt(v) − 2·(wt(v) mod 2),

built per plan in int8 (|λ| ≤ n + 1) with no transform and nothing held
between plans.  One pass over it certifies every stage of a plan, and
each stage certificate (δ = eᵢ, time π/2, phase i^(−n)) follows with no
stage spectrum built.  At n = 1 the folded cube is {1}, the plan's one
stage, and it is certified on its own spectrum λ_v = 1 − 2v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitspace import ConnectionSet, GroupElement, _same_space
from .dynamics import HALF_PI, GaussianInteger, RationalAngle, _phase
from .spectral import character_bits, spectrum


class CertificationError(RuntimeError):
    """A claimed transfer time failed re-verification."""


@dataclass(frozen=True)
class PstCertificate:
    """An exactly checked statement: fidelity 1 at offset δ at the time.

    ``phase`` is the global phase e^(−idt) of the transfer, a Gaussian unit
    for times on the π/2 grid and a complex number otherwise.  ``method``
    records how the time was found: "closed-form" for the xor-sum rule at
    π/2, "exact-decision" for times from the congruence decision.
    """

    n: int
    delta: GroupElement
    time: RationalAngle
    phase: GaussianInteger | complex
    method: str


@dataclass(frozen=True)
class RouteStage:
    omega: ConnectionSet
    hop: GroupElement
    time: RationalAngle
    certificate: PstCertificate


@dataclass(frozen=True)
class RoutingPlan:
    """A chain of quarter-period PST hops whose xor reaches the target."""

    n: int
    target: GroupElement
    base: ConnectionSet
    stages: tuple[RouteStage, ...]

    @property
    def total_time(self) -> RationalAngle:
        return RationalAngle(len(self.stages), 2)


def pst_at_half_pi(omega: ConnectionSet) -> PstCertificate | None:
    """Closed-form quarter-period transfer, or None when the xor-sum is 0.

    When u ≠ 0 the transfer 0 → u at π/2 is certified exactly before it is
    returned, so a non-None result is unconditionally true.  A None means
    the walk revives at its start at π/2 instead.
    """
    if omega.u.bits == 0:
        return None
    return certify(omega, omega.u, HALF_PI, "closed-form")


# ── exact decision ────────────────────────────────────────────────────────

def pst_offsets(omega: ConnectionSet) -> dict[int, RationalAngle]:
    """All offsets δ with PST and their earliest times, one spectrum pass.

    The result holds at most one offset: {δ: π/g} when Δ/g mod 2 is the
    character of δ, and {} otherwise (see the module docstring).  Like
    ``spectrum``, the first call stores the decision on ``omega`` (as
    ``_pst_offsets``), so every δ asked of one set object costs one pass;
    each call returns a fresh dict.
    """
    offsets = getattr(omega, "_pst_offsets", None)
    if offsets is None:
        delta, g = _decide_rows(spectrum(omega).values[None, :])
        offsets = {int(delta[0]): RationalAngle(1, int(g[0]))} \
            if delta[0] else {}
        object.__setattr__(omega, "_pst_offsets", offsets)  # omega is frozen
    return dict(offsets)


def _decide_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transfer decision for each row of a (rows × 2ⁿ) spectrum block.

    Returns δ and g per row, g in the dtype of ``values``: the set of that
    row transfers 0 → δ at π/g when δ ≠ 0, and not at all when δ = 0.  g
    is the lowest set bit of the OR of the gaps, which equals their gcd
    by Ward's theorem (see the module docstring); Δ_v/g is odd exactly
    when Δ_v has bit g.  A transfer offset is never 0, because some Δ_v/g
    is odd.  An edgeless row has g = 0 and never transfers.  Every step
    is elementwise or a reduction over v, so a Fortran-ordered block, as
    the survey's word path passes, reduces whole columns at a time.
    """
    gaps = values[:, :1] - values  # Δ_v = d − λ_v ≥ 0, all even, Δ_0 = 0
    acc = np.bitwise_or.reduce(gaps, axis=1)
    g = acc & -acc
    odd = np.bitwise_and(gaps, g[:, None], out=gaps) != 0
    basis = [1 << i for i in range(values.shape[1].bit_length() - 1)]
    chars = np.zeros_like(odd)  # δᵀv mod 2 for δ read off odd at v = eᵢ
    for h in basis:
        np.logical_xor(chars[:, :h], odd[:, h:h + 1], out=chars[:, h:2 * h])
    delta = (odd[:, basis] * np.array(basis)).sum(axis=1)
    transfers = (g > 0) & (odd == chars).all(axis=1)
    return np.where(transfers, delta, 0), g


def decide_pst_exact(omega: ConnectionSet,
                     delta: GroupElement) -> RationalAngle | None:
    """Earliest time (p/q)·π with PST 0 → δ, or None if there is no such time.

    δ must be nonzero; the decision is exact integer arithmetic throughout
    and complete over all rational multiples of π.
    """
    _same_space(omega.n, delta=delta)
    if delta.bits == 0:
        raise ValueError("delta must be nonzero; the trivial revival at "
                         "t = pi holds for every set")
    return pst_offsets(omega).get(delta.bits)


def certify(omega: ConnectionSet, delta: GroupElement, time: RationalAngle,
            method: str = "exact-decision") -> PstCertificate:
    """Re-verify a claimed transfer and package it as a certificate.

    One exact integer check at every rational time, with no float
    fallback: the unit terms of T_δ(t) must all coincide (see
    "Certificates" in the module docstring).  Raises CertificationError
    when the fidelity is not 1.
    """
    _same_space(omega.n, delta=delta)
    return _certificate(omega.n, omega.d, spectrum(omega).values, delta,
                        time, method)


def _certificate(n: int, d: int, values: np.ndarray, delta: GroupElement,
                 time: RationalAngle, method: str) -> PstCertificate:
    """The check behind ``certify``, on the spectrum ``values`` of a set
    of degree d in Z₂ⁿ.  Its intermediates lie in [−m, 2d] and its
    constants are at most 2m ≤ 4d + 2, so int8 ``values``, as
    ``plan_route`` passes for the folded cube (d = n + 1) and for the one
    stage at n = 1, stay exact for d ≤ 31."""
    q = time.q
    m = min(q, 2 * d + 1)  # the same test for any q, in the dtype of values
    gaps = d - values  # Δ_v, in [0, 2d]; reduced in place below
    np.subtract(gaps, m, out=gaps, where=character_bits(n, delta.bits))
    if m & (m - 1):
        gaps %= 2 * m
    else:  # m = 2^s (m = 2 on the π/2 grid): the residue is a mask
        gaps &= 2 * m - 1
    if gaps.any():
        raise CertificationError(
            f"fidelity at {time} for delta={delta} is not 1")
    return PstCertificate(n=n, delta=delta, time=time, method=method,
                          phase=_phase(d, time))


# ── routing ───────────────────────────────────────────────────────────────

def folded_cube(n: int) -> ConnectionSet:
    """Basis generators plus the all-ones diagonal; xor-sum 0 for n ≥ 2.

    At n = 1 the diagonal coincides with e₁ and the set silently collapses
    to {1}.
    """
    ones = (1 << n) - 1
    labels = {1 << i for i in range(n)} | {ones}
    return ConnectionSet(n, tuple(labels))


def plan_route(n: int, target: GroupElement | int) -> RoutingPlan:
    """Quarter-period hop sequence reaching ``target`` from any start.

    Stage i uses the folded-cube set with basis generator eᵢ removed; its
    xor-sum is then eᵢ, so the stage teleports by eᵢ in time π/2.  One
    stage per set bit of the target, ascending.  Every stage certificate
    is verified exactly before the plan is returned, by one pass over the
    folded-cube spectrum in closed form: stage i's gaps are Δ_v − 2vᵢ, so
    all of its congruences hold iff the folded cube revives at π/2 (see
    "Routing" in the module docstring).  No transform runs, no stage
    spectrum is built, and no spectrum is stored on any set of the plan.
    """
    if isinstance(target, int):
        target = GroupElement(target, n)
    _same_space(n, target=target)
    if target.bits == 0:
        raise ValueError("target must be nonzero; the empty route is trivial")
    base = folded_cube(n)
    if n == 1:
        # {1} already has xor-sum e₁; removing it would leave nothing.
        stage_sets = [base]
        certs = [_certificate(1, 1, np.array([1, -1], dtype=np.int8),
                              base.u, HALF_PI, "closed-form")]
    else:
        stage_sets = [ConnectionSet(n, tuple(e for e in base.elements
                                             if e != 1 << i))
                      for i in range(n) if (target.bits >> i) & 1]
        # the folded cube's revival at π/2 is every stage's transfer check
        _certificate(n, n + 1, _folded_spectrum(n), GroupElement.zero(n),
                     HALF_PI, "closed-form")
        phase = _phase(n, HALF_PI)  # every stage has degree d = n
        certs = [PstCertificate(n=n, delta=omega.u, time=HALF_PI,
                                phase=phase, method="closed-form")
                 for omega in stage_sets]
    stages = tuple(RouteStage(omega=omega, hop=cert.delta, time=cert.time,
                              certificate=cert)
                   for omega, cert in zip(stage_sets, certs))
    acc = 0
    for stage in stages:
        acc ^= stage.hop.bits
    if acc != target.bits:
        raise RuntimeError("internal: route hops do not reach the target")
    return RoutingPlan(n=n, target=target, base=base, stages=stages)


def _folded_spectrum(n: int) -> np.ndarray:
    """The int8 spectrum of ``folded_cube(n)`` for n ≥ 2, in closed form
    (module docstring, "Routing"); |λ| ≤ n + 1."""
    weights = np.zeros(1 << n, dtype=np.int8)
    for i in range(n):  # wt(v + 2ⁱ) = wt(v) + 1 for v < 2ⁱ
        np.add(weights[:1 << i], 1, out=weights[1 << i:2 << i])
    return n + 1 - 2 * (weights + (weights & 1))
