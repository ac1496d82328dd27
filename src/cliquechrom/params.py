"""Parameter schedule and closed-form bound calculus for G(n, p).

Everything here is a finite-n evaluation of the asymptotic recipe: the case
split on the sparsity exponent rho = log_n(1/p), the level series
r_i = e^{zeta*i} and x_i = log(n)/(phi(r_i - 1) p), the Lambda/Pi bound on
the fraction of spoiled clique candidates, the Janson exponent lower bounds,
and the leading-order predictions for the clique chromatic number.

The level series has one home, `ParamSchedule`: `rate` gives
phi(r_i - 1) p for an index or an index array, `last_index` the last level
with p r_i under a cutoff, and `levels` splits the indices into chunks of
2^20. The Pi sums and the density-series minimum are both built from these,
in one walk: it evaluates each chunk in cache-sized blocks of 2^13 levels,
into a few buffers allocated once per walk, and collects the chunk's terms
in one buffer. Each Pi sum still adds one pairwise reduction per chunk, and
every element sees the same float operations in the same order, so the
blocks change no bit of the result.

All powers are assembled in log-space, so nothing over- or underflows even
for n around 1e300; scalar quantities use numpy's extended-precision long
double for extra headroom, while the long i-indexed series are summed
chunked in float64 (pairwise reduction keeps the error near 1e-15 relative,
far inside every stated tolerance). Natural logarithms are used throughout.
The series have ~log^4(n) log(1/p) terms, so evaluation is instantaneous at
desk scale but `levels` refuses with an error once direct summation would
stop being feasible (roughly ln(n) > 200 with small p). The walk also
refuses p so close to 0 (around 1e-306 and below) that x_1 or the rate at
the last level overflows float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "SIGMA",
    "ALPHA",
    "NU",
    "phi",
    "ParamSchedule",
    "make_schedule",
    "build_schedule",
    "clamp_delta",
    "class_count",
    "LambdaReport",
    "lambda_report",
    "JansonExponents",
    "janson_exponent",
    "InequalityReport",
    "inequality_check",
    "Prediction",
    "predicted_bounds",
]

SIGMA = 1.0 / 100.0
ALPHA = 4.0 / 5.0
NU = 1.0 / 10.0

_LD = np.longdouble
_CHUNK = 1 << 20  # levels per reduction: the Pi sums add one pairwise sum per chunk
_BLOCK = 1 << 13  # levels per elementwise pass, sized to stay in cache
_TERM_LIMIT = 500_000_000


def _check_cell(n: float, p: float) -> None:
    if not math.isfinite(n):
        raise ValueError(f"n must be finite, got {n!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if math.isinf(1.0 / p):
        raise ValueError(f"p={p!r} is too small: 1/p overflows")


def phi(x: float) -> float:
    """(1+x)*log(1+x) - x, the Chernoff rate function; domain x > -1."""
    if x <= -1.0:
        raise ValueError("phi requires x > -1")
    return float(_phi(np.float64(x)))


def _phi(x, out=None, work=None):
    """Vectorized phi with a series branch: the closed form cancels to
    O(x^2) for tiny x, so below 1e-4 use x^2 (1/2 - x/6 + x^2/12 - x^3/20).

    `out` and `work` are optional buffers shaped like x (neither may be x):
    the result lands in `out`, and `work` holds a temporary. The series is
    evaluated only when some |x| < 1e-4, and selected by that mask."""
    y = np.log1p(x, out=out)
    y = np.subtract(np.multiply(np.add(1.0, x, out=work), y, out=out), x, out=out)
    small = np.abs(x, out=work) < 1e-4
    if not small.any():
        return y
    series = x * x * (0.5 - x / 6.0 + x * x / 12.0 - x * x * x / 20.0)
    if out is None:
        return np.where(small, series, y)
    np.copyto(out, series, where=small)
    return out


def class_count(n: float, p: float, delta: float) -> int:
    """s = floor(delta * log_{1/(1-p)}(n)); ValueError when that overflows."""
    try:
        return math.floor(delta * math.log(n) / -math.log1p(-p))
    except OverflowError:
        raise ValueError(f"class count overflows at p={p!r}") from None


def _tau(n: float, p: float, delta: float) -> float:
    """Concentration slack for the mutual-non-neighbor count.

    max of 2*log(n)/(np) and sqrt(32 log^2(n) / (n^(1-delta) p (1 - log(n)/(np)))).
    Degenerates to +inf when np <= log(n); callers treat that as "no
    guarantee", which makes the first branch of ell_1 vacuous.
    """
    ln_n = math.log(n)
    first = 2.0 * ln_n / (n * p)
    bracket = 1.0 - ln_n / (n * p)
    if bracket <= 0.0:
        return math.inf
    second = math.sqrt(32.0 * ln_n * ln_n / (n ** (1.0 - delta) * p * bracket))
    return max(first, second)


@dataclass(frozen=True)
class ParamSchedule:
    """All scalar parameters for one (n, p) cell, plus the derived series."""

    n: float
    p: float
    epsilon: float
    rho: float
    zeta: float
    delta: float
    s: int
    m: int
    k: int
    tau: float
    ell0: float
    sigma: float = SIGMA
    alpha: float = ALPHA
    nu: float = NU
    delta_clamped: bool = False
    delta_raw: float = field(default=math.nan)

    def rate(self, i):
        """phi(r_i - 1) p at level i (an index or a float64 index array)."""
        return _phi(np.expm1(self.zeta * i)) * self.p

    def last_index(self, cutoff: float) -> int:
        """The last level i with p r_i <= cutoff; 0 when no level i >= 1 has it."""
        if cutoff <= 0.0 or self.p > cutoff:
            return 0
        return math.floor((math.log(cutoff) - math.log(self.p)) / self.zeta)

    def levels(self, last: int, reverse: bool = False) -> Iterator[tuple[int, int]]:
        """The indices 2..last as half-open ranges [lo, hi) of at most 2^20,
        in order or reversed; refuses a walk too long to sum directly."""
        # The series has ~log^4(n) log(1/p) terms; around ln(n) > 200 with
        # small p that stops being directly summable in reasonable time.
        if last > _TERM_LIMIT:
            raise ValueError(
                f"level series has {last} terms; direct summation is infeasible "
                "at this (n, p)"
            )
        starts = range(2, last + 1, _CHUNK)
        return ((lo, min(lo + _CHUNK, last + 1)) for lo in (reversed(starts) if reverse else starts))

    def ell1(self, size: int) -> float:
        """The non-neighbor threshold ell_1(W) for a set W of `size` vertices;
        ell1(0) is ell0."""
        return _ell1(self.n, self.p, self.delta, self.s, self.tau, size)

    @cached_property
    def _series(self) -> tuple[float, float, float]:
        """`_walk_series` forward, for `lambda_report` and `inequality_check`."""
        return _walk_series(self)


def _ell1(n: float, p: float, delta: float, s: int, tau: float, size: int) -> float:
    """ell_1 = max((1-tau) n^(1-delta)/s, size - 2np). A degenerate tau (>= 1)
    drops the first branch; a degenerate s (< 1) counts as 1."""
    first = (1.0 - tau) * n ** (1.0 - delta) / max(s, 1) if tau < 1.0 else -math.inf
    return max(first, size - 2.0 * n * p)


def make_schedule(
    n: float,
    p: float,
    *,
    delta: float,
    m: int,
    k: int,
    epsilon: float,
    delta_clamped: bool = False,
    delta_raw: Optional[float] = None,
) -> ParamSchedule:
    """Assemble a schedule from explicit primary choices, deriving the rest.

    Useful for tests and what-if evaluation; `build_schedule` is the
    canonical recipe.
    """
    _check_cell(n, p)
    if n < 3:
        raise ValueError("n must be >= 3")
    ln_n = math.log(n)
    rho = math.log(1.0 / p) / ln_n
    zeta = 1.0 / ln_n**4
    s = class_count(n, p, delta)
    tau = _tau(n, p, delta)
    return ParamSchedule(
        n=float(n),
        p=float(p),
        epsilon=float(epsilon),
        rho=rho,
        zeta=zeta,
        delta=float(delta),
        s=s,
        m=int(m),
        k=int(k),
        tau=tau,
        ell0=_ell1(n, p, delta, s, tau, 0),
        delta_clamped=delta_clamped,
        delta_raw=delta if delta_raw is None else delta_raw,
    )


def _dense(n: float, p: float) -> bool:
    """The dense case p >= n^(-sigma). It compares p against n^-sigma
    directly: deciding via the recomputed rho flips boundary cases through
    float rounding."""
    return p >= n**-SIGMA


def clamp_delta(raw: float) -> tuple[float, bool]:
    """(delta, clamped): a delta outside (0, 1) is clamped to [0.01, 0.99]."""
    if 0.0 < raw < 1.0:
        return raw, False
    return min(max(raw, 0.01), 0.99), True


def build_schedule(n: float, p: float, epsilon: float = SIGMA / 2.0) -> ParamSchedule:
    """The canonical parameter recipe, split on p >= n^(-sigma).

    Dense case (rho <= sigma): m = floor(2/(3 rho)), k = ceil(1/rho + 1/2),
    delta = 1/2 - 3 rho - 9 loglog(n)/log(n).
    Sparse case (rho > sigma):  m = 1, k = ceil(1/rho + [rho <= 4/15]/2),
    delta = min(epsilon, sigma/2).

    A delta outside (0, 1), which is routine at small n where the loglog
    correction dominates, is clamped to [0.01, 0.99] and flagged.
    """
    _check_cell(n, p)
    if n < 3:
        raise ValueError("n must be >= 3")
    ln_n = math.log(n)
    rho = math.log(1.0 / p) / ln_n
    if _dense(n, p):
        m = math.floor(2.0 / (3.0 * rho))
        k = math.ceil(1.0 / rho + 0.5)
        delta_raw = 0.5 - 3.0 * rho - 9.0 * math.log(ln_n) / ln_n
    else:
        m = 1
        half = 0.5 if rho <= 4.0 / 15.0 else 0.0
        k = math.ceil(1.0 / rho + half)
        delta_raw = min(epsilon, SIGMA / 2.0)
    delta, clamped = clamp_delta(delta_raw)
    return make_schedule(
        n,
        p,
        delta=delta,
        m=m,
        k=k,
        epsilon=epsilon,
        delta_clamped=clamped,
        delta_raw=delta_raw,
    )


# -- Lambda / Pi calculus -------------------------------------------------------


@dataclass(frozen=True)
class LambdaReport:
    lambda0: float
    pi_alpha: float
    pi_invlog: float
    lam: float
    counting_ok: bool  # 1 - Lambda >= nu
    nu: float


def _walk_series(sch: ParamSchedule, reverse: bool = False) -> tuple[float, float, float]:
    """(Pi_alpha, Pi_{1/log n}, density-series minimum) from one walk over the levels.

    Pi_cutoff sums x_i ((r_{i+1} p)^(k-m) - (r_i p)^(k-m)) over i >= 2 with
    p r_i <= cutoff, in chunks from level 2: each chunk's terms, a prefix
    slice per cutoff, are reduced pairwise and the chunk sums added in order.
    Within a chunk the levels are evaluated in blocks of _BLOCK, into
    buffers allocated once per walk; the chunk's terms collect in one buffer.
    `reverse` reverses both orders (a numerical self-check) and skips the
    minimum of ceil(x_i)(phi(r_i - 1) p - log^3(n)/ell0) over i >= 1 with
    r_i p <= 1, which is nan when skipped, too long to walk or ell0 <= 0.
    Raises ValueError when the step e^{zeta (k-m)} overflows (p near 1), and
    when x_1 or the rate at the series' last level overflows (p near 0).
    """
    ln_n = math.log(sch.n)
    km = sch.k - sch.m
    try:
        step = math.expm1(sch.zeta * km)  # (e^{zeta (k-m)} - 1)
    except OverflowError:
        raise ValueError(f"level series step e^(zeta (k-m)) overflows at k-m={km}") from None
    # The rate rises with the level and x_i falls, so these two bound every
    # rate and x_i of the walk, and of _lambda0.
    with np.errstate(all="ignore"):
        x1 = ln_n / sch.rate(1.0)
        top_rate = sch.rate(float(max(sch.last_index(1.0), 1)))
    if not (np.isfinite(x1) and np.isfinite(top_rate)):
        raise ValueError(f"level series overflows float64 at p={sch.p!r}")
    lasts = (sch.last_index(sch.alpha), sch.last_index(1.0 / ln_n))
    dens_last = sch.last_index(1.0)
    best = math.nan
    if reverse or sch.ell0 <= 0.0 or dens_last > _TERM_LIMIT:
        dens_last = 0
    else:
        correction = ln_n**3 / sch.ell0
        rate = sch.rate(np.ones(min(dens_last, 1)))  # level 1, if any
        best = float(np.min(np.ceil(ln_n / rate) * (rate - correction), initial=math.inf))
    top = max(lasts)
    log_p = math.log(sch.p)
    ramp = np.arange(_BLOCK, dtype=np.float64)
    z, x, r, w = (np.empty(_BLOCK) for _ in range(4))
    terms = np.empty(min(max(top - 1, 0), _CHUNK))
    totals = [0.0, 0.0]
    for lo, hi in sch.levels(max(top, dens_last), reverse):
        for b in range(lo, hi, _BLOCK):
            size = min(hi - b, _BLOCK)
            zb, xb, rb, wb = z[:size], x[:size], r[:size], w[:size]
            np.multiply(np.add(ramp[:size], b, out=zb), sch.zeta, out=zb)  # zeta i; b + ramp is exact
            np.multiply(_phi(np.expm1(zb, out=xb), out=rb, work=wb), sch.p, out=rb)  # rate(i)
            np.divide(ln_n, rb, out=xb)  # x_i
            nt = min(top + 1 - b, size)
            if nt > 0:
                seg, zt = terms[b - lo : b - lo + nt], zb[:nt]
                np.exp(np.multiply(np.add(zt, log_p, out=zt), km, out=zt), out=zt)  # (p r_i)^(k-m)
                np.multiply(np.multiply(xb[:nt], zt, out=seg), step, out=seg)
            d = min(dens_last + 1 - b, size)
            if d > 0:
                ceil_x = np.ceil(xb[:d], out=zb[:d])
                dens = np.multiply(ceil_x, np.subtract(rb[:d], correction, out=wb[:d]), out=wb[:d])
                # Finite x and rate leave no NaN, so the block minima give the chunk's.
                best = min(best, float(dens.min()))
        for j, last in enumerate(lasts):
            part = terms[: max(min(last + 1, hi) - lo, 0)]
            if part.size:
                totals[j] += float(np.add.reduce(part[::-1] if reverse else part))
    return totals[0], totals[1], best


def _lambda0(sch: ParamSchedule) -> np.longdouble:
    km = sch.k - sch.m
    ln_n = _LD(np.log(_LD(sch.n)))
    ln_p = _LD(np.log(_LD(sch.p)))
    zeta = _LD(sch.zeta)
    # x_1 in log-space to dodge intermediate under/overflow.
    log_x1 = np.log(ln_n) - np.log(_phi(np.expm1(zeta))) - ln_p
    term1 = _LD(sch.m + 1) * np.exp(log_x1 + km * (ln_p + 2 * zeta))
    term2 = np.exp(np.log(_LD(sch.n)) + sch.k * (ln_p + zeta))
    return term1 + term2


def lambda_report(sch: ParamSchedule, reverse: bool = False) -> LambdaReport:
    """Evaluate Lambda = Lambda_0 + [m>=2] Pi_alpha + [m=1](Pi_{1/log n} + 0.7).

    Both Pi variants are reported regardless of the case; only the one the
    case selects enters Lambda. `reverse` flips the summation order of the
    series (a numerical self-check; the result must agree).
    """
    # The walk first: it refuses the cells whose x_1 would overflow _lambda0.
    pi_alpha, pi_invlog, _ = _walk_series(sch, reverse=True) if reverse else sch._series
    lambda0 = float(_lambda0(sch))
    if sch.m >= 2:
        lam = lambda0 + pi_alpha
    else:
        lam = lambda0 + (pi_invlog + 0.7)
    return LambdaReport(
        lambda0=lambda0,
        pi_alpha=pi_alpha,
        pi_invlog=pi_invlog,
        lam=lam,
        counting_ok=1.0 - lam >= sch.nu,
        nu=sch.nu,
    )


# -- Janson exponents -----------------------------------------------------------


@dataclass(frozen=True)
class JansonExponents:
    general: float
    improved: Optional[float]  # only in the m = 1 case


def janson_exponent(sch: ParamSchedule, a: int, b: int) -> JansonExponents:
    """Lower bounds on the Janson exponent mu^2 / (2 (mu + Delta)).

    General form: nu/4 * min((b/k^2)^2 p / k^2, (b/k^2)^k p^C(k,2) / k^2).
    For m = 1 the improved variant replaces one b/k^2 factor by a/k^2.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be >= 1")
    k = sch.k
    ln_p = _LD(np.log(_LD(sch.p)))
    log_b = np.log(_LD(b) / _LD(k * k))
    log_a = np.log(_LD(a) / _LD(k * k))
    log_k2 = np.log(_LD(k * k))
    quarter_nu = _LD(sch.nu) / 4

    sparse = 2 * log_b + ln_p - log_k2
    dense = k * log_b + comb(k, 2) * ln_p - log_k2
    general = float(quarter_nu * np.exp(np.minimum(sparse, dense)))

    improved = None
    if sch.m == 1:
        sparse_i = log_a + log_b + ln_p - log_k2
        dense_i = log_a + (k - 1) * log_b + comb(k, 2) * ln_p - log_k2
        improved = float(quarter_nu * np.exp(np.minimum(sparse_i, dense_i)))
    return JansonExponents(general=general, improved=improved)


# -- Inequality system ----------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    flags: dict[str, bool]
    values: dict[str, float]

    @property
    def all_pass(self) -> bool:
        return all(self.flags.values())


def inequality_check(sch: ParamSchedule, lam: Optional[LambdaReport] = None) -> InequalityReport:
    """Numerically evaluate the schedule's inequality system at this (n, p).

    Pure finite-n truth values; failures at small n are expected and carry
    no asymptotic meaning.
    """
    n, p, k, m = sch.n, sch.p, sch.k, sch.m
    ln_n = math.log(n)
    lnln_n = math.log(ln_n)
    lam = lam or lambda_report(sch)
    flags: dict[str, bool] = {}
    values: dict[str, float] = {}

    flags["k_range"] = m + 2 <= k <= ln_n
    values["k_range_upper"] = ln_n

    delta_cap = (
        min(0.5 - sch.rho, (k - 1) / k * (1.0 - sch.rho * (k / 2.0 + 1.0)))
        - 9.0 * lnln_n / ln_n
    )
    flags["delta_upper"] = sch.delta <= delta_cap
    values["delta_cap"] = delta_cap

    part_lhs = min(sch.ell0, n ** (1.0 - sch.delta) * p)
    part_rhs = max(16.0 * m * (1.0 + math.log(n * m)), 8.0 * k * k, ln_n**4)
    flags["partition_size"] = part_lhs >= part_rhs
    values["partition_lhs"] = part_lhs
    values["partition_rhs"] = part_rhs

    if sch.ell0 > 0.0:
        try:
            dens_lhs = sch._series[2]
        except ValueError:
            dens_lhs = math.nan  # series too long for direct evaluation
        dens_rhs = 1.0 + max(math.log(n * ln_n**2 * math.e / sch.ell0), 0.0)
        flags["density_series"] = dens_lhs >= dens_rhs
        values["density_series_lhs"] = dens_lhs
        values["density_series_rhs"] = dens_rhs
    else:
        flags["density_series"] = False
        values["density_series_lhs"] = -math.inf
        values["density_series_rhs"] = math.inf

    flags["counting_margin"] = lam.counting_ok
    values["lambda"] = lam.lam

    flags["class_count"] = sch.s >= m + 1
    values["s"] = float(sch.s)

    if m >= 2:
        flags["case_p_large"] = _dense(n, p)
        formula = 0.5 - 3.0 * sch.rho - 9.0 * lnln_n / ln_n
        flags["delta_formula"] = sch.delta == formula
        values["delta_formula"] = formula
        if sch.ell0 > 0.0:
            lhs = (m + 1) * (phi(sch.alpha / p - 1.0) * p - ln_n**3 / sch.ell0)
            rhs = 1.0 + max(math.log(n * ln_n**2 * math.e / sch.ell0), 0.0)
            flags["density_alpha"] = lhs >= rhs
            values["density_alpha_lhs"] = lhs
            values["density_alpha_rhs"] = rhs
        else:
            flags["density_alpha"] = False
    else:
        flags["case_p_small"] = not _dense(n, p)
        formula = min(sch.epsilon, sch.sigma / 2.0)
        flags["delta_formula"] = sch.delta == formula
        values["delta_formula"] = formula

    return InequalityReport(flags=flags, values=values)


# -- Leading-order predictions ---------------------------------------------------


@dataclass(frozen=True)
class Prediction:
    label: str
    value: float
    in_range: bool


def predicted_bounds(n: float, p: float) -> list[Prediction]:
    """Leading-order predicted values (o(.) terms dropped) for the clique
    chromatic number, each with a heuristic applicability window on p."""
    _check_cell(n, p)
    ln_n = math.log(n)
    rho = math.log(1.0 / p) / ln_n
    out = [
        Prediction("order_log_over_p", ln_n / p, n**-0.4 < p),
        Prediction("sparse_half", 0.5 * ln_n / p, _dense(n, p)),
        Prediction(
            "very_sparse_5_2",
            2.5 * (0.4 * ln_n + math.log(p)) / p,
            n**-0.4 <= p <= n ** (-1.0 / 3.0),
        ),
        Prediction(
            "upper_refined",
            (0.5 - rho * (0.5 - rho)) * ln_n / p,
            n**-0.5 < p,
        ),
        Prediction(
            "one_third_order",
            3.0 * (ln_n / 3.0 + math.log(p)) / p,
            n ** (-1.0 / 3.0) <= p <= n ** (-1.0 / 3.75),
        ),
        Prediction(
            "half_log_base",
            0.5 * ln_n / -math.log1p(-p),
            _dense(n, p),
        ),
    ]
    return out
