"""Failure-time models on the unit square built from an FGM copula.

The dependence family is Farlie-Gumbel-Morgenstern:

    C(u, v)    = uv + theta * uv(1-u)(1-v),            theta in [-1, 1]
    Cbar(u, v) = (1-u)(1-v) * (1 + theta * uv)          (survival copula)
    c(u, v)    = 1 + theta * (1-2u)(1-2v)               (copula density)

With marginals F, G on [0,1] the joint survival is S(t) = Cbar(F(t1), G(t2)),
the density is c(F,G) * f * g, and the hazard rate is h = density / S
(set to 0 where S = 0).  All three take broadcastable coordinates x and y,
so on a mesh the marginals are evaluated once per axis.  The cumulative
hazard of a region A is the Lebesgue integral of h over A, computed by
midpoint quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import NUM, PAIR, Built, Schema, Tagged
from .errors import ConfigError, DomainError
from .geometry import LowerRect
from .quadrature import QuadratureSpec, integrate_region

__all__ = [
    "UniformMarginal", "TruncatedExponential", "TableMarginal", "FgmModel",
    "fgm_order_region", "integrated_hazard",
]


# ---------------------------------------------------------------------------
# marginals: continuous, strictly increasing CDFs on [0,1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformMarginal:
    """Uniform on [0,1]: the identity CDF."""

    def cdf(self, x):
        return np.asarray(x, dtype=float)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)

    def quantile(self, p):
        return np.asarray(p, dtype=float)


@dataclass(frozen=True)
class TruncatedExponential:
    """Exponential with the given rate, conditioned on [0,1]."""

    rate: float

    def __post_init__(self):
        if not (float(self.rate) > 0.0):
            raise ConfigError("rate must be positive")
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def _z(self):
        return -np.expm1(-self.rate)  # 1 - exp(-rate)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-self.rate * x) / self._z

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        return np.where(inside, self.rate * np.exp(-self.rate * x) / self._z, 0.0)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        return -np.log1p(-p * self._z) / self.rate


class TableMarginal:
    """Piecewise-linear CDF through given (x, F(x)) points; density is piecewise constant."""

    __slots__ = ("xs", "fs")

    def __init__(self, points):
        pts = sorted((float(x), float(f)) for x, f in points)
        if len(pts) < 2:
            raise ConfigError("CDF table needs at least two points")
        xs = np.array([x for x, _ in pts])
        fs = np.array([f for _, f in pts])
        if xs[0] != 0.0 or xs[-1] != 1.0 or fs[0] != 0.0 or fs[-1] != 1.0:
            raise ConfigError("CDF table must run from (0,0) to (1,1)")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(fs) <= 0):
            raise ConfigError("CDF table must be strictly increasing in both columns")
        self.xs = xs
        self.fs = fs

    def cdf(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.fs)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        slope = (self.fs[i + 1] - self.fs[i]) / (self.xs[i + 1] - self.xs[i])
        return np.where((x >= 0.0) & (x <= 1.0), slope, 0.0)

    def quantile(self, p):
        return np.interp(np.asarray(p, dtype=float), self.fs, self.xs)


# ---------------------------------------------------------------------------
# copula-scale pieces (uniform marginals)
# ---------------------------------------------------------------------------

def copula_cdf(u, v, theta):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))


def copula_survival(u, v, theta):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (1.0 - u) * (1.0 - v) * (1.0 + theta * u * v)


def copula_density(u, v, theta):
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return 1.0 + theta * (1.0 - 2.0 * u) * (1.0 - 2.0 * v)


def conditional_quantile(u, p, theta):
    """Solve P(V <= v | U = u) = p for v.

    The conditional CDF is v + a*v(1-v) with a = theta*(1-2u); the root in
    [0,1] is ((1+a) - sqrt((1+a)^2 - 4ap)) / (2a), with the linear fallback
    v = p when |a| vanishes.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    a = theta * (1.0 - 2.0 * u)
    tiny = np.abs(a) < 1e-12
    a_safe = np.where(tiny, 1.0, a)
    disc = (1.0 + a_safe) ** 2 - 4.0 * a_safe * p
    v = ((1.0 + a_safe) - np.sqrt(disc)) / (2.0 * a_safe)
    return np.where(tiny, p, v)


def fgm_order_region(u, v):
    """Where a larger FGM parameter strictly raises the copula-scale hazard.

    Cross-multiplying h_b > h_a for theta_b > theta_a reduces, independently
    of the pair, to 1 - 2u - 2v + 3uv > 0 (strict; the boundary has equal
    hazards).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = 1.0 - 2.0 * u - 2.0 * v + 3.0 * u * v > 0.0
    return bool(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# the bivariate model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FgmModel:
    theta: float = 0.0
    marginal_x: object = UniformMarginal()
    marginal_y: object = UniformMarginal()

    def __post_init__(self):
        th = float(self.theta)
        if not (-1.0 <= th <= 1.0):
            raise ConfigError(f"FGM parameter must lie in [-1,1], got {th}")
        object.__setattr__(self, "theta", th)

    def survival(self, x, y):
        """S(x, y) = P(Y1 >= x, Y2 >= y) at broadcastable coordinates."""
        return copula_survival(self.marginal_x.cdf(x), self.marginal_y.cdf(y), self.theta)

    def density(self, x, y):
        u = self.marginal_x.cdf(x)
        v = self.marginal_y.cdf(y)
        return copula_density(u, v, self.theta) * self.marginal_x.pdf(x) * self.marginal_y.pdf(y)

    def hazard(self, x, y):
        """h = density / survival, 0 where the survival function vanishes."""
        s = self.survival(x, y)
        d = self.density(x, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s > 0.0, d / np.where(s > 0.0, s, 1.0), 0.0)
        return out if out.ndim else float(out)

    def sample(self, n, rng):
        """n independent pairs; conditional-quantile construction on the copula scale."""
        n = int(n)
        u = rng.random(n)
        p = rng.random(n)
        v = conditional_quantile(u, p, self.theta)
        return np.column_stack([self.marginal_x.quantile(u), self.marginal_y.quantile(v)])


def integrated_hazard(model, region, spec=QuadratureSpec()):
    """Cumulative hazard of the region: midpoint quadrature of the hazard rate.

    Rejects regions that touch the S=0 set (the integral diverges there);
    returns a QuadratureResult whose converged flag reports whether the
    dyadic refinement settled within budget.
    """
    if isinstance(region, LowerRect) and min(region.corner) > 0.0 and model.survival(*region.corner) <= 0.0:
        raise DomainError("region touches the zero set of the survival function")
    return integrate_region(model.hazard, region, spec)


# ---------------------------------------------------------------------------
# config decoder
# ---------------------------------------------------------------------------

_MARGINAL = Tagged("kind", {
    "uniform": Built({}, lambda d: UniformMarginal()),
    "truncexp": Built({"rate": NUM}, lambda d: TruncatedExponential(d["rate"])),
    "table": Built({"points": [PAIR]}, lambda d: TableMarginal(d["points"])),
})

MODEL = Schema(Built({"theta": (NUM, 0.0),
                      "marginalF": (_MARGINAL, {"kind": "uniform"}),
                      "marginalG": (_MARGINAL, {"kind": "uniform"})},
                     lambda d: FgmModel(d["theta"], d["marginalF"], d["marginalG"])))
