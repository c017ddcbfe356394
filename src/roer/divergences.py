"""f-divergence generators, convex conjugates, and conjugate derivatives.

Each divergence is defined by a convex generator f with f(1) = 0. We work
with the *shifted* generators, normalized so that f(1) = 0 and f'(1) = 0
(e.g. KL uses x*log(x) - x + 1 rather than x*log(x)). The shift changes
neither the divergence value nor the induced weighting, but it makes the
generator/conjugate pair self-consistent: the conjugates below are exactly
the Legendre-Fenchel conjugates of the shifted generators, so the identity

    conjugate_prime(generator_prime(x)) == x

holds on the whole generator domain. conjugate_prime is the occupancy-ratio
map: evaluated at a scaled TD error it returns the priority multiplier, and
conjugate_prime(0) == 1 for every non-degenerate kind (zero TD error keeps
the sampling distribution unchanged).

Every function is elementwise over arrays; a scalar argument is the 0-d
case and returns a numpy scalar. The domain checks cover the whole array.
Squares are np.square, never ** 2: on a numpy scalar ** 2 calls pow(),
which can round differently from the array path's x * x.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class Kind(enum.Enum):
    KL = "kl"
    REVERSE_KL = "reverse_kl"
    PEARSON_CHI2 = "pearson_chi2"
    NEYMAN_CHI2 = "neyman_chi2"
    TOTAL_VARIATION = "total_variation"
    SQUARED_HELLINGER = "squared_hellinger"


class DomainError(ValueError):
    """Argument outside the valid domain of a generator or conjugate."""


class NondifferentiableError(ValueError):
    """Derivative requested at a kink; carries the subgradient interval."""

    def __init__(self, message: str, subgradient: tuple[float, float]):
        super().__init__(message)
        self.subgradient = subgradient


Elementwise = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DivergenceSpec:
    """A named f-divergence with its generator/conjugate domains and the
    elementwise maps (f, f', f*, f*').

    domain_f is an open interval of valid generator arguments (positive
    reals for every kind here). domain_conj is the conjugate's domain;
    closed-at-the-right kinds (total variation) include the endpoint.
    The four maps do no domain checks: callers either go through the
    checked module functions or guarantee the domain themselves.
    """

    kind: Kind
    domain_f: tuple[float, float]
    domain_conj: tuple[float, float]
    conj_upper_open: bool
    f: Elementwise = field(repr=False)
    f_prime: Elementwise = field(repr=False)
    f_star: Elementwise = field(repr=False)
    f_star_prime: Elementwise = field(repr=False)

    @property
    def name(self) -> str:
        return self.kind.value

    def check_x(self, x) -> np.ndarray:
        """x as a float64 array, every element inside the open domain_f
        (which also rejects nan and infinities)."""
        x = np.asarray(x, dtype=np.float64)
        lo, hi = self.domain_f
        ok = (lo < x) & (x < hi)
        if not ok.all():
            bad = x.flat[np.argmin(ok)]  # the first failing element
            raise DomainError(
                f"{self.name}: generator argument {float(bad)!r} outside open "
                f"interval ({lo}, {hi})"
            )
        return x

    def check_y(self, y) -> np.ndarray:
        """y as a float64 array, every element finite and inside domain_conj."""
        y = np.asarray(y, dtype=np.float64)
        lo, hi = self.domain_conj
        below_hi = y < hi if self.conj_upper_open else y <= hi
        ok = np.isfinite(y) & (y >= lo) & below_hi
        if not ok.all():
            bad = float(y.flat[np.argmin(ok)])  # the first failing element
            if not math.isfinite(bad):
                raise DomainError(
                    f"{self.name}: conjugate argument {bad!r} is not finite"
                )
            bound = f"y < {hi}" if self.conj_upper_open else f"y <= {hi}"
            raise DomainError(
                f"{self.name}: conjugate argument {bad!r} violates {bound}"
                + (f" and y >= {lo}" if lo > -math.inf else "")
            )
        return y


def _tv_prime(x: np.ndarray) -> np.ndarray:
    if np.any(x == 1.0):
        raise NondifferentiableError(
            "total_variation generator is not differentiable at x=1; "
            "subgradient is [-0.5, 0.5]",
            subgradient=(-0.5, 0.5),
        )
    return 0.5 * np.sign(x - 1.0)


_INF = math.inf

SPECS: dict[Kind, DivergenceSpec] = {sp.kind: sp for sp in (
    DivergenceSpec(
        Kind.KL, (0.0, _INF), (-_INF, _INF), False,
        f=lambda x: x * np.log(x) - x + 1.0,
        f_prime=np.log,
        f_star=lambda y: np.exp(y) - 1.0,
        f_star_prime=np.exp,
    ),
    DivergenceSpec(
        Kind.REVERSE_KL, (0.0, _INF), (-_INF, 1.0), True,
        f=lambda x: -np.log(x) + x - 1.0,
        f_prime=lambda x: 1.0 - 1.0 / x,
        f_star=lambda y: -np.log(1.0 - y),
        f_star_prime=lambda y: 1.0 / (1.0 - y),
    ),
    DivergenceSpec(
        Kind.PEARSON_CHI2, (0.0, _INF), (-_INF, _INF), False,
        f=lambda x: 0.5 * np.square(x - 1.0),
        f_prime=lambda x: x - 1.0,
        f_star=lambda y: 0.5 * y * y + y,
        f_star_prime=lambda y: y + 1.0,
    ),
    DivergenceSpec(
        Kind.NEYMAN_CHI2, (0.0, _INF), (-_INF, 0.5), True,
        f=lambda x: np.square(x - 1.0) / (2.0 * x),
        f_prime=lambda x: 0.5 * (1.0 - 1.0 / (x * x)),
        f_star=lambda y: 1.0 - np.sqrt(1.0 - 2.0 * y),
        f_star_prime=lambda y: 1.0 / np.sqrt(1.0 - 2.0 * y),
    ),
    DivergenceSpec(
        Kind.TOTAL_VARIATION, (0.0, _INF), (-0.5, 0.5), False,
        f=lambda x: 0.5 * np.abs(x - 1.0),
        f_prime=_tv_prime,
        f_star=lambda y: 1.0 * y,
        f_star_prime=lambda y: 0.0 * y + 1.0,  # the conjugate is linear
    ),
    DivergenceSpec(
        Kind.SQUARED_HELLINGER, (0.0, _INF), (-_INF, 2.0), True,
        f=lambda x: 2.0 * np.square(np.sqrt(x) - 1.0),
        f_prime=lambda x: 2.0 * (1.0 - 1.0 / np.sqrt(x)),
        f_star=lambda y: 2.0 * y / (2.0 - y),
        f_star_prime=lambda y: 4.0 / np.square(2.0 - y),
    ),
)}

# Kinds with a differentiable generator on all of domain_f. Total variation
# is tabulated for completeness but excluded here (f*' == 1 gives uniform
# priorities, a degenerate scheme) and from the priority registry.
DIFFERENTIABLE_KINDS = (
    Kind.KL,
    Kind.REVERSE_KL,
    Kind.PEARSON_CHI2,
    Kind.NEYMAN_CHI2,
    Kind.SQUARED_HELLINGER,
)


def spec(kind: Kind | str) -> DivergenceSpec:
    """Look up a DivergenceSpec by Kind or by its stable string name."""
    if isinstance(kind, str):
        try:
            kind = Kind(kind)
        except ValueError:
            names = ", ".join(k.value for k in Kind)
            raise DomainError(f"unknown divergence {kind!r}; expected one of {names}")
    return SPECS[kind]


def generator(sp: DivergenceSpec, x):
    """Shifted generator f(x), normalized so f(1) = 0 and f'(1) = 0."""
    return sp.f(sp.check_x(x))


def generator_prime(sp: DivergenceSpec, x):
    """Derivative of the shifted generator; f'(1) = 0 for every smooth kind.

    Total variation has a kink at x = 1: there the full subgradient interval
    is reported via NondifferentiableError rather than any single number.
    """
    return sp.f_prime(sp.check_x(x))


def conjugate(sp: DivergenceSpec, y):
    """Convex conjugate f*(y) of the shifted generator."""
    return sp.f_star(sp.check_y(y))


def conjugate_prime(sp: DivergenceSpec, y):
    """Derivative f*'(y): the occupancy ratio at scaled TD error y.

    Inverse of generator_prime, so conjugate_prime(0) = 1 for all kinds
    except total variation (whose conjugate is linear).
    """
    return sp.f_star_prime(sp.check_y(y))
