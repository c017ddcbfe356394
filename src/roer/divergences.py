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
conjugate_prime(0) == 1 for every divergence (zero TD error keeps the
sampling distribution unchanged). SPECS is keyed by the divergence names
that configs, oracle reports and `roer oracle --corrupt` use.

Every function is elementwise over arrays; a scalar argument is the 0-d
case and returns a numpy scalar. The domain checks cover the whole array.
Squares are np.square, never ** 2: on a numpy scalar ** 2 calls pow(),
which can round differently from the array path's x * x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Argument outside the valid domain of a generator or conjugate."""


Elementwise = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DivergenceSpec:
    """A named f-divergence with its conjugate domain and the elementwise
    maps (f, f', f*, f*').

    Every generator here takes the open interval (0, inf). domain_conj is
    the conjugate's domain, open at a finite upper end.
    The four maps do no domain checks: callers either go through the
    checked module functions or guarantee the domain themselves.
    """

    name: str
    domain_conj: tuple[float, float]
    f: Elementwise = field(repr=False)
    f_prime: Elementwise = field(repr=False)
    f_star: Elementwise = field(repr=False)
    f_star_prime: Elementwise = field(repr=False)

    def check_x(self, x) -> np.ndarray:
        """x as a float64 array, every element inside the open interval
        (0, inf) (which also rejects nan and infinities)."""
        x = np.asarray(x, dtype=np.float64)
        ok = (0.0 < x) & (x < math.inf)
        if ok.all():
            return x
        bad = x.flat[np.argmin(ok)]  # the first failing element
        raise DomainError(f"{self.name}: generator argument {float(bad)!r} "
                          "outside open interval (0.0, inf)")

    def check_y(self, y) -> np.ndarray:
        """y as a float64 array, every element finite and inside domain_conj."""
        y = np.asarray(y, dtype=np.float64)
        lo, hi = self.domain_conj
        ok = np.isfinite(y) & (y >= lo) & (y < hi)
        if ok.all():
            return y
        bad = float(y.flat[np.argmin(ok)])  # the first failing element
        if not math.isfinite(bad):
            raise DomainError(
                f"{self.name}: conjugate argument {bad!r} is not finite"
            )
        raise DomainError(
            f"{self.name}: conjugate argument {bad!r} violates y < {hi}"
            + (f" and y >= {lo}" if lo > -math.inf else "")
        )


SPECS: dict[str, DivergenceSpec] = {sp.name: sp for sp in (
    DivergenceSpec(
        "kl", (-math.inf, math.inf),
        f=lambda x: x * np.log(x) - x + 1.0,
        f_prime=np.log,
        f_star=lambda y: np.exp(y) - 1.0,
        f_star_prime=np.exp,
    ),
    DivergenceSpec(
        "reverse_kl", (-math.inf, 1.0),
        f=lambda x: -np.log(x) + x - 1.0,
        f_prime=lambda x: 1.0 - 1.0 / x,
        f_star=lambda y: -np.log(1.0 - y),
        f_star_prime=lambda y: 1.0 / (1.0 - y),
    ),
    DivergenceSpec(
        "pearson_chi2", (-math.inf, math.inf),
        f=lambda x: 0.5 * np.square(x - 1.0),
        f_prime=lambda x: x - 1.0,
        f_star=lambda y: 0.5 * y * y + y,
        f_star_prime=lambda y: y + 1.0,
    ),
    DivergenceSpec(
        "neyman_chi2", (-math.inf, 0.5),
        f=lambda x: np.square(x - 1.0) / (2.0 * x),
        f_prime=lambda x: 0.5 * (1.0 - 1.0 / (x * x)),
        f_star=lambda y: 1.0 - np.sqrt(1.0 - 2.0 * y),
        f_star_prime=lambda y: 1.0 / np.sqrt(1.0 - 2.0 * y),
    ),
    DivergenceSpec(
        "squared_hellinger", (-math.inf, 2.0),
        f=lambda x: 2.0 * np.square(np.sqrt(x) - 1.0),
        f_prime=lambda x: 2.0 * (1.0 - 1.0 / np.sqrt(x)),
        f_star=lambda y: 2.0 * y / (2.0 - y),
        f_star_prime=lambda y: 4.0 / np.square(2.0 - y),
    ),
)}


def generator(sp: DivergenceSpec, x):
    """Shifted generator f(x), normalized so f(1) = 0 and f'(1) = 0."""
    return sp.f(sp.check_x(x))


def generator_prime(sp: DivergenceSpec, x):
    """Derivative of the shifted generator; f'(1) = 0 for every divergence."""
    return sp.f_prime(sp.check_x(x))


def conjugate(sp: DivergenceSpec, y):
    """Convex conjugate f*(y) of the shifted generator."""
    return sp.f_star(sp.check_y(y))


def conjugate_prime(sp: DivergenceSpec, y):
    """Derivative f*'(y): the occupancy ratio at scaled TD error y.

    Inverse of generator_prime, so conjugate_prime(0) = 1 for every divergence.
    """
    return sp.f_star_prime(sp.check_y(y))
