"""The DIST1..DIST5 pluggable random distributions of OCB.

OCB parameterizes every random draw of the database generation and of the
workload with a named distribution (Tables 1 and 2 of the paper):

* ``DIST1`` — reference *types*,
* ``DIST2`` — inter-class references,
* ``DIST3`` — assignment of objects to classes,
* ``DIST4`` — inter-object references,
* ``DIST5`` (a.k.a. ``RAND5``) — transaction root objects.

The paper's default for all five is **Uniform**; Table 3 (the DSTC-CluB
approximation) switches DIST1-3 to **Constant** and DIST4 to a **Special**
OO1-style locality distribution (90 % of references fall inside a RefZone
around the referencing object).  We additionally provide **Normal** and
**Zipf** distributions — both standard choices in the clustering literature
the paper builds on (Tsangaris & Naughton) — so that skewed access patterns
can be modelled.

All distributions draw an integer from an inclusive ``[low, high]`` range;
the optional ``center`` argument carries the position of the *current*
object, which the Special distribution (and a centred Normal) use to model
locality of reference.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.rand.lewis_payne import LewisPayne

__all__ = [
    "Distribution",
    "UniformDistribution",
    "ConstantDistribution",
    "NormalDistribution",
    "ZipfDistribution",
    "SpecialDistribution",
    "distribution_from_name",
    "DISTRIBUTION_NAMES",
]


def _check_range(low: int, high: int) -> None:
    if low > high:
        raise ParameterError(f"empty range: low={low} > high={high}")


class Distribution(ABC):
    """A named integer distribution over an inclusive ``[low, high]`` range."""

    #: Human-readable name, as used in the paper's parameter tables.
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        """Draw one integer in ``[low, high]``.

        ``center`` is the id of the *current* entity (e.g. the referencing
        object) for distributions that model locality; distributions that do
        not use it must accept and ignore it.
        """

    def draws(self, rng: LewisPayne, low: int, high: int,
              centers: Sequence[Optional[int]]) -> List[int]:
        """One :meth:`draw` per entry of *centers*, in order.

        The values and the generator state afterwards are exactly those of
        the equivalent :meth:`draw` calls; subclasses override this only to
        do the same draws faster.
        """
        return [self.draw(rng, low, high, center) for center in centers]

    def describe(self) -> str:
        """One-line description used in parameter tables and reports."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        # Parameters only: draw-time caches (Zipf's CDF) must not make
        # two equal distributions unequal once one of them has drawn.
        return type(self) is type(other) and \
            self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        """Equality/hash key; subclasses with parameters override this."""
        return ()


class UniformDistribution(Distribution):
    """Every value of ``[low, high]`` is equally likely (the OCB default)."""

    name = "Uniform"

    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        _check_range(low, high)
        return rng.randint(low, high)

    def draws(self, rng: LewisPayne, low: int, high: int,
              centers: Sequence[Optional[int]]) -> List[int]:
        return rng.randints(low, high, len(centers))


class ConstantDistribution(Distribution):
    """Always return the same value (Table 3 uses this for DIST1-3).

    If *value* is ``None`` the distribution degenerates to the lower bound
    of the requested range, which is how "Constant" behaves when a range is
    imposed from outside (e.g. reference types all equal to type 1).
    """

    name = "Constant"

    def __init__(self, value: Optional[int] = None) -> None:
        self.value = value

    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        _check_range(low, high)
        if self.value is None:
            return low
        return min(max(self.value, low), high)

    def describe(self) -> str:
        return self.name if self.value is None else f"Constant({self.value})"

    def __repr__(self) -> str:
        return f"ConstantDistribution(value={self.value!r})"

    def _key(self) -> Tuple:
        return (self.value,)


class NormalDistribution(Distribution):
    """Gaussian draw, rounded and clamped to the range.

    The mean defaults to the range midpoint, or to ``center`` when one is
    supplied (giving a soft locality model).  ``std_fraction`` expresses the
    standard deviation as a fraction of the range width.
    """

    name = "Normal"

    def __init__(self, std_fraction: float = 0.15,
                 use_center: bool = True) -> None:
        if std_fraction <= 0.0:
            raise ParameterError(f"std_fraction must be > 0, got {std_fraction}")
        self.std_fraction = std_fraction
        self.use_center = use_center

    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        _check_range(low, high)
        if low == high:
            return low
        if self.use_center and center is not None:
            mean = float(min(max(center, low), high))
        else:
            mean = (low + high) / 2.0
        sigma = max(self.std_fraction * (high - low + 1), 1e-9)
        value = int(round(rng.gauss(mean, sigma)))
        return min(max(value, low), high)

    def describe(self) -> str:
        return f"Normal(std={self.std_fraction:g})"

    def __repr__(self) -> str:
        return (f"NormalDistribution(std_fraction={self.std_fraction!r}, "
                f"use_center={self.use_center!r})")

    def _key(self) -> Tuple:
        return (self.std_fraction, self.use_center)


class ZipfDistribution(Distribution):
    """Zipf-skewed draw: value ``low + r - 1`` has weight ``1 / r^skew``.

    Low ids become hot spots, which is the classic way to model skewed
    object popularity.  Cumulative weights are cached per range width, so
    repeated draws over the same range (the common case in generation) cost
    one binary search each.
    """

    name = "Zipf"

    _MAX_CACHED_RANGES = 8

    def __init__(self, skew: float = 1.0) -> None:
        if skew <= 0.0:
            raise ParameterError(f"skew must be > 0, got {skew}")
        self.skew = skew
        self._cdf_cache: Dict[int, List[float]] = {}

    def _cdf(self, span: int) -> List[float]:
        cdf = self._cdf_cache.get(span)
        if cdf is None:
            if len(self._cdf_cache) >= self._MAX_CACHED_RANGES:
                self._cdf_cache.clear()
            total = 0.0
            cdf = []
            for rank in range(1, span + 1):
                total += rank ** (-self.skew)
                cdf.append(total)
            self._cdf_cache[span] = cdf
        return cdf

    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        _check_range(low, high)
        span = high - low + 1
        if span == 1:
            return low
        cdf = self._cdf(span)
        u = rng.random53() * cdf[-1]
        return low + bisect_left(cdf, u)

    def describe(self) -> str:
        return f"Zipf(skew={self.skew:g})"

    def __repr__(self) -> str:
        return f"ZipfDistribution(skew={self.skew!r})"

    def _key(self) -> Tuple:
        return (self.skew,)


class SpecialDistribution(Distribution):
    """OO1-style RefZone locality (the paper's "Special" DIST4 in Table 3).

    With probability ``locality_probability`` (0.9 in OO1) the draw is
    uniform on ``[center - ref_zone, center + ref_zone]`` intersected with
    the global range; otherwise it is uniform on the whole range.  Without
    a ``center`` the distribution falls back to a plain uniform draw.
    """

    name = "Special"

    def __init__(self, ref_zone: int = 100,
                 locality_probability: float = 0.9) -> None:
        if ref_zone < 0:
            raise ParameterError(f"ref_zone must be >= 0, got {ref_zone}")
        if not 0.0 <= locality_probability <= 1.0:
            raise ParameterError(
                f"locality_probability must be in [0, 1], got {locality_probability}")
        self.ref_zone = ref_zone
        self.locality_probability = locality_probability

    def draw(self, rng: LewisPayne, low: int, high: int,
             center: Optional[int] = None) -> int:
        _check_range(low, high)
        if center is None or rng.random() >= self.locality_probability:
            return rng.randint(low, high)
        zone_low = max(low, center - self.ref_zone)
        zone_high = min(high, center + self.ref_zone)
        if zone_low > zone_high:
            return rng.randint(low, high)
        return rng.randint(zone_low, zone_high)

    def describe(self) -> str:
        return (f"Special(zone={self.ref_zone}, "
                f"p={self.locality_probability:g})")

    def __repr__(self) -> str:
        return (f"SpecialDistribution(ref_zone={self.ref_zone!r}, "
                f"locality_probability={self.locality_probability!r})")

    def _key(self) -> Tuple:
        return (self.ref_zone, self.locality_probability)


#: Registry used by :func:`distribution_from_name` and the CLI.
_REGISTRY = {
    "uniform": UniformDistribution,
    "constant": ConstantDistribution,
    "normal": NormalDistribution,
    "zipf": ZipfDistribution,
    "special": SpecialDistribution,
}

DISTRIBUTION_NAMES: Tuple[str, ...] = tuple(sorted(_REGISTRY))


def distribution_from_name(name: str, **kwargs) -> Distribution:
    """Instantiate a distribution by its (case-insensitive) name.

    >>> distribution_from_name("uniform")
    UniformDistribution()
    >>> distribution_from_name("special", ref_zone=50).ref_zone
    50
    """
    try:
        factory = _REGISTRY[name.strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown distribution {name!r}; choose from {DISTRIBUTION_NAMES}"
        ) from None
    return factory(**kwargs)
