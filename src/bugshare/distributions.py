"""Prior distributions over agent types and their segment discretization.

Two families are supported: uniform on [lo, hi] and a normal conditioned on
[lo, hi] (truncated and renormalized), with 0 <= lo < hi finite; a normal
with no representable mass on [lo, hi] is rejected.  Both expose an exact
CDF, seeded inverse-CDF sampling, the uniforms at which the sampler's values
cross given levels (``preimage``), and the H-segment mass vector consumed by
the linear programs.  Specs parse from the compact notation used in the
experiment tables: ``U(0,1)``, ``N(0.5,0.2)`` (normals are always conditioned
on [0,1]).

The normal's CDF and its inverse are ``scipy.special.ndtr`` and ``ndtri``.
They are imported on first use, in the truncated-normal branches, because
``scipy.special`` takes longer to import than numpy and everything else in
the package together; a uniform prior, and every rule and audit, never
loads scipy.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

_SPEC_RE = re.compile(r"^\s*([UN])\s*\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)\s*$")


@dataclass(frozen=True)
class DistributionSpec:
    """A prior over types with support [lo, hi]."""

    kind: str  # "uniform" | "truncnorm"
    lo: float = 0.0
    hi: float = 1.0
    mu: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "truncnorm"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not 0.0 <= self.lo < self.hi < np.inf:
            raise ValueError(f"support requires finite 0 <= lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == "truncnorm":
            if self.mu is None or self.sigma is None:
                raise ValueError("truncated normal needs mu and sigma")
            if not np.isfinite(self.mu):
                raise ValueError(f"mu must be finite, got {self.mu}")
            if not self.sigma > 0.0:  # written so that NaN fails it
                raise ValueError("sigma must be positive")
            a, b = self._phi_bounds()
            if not b > a:  # the CDF would divide 0 by 0 and sampling would collapse
                raise ValueError(
                    f"N({self.mu:g},{self.sigma:g}) has no representable mass "
                    f"on [{self.lo:g}, {self.hi:g}]"
                )

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse ``U(lo,hi)`` or ``N(mu,sigma)`` (the latter conditioned on [0,1])."""
        m = _SPEC_RE.match(text)
        if m is None:
            raise ValueError(f"cannot parse distribution {text!r}")
        family, a, b = m.group(1), float(m.group(2)), float(m.group(3))
        if family == "U":
            return cls(kind="uniform", lo=a, hi=b)
        return cls(kind="truncnorm", lo=0.0, hi=1.0, mu=a, sigma=b)

    def label(self) -> str:
        """Compact notation, inverse of :meth:`parse`."""
        if self.kind == "uniform":
            return f"U({self.lo:g},{self.hi:g})"
        return f"N({self.mu:g},{self.sigma:g})"

    def _phi_bounds(self) -> tuple[float, float]:
        from scipy.special import ndtr

        a = float(ndtr((self.lo - self.mu) / self.sigma))
        b = float(ndtr((self.hi - self.mu) / self.sigma))
        return a, b


@dataclass(frozen=True)
class SegmentedDistribution:
    """Masses of H equal segments of the support, feeding the LP builders."""

    H: int
    delta: float
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        _count(self.H, "H")
        if len(self.masses) != self.H:
            raise ValueError("need exactly H masses")
        if any(m < 0.0 for m in self.masses):
            raise ValueError("masses must be non-negative")
        if abs(sum(self.masses) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1")


def cdf(spec: DistributionSpec, x):
    """Exact CDF at ``x`` (scalar or array); rejects points outside the support."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= spec.lo) & (arr <= spec.hi)):  # written so that NaN fails it
        raise ValueError(f"x outside support [{spec.lo}, {spec.hi}]")
    if spec.kind == "uniform":
        out = (arr - spec.lo) / (spec.hi - spec.lo)
    else:
        from scipy.special import ndtr

        a, b = spec._phi_bounds()
        out = (ndtr((arr - spec.mu) / spec.sigma) - a) / (b - a)
    return float(out) if np.isscalar(x) else out


def draw(
    spec: DistributionSpec, shape, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse-CDF draws from an existing generator stream.

    The uniforms come from ``rng.random`` into ``out`` when given (a
    C-contiguous float64 array of ``shape``, which is returned), else into a
    new array, and ``_to_values`` maps them in place.  The stream is read in
    the same order either way.
    """
    return _to_values(spec, rng.random(shape, out=out))


def _to_values(spec: DistributionSpec, x: np.ndarray) -> np.ndarray:
    """Map the uniforms ``x`` to values of ``spec`` in place and return ``x``.

    Every step works in place on ``x``, with no temporary.  Each value is the
    same IEEE result as ``lo + u * (hi - lo)`` or
    ``clip(mu + sigma * ndtri(a + u * (b - a)), lo, hi)``, since ``+`` and
    ``*`` are commutative, and it depends on its own uniform alone, so a
    subset of the uniforms maps to the same bits as the whole array.
    """
    if spec.kind == "uniform":
        x *= spec.hi - spec.lo
        x += spec.lo
        return x
    from scipy.special import ndtri

    a, b = spec._phi_bounds()
    x *= b - a
    x += a
    ndtri(x, out=x)
    x *= spec.sigma
    x += spec.mu
    return np.clip(x, spec.lo, spec.hi, out=x)


_ONE_BITS = int(np.float64(1.0).view(np.int64))


def preimage(spec: DistributionSpec, levels) -> np.ndarray:
    """Per level, where the sampler's values cross it: a u in [0, 1), or 1.0 for never.

    A bisection over the doubles in [0, 1], all levels at once, on their
    int64 bit patterns, which order non-negative doubles as their values
    do; it takes 62 steps.  Each step maps its midpoints through
    ``_to_values``, the exact pipeline of ``draw``.  The result u has
    ``_to_values(u) >= level`` and the double below it does not, or it is 0.0
    when 0.0 already reaches the level.  A level that no u < 1 reaches, NaN
    included, maps to 1.0, which no uniform of ``draw`` reaches either.

    For a non-decreasing sampler u is the least double that reaches the
    level.  In floating point the sampler is not monotone: ``ndtri`` errs by
    a few ulps.  For ``truncnorm(mu=0.6484032201041083,
    sigma=0.1448215646457347)``, u = 0.1539107778657308 maps to exactly
    0.499999999999, the next four doubles map below it (three of them to
    0.49999999999899997) and the fifth maps to it again.  For that level the
    bisection returns that fifth double, 0.15391077786573093, and a plain
    ``u >= result`` test would read u itself, whose value meets the level,
    as falling short.  A caller that compares uniforms with preimages instead
    of values with levels needs a guard band around each level; see
    ``simulate._price_preimages``.
    """
    levels = np.asarray(levels, dtype=float)
    lo = np.zeros(levels.shape, np.int64)  # 0.0, or a double below the level
    hi = np.full(levels.shape, _ONE_BITS)  # 1.0, or a double at or above it
    while True:
        mid = (lo + hi) >> 1
        if np.array_equal(mid, lo):
            break
        reaches = _to_values(spec, mid.view(np.float64).copy()) >= levels
        np.copyto(hi, mid, where=reaches)
        np.copyto(lo, mid, where=~reaches)
    at_zero = _to_values(spec, np.zeros(levels.shape)) >= levels
    return np.where(at_zero, 0.0, hi.view(np.float64))


def sample(spec: DistributionSpec, count: int, seed: int) -> np.ndarray:
    """``count`` i.i.d. draws, reproducible bit for bit per (spec, count, seed)."""
    return draw(spec, _count(count, "count"), np.random.default_rng(_count(seed, "seed", 0)))


def _count(value, name: str, least: int = 1) -> int:
    """``value`` as an int: ``TypeError`` unless it is one, ``ValueError`` if below ``least``.

    The library's one check of a count, a size or a seed.  An integer is a
    value whose type has ``__index__``, as ``operator.index`` asks, so numpy
    integers pass and 2.5 and 2.0 fail; ``True`` fails too, since a bool is
    not a count.
    """
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    count = operator.index(value)
    if count < least:
        raise ValueError(f"{name} must be at least {least}")
    return count


def discretize(spec: DistributionSpec, H: int) -> SegmentedDistribution:
    """Split the support into H equal segments and return their masses."""
    H = _count(H, "H")
    edges = spec.lo + (spec.hi - spec.lo) * np.arange(H + 1) / H
    edges[-1] = spec.hi  # hi * H / H can round past hi, outside the CDF's support
    probs = np.diff(cdf(spec, edges))
    delta = (spec.hi - spec.lo) / H
    return SegmentedDistribution(H=H, delta=delta, masses=tuple(float(p) for p in probs))
