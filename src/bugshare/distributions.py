"""Prior distributions over agent types and their segment discretization.

Two families are supported: uniform on [lo, hi] and a normal conditioned on
[lo, hi] (truncated and renormalized), with 0 <= lo < hi finite; a normal
with no representable mass on [lo, hi] is rejected.  Both expose an exact
CDF, seeded inverse-CDF sampling, and the H-segment mass vector consumed by
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
            if self.sigma <= 0.0:
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
        if self.H < 1:
            raise ValueError("H must be at least 1")
        if len(self.masses) != self.H:
            raise ValueError("need exactly H masses")
        if any(m < 0.0 for m in self.masses):
            raise ValueError("masses must be non-negative")
        if abs(sum(self.masses) - 1.0) > 1e-12:
            raise ValueError("masses must sum to 1")


def cdf(spec: DistributionSpec, x):
    """Exact CDF at ``x`` (scalar or array); rejects points outside the support."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < spec.lo) or np.any(arr > spec.hi):
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

    Every step works in place on the one array of uniforms: ``out`` when
    given (a C-contiguous float64 array of ``shape``, which is returned),
    else a new one.  The stream is read in the same order either way.  Each
    value is the same IEEE result as ``lo + u * (hi - lo)`` or
    ``clip(mu + sigma * ndtri(a + u * (b - a)), lo, hi)``, since ``+`` and
    ``*`` are commutative.
    """
    x = rng.random(shape, out=out)
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


def sample(spec: DistributionSpec, count: int, seed: int) -> np.ndarray:
    """``count`` i.i.d. draws, reproducible bit for bit per (spec, count, seed)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return draw(spec, count, np.random.default_rng(seed))


def discretize(spec: DistributionSpec, H: int) -> SegmentedDistribution:
    """Split the support into H equal segments and return their masses."""
    if H < 1:
        raise ValueError("H must be at least 1")
    edges = spec.lo + (spec.hi - spec.lo) * np.arange(H + 1) / H
    edges[-1] = spec.hi  # hi * H / H can round past hi, outside the CDF's support
    probs = np.diff(cdf(spec, edges))
    delta = (spec.hi - spec.lo) / H
    return SegmentedDistribution(H=H, delta=delta, masses=tuple(float(p) for p in probs))
