"""Cauchy temporal functions of the form T(t, x) = t + f(x).

The spatial part ``f`` is a slope ``k`` on the Minkowski backend
(``f(x) = k * x``) or a per-vertex offset table on the graph backend,
extended to edge-interior points by linear interpolation in optical
arclength.  A member of the family is *valid* when the spatial Lipschitz
constant w.r.t. the optical distance is strictly below one; this is
exactly the condition making the level sets spacelike, so every valid
member re-foliates the spacetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .spacetime import Event, Spacetime

# Strictness margin: Lipschitz constants must stay below 1 - LIP_MARGIN.
# Exact-equality foliations are null and break monotone invertibility.
LIP_MARGIN = 1e-9


class TimeFunction:
    """Time function t + f(x); immutable and cheap to evaluate.

    Use :func:`canonical_time` for f == 0, ``TimeFunction(slope=k)`` for
    the Minkowski family and ``TimeFunction(spacetime=st, offsets={...})``
    for the graph family.
    """

    def __init__(self, slope=None, offsets=None, spacetime=None, name=None):
        if slope is not None and offsets is not None:
            raise InputError("give either a slope or vertex offsets, not both")
        self.slope = float(slope) if slope is not None else None
        self.offsets = dict(offsets) if offsets is not None else None
        self.spacetime = spacetime
        self.name = name
        if self.offsets is not None and spacetime is None:
            raise InputError("vertex offsets need the spacetime they refer to")
        if self.slope is not None and not math.isfinite(self.slope):
            raise InputError(f"time function slope must be finite, got {self.slope!r}")
        if self.offsets is not None:
            for v, off in self.offsets.items():
                if not math.isfinite(float(off)):
                    raise InputError(f"offset of vertex {v!r} must be finite, got {off!r}")
            for a, b in spacetime.edges:
                if a in self.offsets and b in self.offsets and not math.isfinite(
                        float(self.offsets[b]) - float(self.offsets[a])):
                    raise InputError(
                        f"offsets {self.offsets[a]!r} of {a!r} and {self.offsets[b]!r} "
                        f"of {b!r} differ beyond the float range along edge ({a!r}, {b!r})")

    @property
    def is_canonical(self):
        return self.slope is None and self.offsets is None

    def spatial_part(self, st: Spacetime, x):
        """Value of f at the spatial point x; a point that is not canonical
        is normalized first, and a malformed one refused."""
        if not st._is_canonical(x):
            x = st.normalize_point(x)
        if self.is_canonical:
            return 0.0
        if self.slope is not None:
            if st.backend != Spacetime.MINKOWSKI:
                raise InputError("slope form only applies to the Minkowski backend")
            return self.slope * x
        if isinstance(x, str):
            return self._vertex(x)
        a, b, off = x
        fa = self._vertex(a)
        fb = self._vertex(b)
        return fa + (fb - fa) * (off / st.edge_length(a, b))

    def value(self, st: Spacetime, p: Event):
        """T(p) = p.t + f(p.x)."""
        return p.t + self.spatial_part(st, p.x)

    def level_event(self, st: Spacetime, tau, x):
        """The unique event over x with T-value tau: (tau - f(x), x)."""
        x = st.normalize_point(x)
        return Event(float(tau) - self.spatial_part(st, x), x)

    def lipschitz(self, st: Spacetime):
        """Spatial Lipschitz constant of f w.r.t. the optical distance."""
        if self.is_canonical:
            return 0.0
        if self.slope is not None:
            return abs(self.slope)
        worst = 0.0
        for (a, b), length in st.edges.items():
            worst = max(worst, abs(self._vertex(b) - self._vertex(a)) / length)
        return worst

    def _vertex(self, v):
        try:
            return float(self.offsets[v])
        except KeyError:
            raise InputError(f"no offset value for vertex {v!r}") from None

    def same_as(self, other):
        """Value-level equality (slope 0 and all-zero offsets count as canonical)."""
        return self is other or self._plain() == other._plain()

    def _plain(self):
        if self.slope is not None and self.slope != 0.0:
            return ("slope", self.slope)
        if self.offsets is not None and any(v != 0.0 for v in self.offsets.values()):
            return ("offsets", tuple(sorted((k, float(v)) for k, v in self.offsets.items())))
        return ("canonical",)

    def __repr__(self):
        if self.name:
            return f"TimeFunction({self.name})"
        return f"TimeFunction({self._plain()!r})"


def canonical_time(name="T0"):
    """The canonical temporal function T0(t, x) = t."""
    return TimeFunction(name=name)


@dataclass
class TimeFunctionReport:
    ok: bool
    lipschitz: float
    violations: tuple  # per-edge (a, b, |df|, length) or ("slope", k)

    def __bool__(self):
        return self.ok


def validate(st: Spacetime, tf: TimeFunction) -> TimeFunctionReport:
    """Check the strict sub-unit Lipschitz condition edge by edge.

    Valid means ``|f(a) - f(b)| <= (1 - margin) * length`` for every edge
    (or ``|k| <= 1 - margin`` on Minkowski).  The report lists every
    violating edge.
    """
    bound = 1.0 - LIP_MARGIN
    if tf.is_canonical:
        return TimeFunctionReport(True, 0.0, ())
    if tf.slope is not None:
        if st.backend != Spacetime.MINKOWSKI:
            raise InputError("slope form only applies to the Minkowski backend")
        k = abs(tf.slope)
        bad = () if k <= bound else (("slope", tf.slope),)
        return TimeFunctionReport(not bad, k, bad)
    if st.backend != Spacetime.GRAPH:
        raise InputError("offset form only applies to the graph backend")
    missing = [v for v in st.vertices if v not in tf.offsets]
    if missing:
        raise InputError(f"offsets missing for vertices {missing}")
    violations = []
    worst = 0.0
    for (a, b), length in sorted(st.edges.items()):
        df = abs(float(tf.offsets[b]) - float(tf.offsets[a]))
        worst = max(worst, df / length)
        if df > bound * length:
            violations.append((a, b, df, length))
    return TimeFunctionReport(not violations, worst, tuple(violations))
