"""The parameter surface: ``P(R)`` for *any* allocation, in O(1).

A :class:`ParameterSurface` is the calibration surrogate the designer
queries instead of running experiments: it holds the calibrated
parameters at a complete lattice of allocation knots (the cross product
of per-axis share levels over CPU x memory x I/O) and answers
``params_for(R)`` for arbitrary allocations by multilinear
interpolation between the surrounding knots. Lookups cost one binary
search per axis plus an eight-corner blend — O(log knots) bracketing,
O(1) arithmetic — no matter how fine the lattice is, which is what
makes continuous-allocation search affordable (see
``docs/surrogate.md``).

Blending happens in the *time* domain: the ratio parameters are
per-unit times divided by ``T_seq``, and both numerator and denominator
vary with the allocation, so interpolating ratios directly compounds
their curvatures. :func:`blend_corners` interpolates the underlying
unit times and re-normalizes — the same rule
:meth:`repro.calibration.cache.CalibrationCache._try_interpolate` has
always used (it now delegates here).

Guard rails
-----------
* **Monotonicity clamps**: every blended parameter is clamped to the
  [min, max] range of the corner values that produced it, so the
  re-normalization step can never push a prediction outside the locally
  observed trend (``clamp=True`` in :func:`blend_corners`).
* **Extrapolation guards**: a query outside the calibrated hull is
  clamped, per axis, onto the hull boundary before interpolating —
  linear *extrapolation* of a calibrated surface is unbounded nonsense
  and is never performed. Clamped lookups are counted separately so a
  run report shows when a search wandered off the fitted region.

Accounting
----------
Every lookup increments exactly one ``surrogate.lookups`` counter
(labelled ``result=hit|interpolated|clamped``): ``hit`` when the query
lands exactly on a knot, ``interpolated`` between knots, ``clamped``
when an extrapolation guard fired first. The counters surface in run
reports next to the calibration-cache accounting (see
``docs/observability.md``).

Uncertainty
-----------
A surface may carry a per-knot *uncertainty* — the leave-one-level-out
cross-validation error :class:`~repro.surrogate.refine.SurrogateBuilder`
measured while fitting. It is the shared acquisition signal: the
builder refines where it is largest, and the drift planner
(``docs/drift.md``) multiplies it by the observed drift statistic to
rank regions for recalibration. :meth:`region_of` addresses the cell of
the lattice an allocation falls in; :meth:`region_uncertainty` is the
worst corner uncertainty of that cell. Surfaces fitted before
uncertainty existed load with all-zero uncertainty.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.util.errors import SurrogateError
from repro.virt.resources import ResourceVector

#: Share coordinates are quantized to this many decimals, matching the
#: calibration cache's key quantization.
KEY_DECIMALS = 4

#: Axis names in canonical knot order.
AXIS_NAMES = ("cpu", "memory", "io")

#: The parameters blended in the time domain (everything except the
#: pinned ``seq_page_cost`` and the integer capacity fields).
RATIO_NAMES = ("random_page_cost", "cpu_tuple_cost",
               "cpu_index_tuple_cost", "cpu_operator_cost",
               "cpu_like_byte_cost")

_ratios_of = attrgetter(*RATIO_NAMES)

Knot = Tuple[float, float, float]

#: A lattice cell, addressed by the per-axis index of its lower corner
#: level (see :meth:`ParameterSurface.region_of`).
Region = Tuple[int, int, int]


def knot_key(shares: Iterable[float]) -> Knot:
    """Canonical (rounded) knot coordinates."""
    key = tuple(round(float(s), KEY_DECIMALS) for s in shares)
    if len(key) != 3:
        raise SurrogateError("allocation knots must have 3 shares")
    return key


def blend_corners(corners: Sequence[Tuple[OptimizerParameters, float]],
                  clamp: bool = True) -> OptimizerParameters:
    """Weighted blend of calibrated corner parameters, in the time domain.

    *corners* pairs each corner's parameters with its (non-negative)
    interpolation weight; weights are normalized here. With *clamp*,
    each blended ratio parameter is clamped to the [min, max] of the
    corner values — the monotonicity guard (module docstring).
    """
    total = sum(weight for _params, weight in corners)
    if not corners or total <= 0:
        raise SurrogateError("corner blend needs positive total weight")
    blended_times = [0.0] * len(RATIO_NAMES)
    blended_t_seq = 0.0
    blended_cache = 0.0
    blended_sort = 0.0
    for params, weight in corners:
        share = weight / total
        t_seq = params.seconds_per_seq_page
        blended_t_seq += t_seq * share
        blended_cache += params.effective_cache_size * share
        blended_sort += params.sort_mem_pages * share
        for i, value in enumerate(_ratios_of(params)):
            blended_times[i] += value * t_seq * share
    ratios = [blended / blended_t_seq for blended in blended_times]
    if clamp:
        observed = zip(*(_ratios_of(params) for params, _w in corners))
        ratios = [min(max(ratio, min(values)), max(values))
                  for ratio, values in zip(ratios, observed)]
    return OptimizerParameters(
        seq_page_cost=1.0,
        **dict(zip(RATIO_NAMES, ratios)),
        effective_cache_size=int(blended_cache),
        sort_mem_pages=int(blended_sort),
        seconds_per_seq_page=blended_t_seq,
    )


class ParameterSurface:
    """A fitted multilinear parameter surface over a complete lattice."""

    #: On-disk serialization format (embedded in cache v3 files).
    FORMAT = "repro-surrogate-fit/1"

    def __init__(self, knots: Mapping[Knot, OptimizerParameters],
                 tolerance: Optional[float] = None,
                 uncertainty: Optional[Mapping[Knot, float]] = None):
        if not knots:
            raise SurrogateError("a parameter surface needs at least one knot")
        self._knots: Dict[Knot, OptimizerParameters] = {
            knot_key(knot): params for knot, params in knots.items()
        }
        self._axes: List[List[float]] = [
            sorted({knot[axis] for knot in self._knots})
            for axis in range(3)
        ]
        expected = 1
        for values in self._axes:
            expected *= len(values)
        if len(self._knots) != expected:
            missing = [
                knot for knot in self._iter_lattice()
                if knot not in self._knots
            ]
            raise SurrogateError(
                f"surface lattice is incomplete: {len(self._knots)} knots "
                f"for a {'x'.join(str(len(a)) for a in self._axes)} grid; "
                f"missing e.g. {missing[0] if missing else '?'}")
        #: The cross-validation tolerance the fit was refined to (None
        #: when the surface was built without refinement).
        self.tolerance = tolerance
        self._uncertainty: Dict[Knot, float] = {}
        for knot, value in (uncertainty or {}).items():
            key = knot_key(knot)
            if key not in self._knots:
                raise SurrogateError(
                    f"uncertainty for unknown knot {key}")
            self._uncertainty[key] = max(0.0, float(value))

    def _iter_lattice(self):
        return (knot for knot in product(*self._axes))

    # -- introspection ------------------------------------------------------

    @property
    def knots(self) -> List[Knot]:
        """All knot coordinates, sorted."""
        return sorted(self._knots)

    @property
    def n_knots(self) -> int:
        return len(self._knots)

    def axis_levels(self, axis: int) -> Tuple[float, ...]:
        """The calibrated share levels along *axis* (0=cpu, 1=mem, 2=io)."""
        return tuple(self._axes[axis])

    def knot_params(self, knot: Iterable[float]) -> OptimizerParameters:
        """Exact calibrated parameters at a knot (KeyError if absent)."""
        return self._knots[knot_key(knot)]

    def covers(self, allocation: ResourceVector) -> bool:
        """Whether *allocation* lies inside the calibrated hull."""
        target = knot_key(allocation.as_tuple())
        return all(
            self._axes[axis][0] - 1e-12 <= target[axis]
            <= self._axes[axis][-1] + 1e-12
            for axis in range(3)
        )

    # -- uncertainty and regions --------------------------------------------

    def knot_uncertainty(self, knot: Iterable[float]) -> float:
        """The fit's cross-validation uncertainty at a knot (0 when the
        fit recorded none, or the knot was calibrated exactly)."""
        key = knot_key(knot)
        if key not in self._knots:
            raise SurrogateError(f"no knot at {key}")
        return self._uncertainty.get(key, 0.0)

    @property
    def has_uncertainty(self) -> bool:
        """Whether any knot carries a non-zero uncertainty."""
        return any(value > 0 for value in self._uncertainty.values())

    def region_of(self, allocation: ResourceVector) -> Region:
        """The lattice cell *allocation* falls in, as per-axis lower
        corner indices. Out-of-hull queries clamp onto the boundary
        cell, mirroring :meth:`params_for`'s extrapolation guard."""
        target = knot_key(allocation.as_tuple())
        region = []
        for axis in range(3):
            values = self._axes[axis]
            pos = bisect_left(values, target[axis] + 1e-12) - 1
            region.append(min(max(pos, 0), max(len(values) - 2, 0)))
        return tuple(region)

    def region_corners(self, region: Region) -> List[Knot]:
        """The (up to 8) corner knots of a lattice cell, sorted."""
        brackets = []
        for axis in range(3):
            values = self._axes[axis]
            lo = region[axis]
            if not 0 <= lo <= max(len(values) - 2, 0):
                raise SurrogateError(
                    f"region {region} is outside the lattice")
            brackets.append(sorted({values[lo],
                                    values[min(lo + 1, len(values) - 1)]}))
        return sorted(product(*brackets))

    def region_uncertainty(self, region: Region) -> float:
        """Worst corner uncertainty of a lattice cell — the acquisition
        signal shared by refinement polish and the drift planner."""
        return max(self.knot_uncertainty(knot)
                   for knot in self.region_corners(region))

    # -- targeted refits ----------------------------------------------------

    def with_knots(self, updates: Mapping[Knot, OptimizerParameters],
                   uncertainty: Optional[Mapping[Knot, float]] = None,
                   ) -> "ParameterSurface":
        """A new surface with *existing* knots overwritten in place.

        This is the drift loop's targeted-refit primitive: the lattice
        geometry is untouched (every update must land exactly on a
        current knot — anything else raises, the hull guard), so all the
        interpolation invariants — monotonicity clamps, hull-clamped
        extrapolation — hold over the refreshed values. Overwritten
        knots drop to zero uncertainty (they were just calibrated)
        unless *uncertainty* supplies a value.
        """
        refreshed = dict(self._knots)
        new_uncertainty = dict(self._uncertainty)
        for knot, params in updates.items():
            key = knot_key(knot)
            if key not in refreshed:
                raise SurrogateError(
                    f"cannot overwrite {key}: not a knot of this surface "
                    f"(use SurrogateBuilder.extend to grow the lattice)")
            refreshed[key] = params
            new_uncertainty[key] = 0.0
        for knot, value in (uncertainty or {}).items():
            key = knot_key(knot)
            if key not in refreshed:
                raise SurrogateError(f"uncertainty for unknown knot {key}")
            new_uncertainty[key] = max(0.0, float(value))
        return ParameterSurface(refreshed, tolerance=self.tolerance,
                                uncertainty=new_uncertainty)

    # -- lookup -------------------------------------------------------------

    def params_for(self, allocation: ResourceVector) -> OptimizerParameters:
        """``P(R)`` for any allocation: knot hit, interpolation, or a
        hull-clamped interpolation — never a fresh experiment."""
        target = knot_key(allocation.as_tuple())
        clamped = [
            min(max(target[axis], self._axes[axis][0]), self._axes[axis][-1])
            for axis in range(3)
        ]
        guard_fired = tuple(clamped) != target
        exact = self._knots.get(tuple(clamped))
        if exact is not None:
            result = "clamped" if guard_fired else "hit"
            metrics.counter("surrogate.lookups", result=result).inc()
            return exact
        brackets = []
        for axis in range(3):
            values = self._axes[axis]
            pos = bisect_left(values, clamped[axis])
            if pos < len(values) and abs(values[pos] - clamped[axis]) <= 1e-12:
                brackets.append((values[pos], values[pos]))
            else:
                brackets.append((values[pos - 1], values[pos]))
        fractions = [0.0 if hi == lo else (share - lo) / (hi - lo)
                     for (lo, hi), share in zip(brackets, clamped)]
        corners: List[Tuple[OptimizerParameters, float]] = []
        for corner in product(*brackets):
            weight = 1.0
            for coord, (lo, _hi), fraction in zip(corner, brackets, fractions):
                weight *= (1.0 - fraction) if coord == lo else fraction
            if weight > 0:
                corners.append((self._knots[corner], weight))
        metrics.counter(
            "surrogate.lookups",
            result="clamped" if guard_fired else "interpolated").inc()
        return blend_corners(corners, clamp=True)

    # -- persistence --------------------------------------------------------

    def as_dict(self) -> dict:
        """Plain-data form (embedded in calibration cache v3 files)."""
        entries = []
        for knot, params in sorted(self._knots.items()):
            entry = {"allocation": list(knot),
                     "parameters": params.as_dict()}
            # Written only when non-zero so fits produced before
            # uncertainty tracking serialize byte-identically.
            if self._uncertainty.get(knot, 0.0) > 0.0:
                entry["uncertainty"] = self._uncertainty[knot]
            entries.append(entry)
        return {
            "format": self.FORMAT,
            "tolerance": self.tolerance,
            "axes": [list(values) for values in self._axes],
            "knots": entries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ParameterSurface":
        """Inverse of :meth:`as_dict`; raises :class:`SurrogateError`."""
        if not isinstance(payload, dict):
            raise SurrogateError("surrogate fit payload is not an object")
        if payload.get("format") != cls.FORMAT:
            raise SurrogateError(
                f"unrecognized surrogate fit format "
                f"{payload.get('format')!r}; expected {cls.FORMAT!r}")
        try:
            knots = {}
            uncertainty = {}
            for entry in payload["knots"]:
                key = knot_key(entry["allocation"])
                knots[key] = OptimizerParameters.from_dict(
                    entry["parameters"])
                if "uncertainty" in entry:
                    uncertainty[key] = float(entry["uncertainty"])
            tolerance = payload.get("tolerance")
        except (KeyError, TypeError, ValueError) as exc:
            raise SurrogateError(
                f"surrogate fit payload is malformed: {exc!r}") from exc
        return cls(knots, tolerance=tolerance, uncertainty=uncertainty)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = "x".join(str(len(values)) for values in self._axes)
        return f"ParameterSurface({dims} lattice, {self.n_knots} knots)"
