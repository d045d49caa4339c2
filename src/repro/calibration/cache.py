"""Caching, persisting, and interpolating calibrated parameters.

Overview
--------
Calibration is "a fairly lengthy process" (paper, Section 7), so each
allocation is calibrated at most once per machine. The cache also
implements the paper's suggested refinement for reducing the number of
calibration experiments: calibrate a coarse grid of allocations and
*interpolate* parameters for allocations in between (multilinear over
the CPU/memory/I/O share axes). The interpolation ablation benchmark
quantifies what this costs in accuracy.

API
---
* :meth:`CalibrationCache.params_for` — the only lookup path:
  ``R -> P`` answered from the cache, by interpolation, or by running a
  fresh experiment (in that order).
* :meth:`CalibrationCache.calibrate_grid` — pre-populate a grid of
  share levels (the interpolation substrate).
* :meth:`CalibrationCache.save` / :meth:`CalibrationCache.load` —
  persist calibrated points as JSON; valid for any database and
  workload on the same machine.

Graceful degradation
--------------------
A production designer must keep producing allocations when a
calibration experiment dies for good (a permanently degraded
allocation, an ill-conditioned solve). When the runner raises a
permanent :class:`~repro.util.errors.CalibrationError`,
:meth:`CalibrationCache.params_for` walks a fallback chain instead of
propagating:

1. **retry** the whole experiment (``max_experiment_attempts``, the
   runner has already retried individual measurements);
2. **nearest calibrated allocation** — the cached point closest in
   share space stands in for the dead one;
3. **PostgreSQL defaults** — with an empty cache, the uncalibrated
   :meth:`OptimizerParameters.defaults` keep the pipeline alive.

Every tier the chain exercises is recorded: a :class:`FallbackEvent`
is appended to :attr:`CalibrationCache.fallback_log` and the
``resilience.fallbacks`` counter (labelled ``kind=retry|nearest|
default``) is incremented — ``retry`` when a whole-experiment retry
rescued the lookup (the answer is still a real calibration),
``nearest``/``default`` when the experiment died for good. Resilience
report sections render one row per tier, so a run's degradation mix is
visible at a glance. Fallback parameters are remembered separately
from calibrated ones, so they are never persisted by
:meth:`CalibrationCache.save` or used as interpolation corners.

Observability
-------------
Every lookup increments exactly one of the
``calibration.cache.exact_hits`` / ``calibration.cache.interpolated`` /
``calibration.cache.fresh`` counters, so a run report shows how many
optimizer-parameter requests were absorbed by the cache versus paid for
with a new experiment. Experiment-level retries count on
``resilience.retries`` (``site=experiment``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.calibration.runner import CalibrationRunner
from repro.obs import metrics
from repro.optimizer.params import OptimizerParameters
from repro.util.errors import CalibrationError
from repro.virt.resources import ResourceVector

#: Shares are quantized to this many decimals for cache keys.
_KEY_DECIMALS = 4

#: Current on-disk cache format (checksummed, atomically written; v3
#: adds an optional embedded surrogate fit block).
_CACHE_FORMAT = "repro-calibration-cache/3"
#: Formats :meth:`CalibrationCache.load` accepts (v1 predates checksums,
#: v2 predates surrogate fits).
_CACHE_FORMATS = {"repro-calibration-cache/1", "repro-calibration-cache/2",
                  _CACHE_FORMAT}
#: Formats whose files carry a points checksum.
_CHECKSUMMED_FORMATS = {"repro-calibration-cache/2", _CACHE_FORMAT}


def _key(allocation: ResourceVector) -> Tuple[float, float, float]:
    return tuple(round(s, _KEY_DECIMALS) for s in allocation.as_tuple())


@dataclass(frozen=True)
class FallbackEvent:
    """One recorded degradation of a ``P(R)`` lookup."""

    allocation: Tuple[float, float, float]
    #: ``"retry"`` (a whole-experiment retry rescued the lookup),
    #: ``"nearest"`` (served by another calibrated point) or
    #: ``"default"`` (served by uncalibrated defaults).
    kind: str
    #: The calibrated point that stood in (``nearest`` only).
    source: Optional[Tuple[float, float, float]]
    #: The permanent error that forced the fallback.
    reason: str


class CalibrationCache:
    """Memoized ``R -> P`` with interpolation and graceful degradation."""

    def __init__(self, runner: CalibrationRunner, interpolate: bool = False,
                 max_experiment_attempts: int = 2, journal=None):
        if max_experiment_attempts < 1:
            raise CalibrationError("max_experiment_attempts must be >= 1")
        self._runner = runner
        self._interpolate = interpolate
        self._max_experiment_attempts = max_experiment_attempts
        #: Optional :class:`repro.recovery.RunJournal`; every freshly
        #: calibrated point is appended as a ``calibration`` record the
        #: moment it completes, so a killed sweep can resume without
        #: repeating paid-for experiments.
        self._journal = journal
        self._cache: Dict[Tuple[float, float, float], OptimizerParameters] = {}
        # Degraded answers are remembered so a dead allocation is not
        # re-attempted on every probe, but kept apart from calibrated
        # points: they must never be saved or interpolated from.
        self._fallbacks: Dict[Tuple[float, float, float], OptimizerParameters] = {}
        self.fallback_log: List[FallbackEvent] = []
        # An attached surrogate fit rides along in v3 cache files (see
        # attach_surrogate / surrogate below); None until attached or
        # loaded from a v3 file that embeds one.
        self._surrogate = None

    @property
    def calibrated_points(self) -> List[Tuple[float, float, float]]:
        return sorted(self._cache)

    @property
    def n_calibrations(self) -> int:
        return len(self._cache)

    # -- population -------------------------------------------------------

    def calibrate_grid(self, cpu_shares: Sequence[float],
                       memory_shares: Sequence[float],
                       io_shares: Sequence[float] = (1.0,)) -> int:
        """Calibrate the cross product of share levels; returns count."""
        count = 0
        for cpu, mem, io in itertools.product(cpu_shares, memory_shares, io_shares):
            self.params_for(ResourceVector.of(cpu=cpu, memory=mem, io=io),
                            exact=True)
            count += 1
        return count

    # -- lookup -----------------------------------------------------------------

    def params_for(self, allocation: ResourceVector,
                   exact: bool = False) -> OptimizerParameters:
        """Parameters for *allocation*.

        With interpolation enabled (and *exact* false), an uncalibrated
        allocation is answered from the surrounding calibrated grid
        points when possible; otherwise a fresh calibration runs. A
        permanently failing experiment degrades through the fallback
        chain (module docstring) instead of raising.
        """
        key = _key(allocation)
        cached = self._cache.get(key)
        if cached is not None:
            metrics.counter("calibration.cache.exact_hits").inc()
            return cached
        degraded = self._fallbacks.get(key)
        if degraded is not None:
            metrics.counter("calibration.cache.exact_hits").inc()
            return degraded
        if self._interpolate and not exact:
            interpolated = self._try_interpolate(allocation)
            if interpolated is not None:
                metrics.counter("calibration.cache.interpolated").inc()
                return interpolated
        metrics.counter("calibration.cache.fresh").inc()
        try:
            params = self._calibrate_with_retries(allocation)
        except CalibrationError as error:
            params = self._fall_back(key, error)
            self._fallbacks[key] = params
            return params
        self._cache[key] = params
        if self._journal is not None:
            self._journal.append("calibration", {
                "allocation": list(key),
                "parameters": params.as_dict(),
            })
        return params

    def add_point(self, allocation: Tuple[float, float, float],
                  params: OptimizerParameters) -> None:
        """Install a calibrated point directly (journal replay, load)."""
        key = tuple(round(float(s), _KEY_DECIMALS) for s in allocation)
        if len(key) != 3:
            raise CalibrationError("allocation keys must have 3 shares")
        self._cache[key] = params

    def replay_record(self, data: Dict[str, object]) -> None:
        """Install one journaled ``calibration`` record — the inverse
        of what :meth:`params_for` appends (journal replay handler)."""
        self.add_point(tuple(float(v) for v in data["allocation"]),
                       OptimizerParameters.from_dict(data["parameters"]))

    def _calibrate_with_retries(self,
                                allocation: ResourceVector) -> OptimizerParameters:
        """Run the experiment, retrying whole-experiment failures once more."""
        last_error: Optional[CalibrationError] = None
        for attempt in range(1, self._max_experiment_attempts + 1):
            try:
                params = self._runner.parameters_for(allocation)
            except CalibrationError as error:
                last_error = error
                if attempt < self._max_experiment_attempts:
                    metrics.counter("resilience.retries",
                                    site="experiment").inc()
                continue
            if attempt > 1:
                # The first tier of the fallback chain rescued this
                # lookup: account it like the other tiers so resilience
                # reports show how often each tier fired.
                metrics.counter("resilience.fallbacks", kind="retry").inc()
                self.fallback_log.append(FallbackEvent(
                    allocation=_key(allocation), kind="retry", source=None,
                    reason=f"experiment succeeded on attempt {attempt}: "
                           f"{last_error}",
                ))
            return params
        assert last_error is not None
        try:
            raise last_error
        finally:
            # The error's traceback holds this frame: drop the frame's
            # reference so the runner frames it reaches die by refcount.
            last_error = None

    def _fall_back(self, key: Tuple[float, float, float],
                   error: CalibrationError) -> OptimizerParameters:
        """Nearest calibrated allocation, then PostgreSQL defaults."""
        if self._cache:
            nearest = min(
                self._cache,
                key=lambda point: sum((a - b) ** 2 for a, b in zip(point, key)),
            )
            metrics.counter("resilience.fallbacks", kind="nearest").inc()
            self.fallback_log.append(FallbackEvent(
                allocation=key, kind="nearest", source=nearest,
                reason=str(error),
            ))
            return self._cache[nearest]
        metrics.counter("resilience.fallbacks", kind="default").inc()
        self.fallback_log.append(FallbackEvent(
            allocation=key, kind="default", source=None, reason=str(error),
        ))
        return OptimizerParameters.defaults()

    # -- surrogate fits ----------------------------------------------------

    def attach_surrogate(self, surface) -> None:
        """Attach a fitted :class:`~repro.surrogate.ParameterSurface`.

        The fit is persisted inside v3 cache files by :meth:`save` and
        restored by :meth:`load`, so one adaptive-refinement run pays
        for the surface once per machine. Passing ``None`` detaches.
        """
        self._surrogate = surface

    @property
    def surrogate(self):
        """The attached surrogate fit (``None`` when not fitted)."""
        return self._surrogate

    # -- persistence -----------------------------------------------------------------

    @staticmethod
    def _points_checksum(points) -> str:
        import hashlib
        import json

        canonical = json.dumps(points, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def save(self, path) -> int:
        """Write all calibrated points to a JSON file; returns the count.

        Calibration depends only on the machine and allocation, so a
        saved cache is valid for any database and workload on the same
        machine — persisting it amortizes the "fairly lengthy"
        calibration process across sessions.

        The write is atomic (temp file + ``os.replace``) and the file
        embeds a checksum over the points, so a reader can tell a
        half-written or bit-rotted cache from a good one. A crash
        mid-save leaves any previous cache file untouched.
        """
        import json
        import os
        import pathlib
        import tempfile

        path = pathlib.Path(path)
        points = [
            {"allocation": list(key), "parameters": params.as_dict()}
            for key, params in sorted(self._cache.items())
        ]
        payload = {
            "format": _CACHE_FORMAT,
            "checksum": self._points_checksum(points),
            "points": points,
        }
        if self._surrogate is not None:
            fit = self._surrogate.as_dict()
            payload["surrogate"] = fit
            payload["surrogate_checksum"] = self._points_checksum(fit)
        fd, temp_name = tempfile.mkstemp(
            dir=str(path.parent) or ".", prefix=path.name + ".",
            suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return len(self._cache)

    def load(self, path) -> int:
        """Merge calibrated points from a JSON file; returns the count added.

        Raises a permanent :class:`~repro.util.errors.CalibrationError`
        — never a raw ``json.JSONDecodeError`` or ``KeyError`` — when
        the file is truncated, corrupted (checksum mismatch), from an
        unrecognized format version, or structurally malformed.
        """
        import json

        from repro.optimizer.params import OptimizerParameters as _Params

        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise CalibrationError(
                f"cannot read calibration cache {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CalibrationError(
                f"calibration cache {path} is corrupt or truncated: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise CalibrationError(
                f"calibration cache {path} is not a JSON object")
        version = payload.get("format")
        if version not in _CACHE_FORMATS:
            raise CalibrationError(
                f"unrecognized calibration cache format {version!r} in "
                f"{path}; expected one of {sorted(_CACHE_FORMATS)}")
        try:
            points = payload["points"]
            if version in _CHECKSUMMED_FORMATS:
                stored = payload["checksum"]
                expected = self._points_checksum(points)
                if stored != expected:
                    raise CalibrationError(
                        f"calibration cache {path} checksum mismatch "
                        f"({stored} != {expected}): file is corrupted")
            added = 0
            for point in points:
                key = tuple(float(v) for v in point["allocation"])
                if len(key) != 3:
                    raise CalibrationError(
                        "allocation keys must have 3 shares")
                if key not in self._cache:
                    self._cache[key] = _Params.from_dict(point["parameters"])
                    added += 1
            if version == _CACHE_FORMAT and "surrogate" in payload:
                self._load_surrogate(path, payload)
        except CalibrationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(
                f"calibration cache {path} is structurally malformed: "
                f"{exc!r}") from exc
        return added

    def _load_surrogate(self, path, payload: dict) -> None:
        """Restore the embedded surrogate fit from a v3 cache payload."""
        from repro.surrogate.surface import ParameterSurface
        from repro.util.errors import SurrogateError

        fit = payload["surrogate"]
        stored = payload.get("surrogate_checksum")
        expected = self._points_checksum(fit)
        if stored != expected:
            raise CalibrationError(
                f"calibration cache {path} surrogate checksum mismatch "
                f"({stored} != {expected}): file is corrupted")
        try:
            self._surrogate = ParameterSurface.from_dict(fit)
        except SurrogateError as exc:
            raise CalibrationError(
                f"calibration cache {path} embeds an unusable surrogate "
                f"fit: {exc}") from exc

    # -- interpolation ---------------------------------------------------------------

    def _axis_values(self, axis: int) -> List[float]:
        return sorted({point[axis] for point in self._cache})

    @staticmethod
    def _bracket(values: List[float], target: float) -> Optional[Tuple[float, float]]:
        """The two grid values surrounding *target* (may coincide)."""
        if not values:
            return None
        below = [v for v in values if v <= target + 1e-12]
        above = [v for v in values if v >= target - 1e-12]
        if not below or not above:
            return None  # extrapolation is worse than calibrating
        return max(below), min(above)

    def _try_interpolate(self, allocation: ResourceVector) -> Optional[OptimizerParameters]:
        target = _key(allocation)
        brackets = []
        for axis in range(3):
            bracket = self._bracket(self._axis_values(axis), target[axis])
            if bracket is None:
                return None
            brackets.append(bracket)

        corners: List[Tuple[Tuple[float, float, float], float]] = []
        for corner in itertools.product(*brackets):
            weight = 1.0
            for axis in range(3):
                lo, hi = brackets[axis]
                if hi == lo:
                    fraction = 0.0
                else:
                    fraction = (target[axis] - lo) / (hi - lo)
                weight *= (1.0 - fraction) if corner[axis] == lo else fraction
            if weight > 0 and corner not in self._cache:
                return None  # a needed corner was never calibrated
            if weight > 0:
                corners.append((corner, weight))
        if not corners:
            return None
        total = sum(w for _c, w in corners)
        if total <= 0:
            return None

        # Blend in the *time* domain via the shared surrogate rule
        # (repro.surrogate.surface.blend_corners): the ratio parameters
        # are per-unit times divided by T_seq, and both numerator and
        # denominator vary with the allocation — interpolating the
        # ratios directly compounds their curvatures. Imported lazily:
        # the surrogate package is an optional consumer of this module,
        # never a load-time dependency.
        from repro.surrogate.surface import blend_corners

        # Historical behavior: cache-side interpolation blends without
        # the monotonicity clamp (the full surrogate guard rails live on
        # ParameterSurface, the dedicated fit object).
        return blend_corners(
            [(self._cache[corner], weight) for corner, weight in corners],
            clamp=False)
