"""Property test: the attribute-reading corner blend is bit-identical to
the dict-reading reference it replaced.

``reference_blend`` is a frozen copy of
:func:`repro.surrogate.surface.blend_corners` as it was when it read
every corner through :meth:`OptimizerParameters.as_dict`. The two must
agree on every field, compared by ``float.hex`` (so ``-0.0`` and
last-digit drift count as differences), for 1–8 corners — duplicated
corners included, as a degenerate bracket produces — with and without
the monotonicity clamp.
"""

import dataclasses
from typing import Dict, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.params import OptimizerParameters
from repro.surrogate.surface import RATIO_NAMES, blend_corners
from repro.util.errors import SurrogateError


def reference_blend(corners: Sequence[Tuple[OptimizerParameters, float]],
                    clamp: bool = True) -> OptimizerParameters:
    total = sum(weight for _params, weight in corners)
    if not corners or total <= 0:
        raise SurrogateError("corner blend needs positive total weight")
    blended_times: Dict[str, float] = {name: 0.0 for name in RATIO_NAMES}
    blended_t_seq = 0.0
    blended_cache = 0.0
    blended_sort = 0.0
    for params, weight in corners:
        share = weight / total
        blended_t_seq += params.seconds_per_seq_page * share
        blended_cache += params.effective_cache_size * share
        blended_sort += params.sort_mem_pages * share
        values = params.as_dict()
        for name in RATIO_NAMES:
            blended_times[name] += (
                values[name] * params.seconds_per_seq_page * share
            )
    ratios = {name: blended_times[name] / blended_t_seq
              for name in RATIO_NAMES}
    if clamp:
        for name in RATIO_NAMES:
            observed = [params.as_dict()[name] for params, _w in corners]
            ratios[name] = min(max(ratios[name], min(observed)),
                               max(observed))
    return OptimizerParameters(
        seq_page_cost=1.0,
        random_page_cost=ratios["random_page_cost"],
        cpu_tuple_cost=ratios["cpu_tuple_cost"],
        cpu_index_tuple_cost=ratios["cpu_index_tuple_cost"],
        cpu_operator_cost=ratios["cpu_operator_cost"],
        cpu_like_byte_cost=ratios["cpu_like_byte_cost"],
        effective_cache_size=int(blended_cache),
        sort_mem_pages=int(blended_sort),
        seconds_per_seq_page=blended_t_seq,
    )


def bits(params: OptimizerParameters) -> list:
    return [(field.name, type(value).__name__,
             value.hex() if isinstance(value, float) else value)
            for field in dataclasses.fields(params)
            for value in [getattr(params, field.name)]]


ratio = st.floats(min_value=1e-7, max_value=1e3, allow_nan=False,
                  allow_infinity=False)
calibrated = st.builds(
    OptimizerParameters,
    random_page_cost=ratio, cpu_tuple_cost=ratio,
    cpu_index_tuple_cost=ratio, cpu_operator_cost=ratio,
    cpu_like_byte_cost=ratio,
    effective_cache_size=st.integers(min_value=0, max_value=10**7),
    sort_mem_pages=st.integers(min_value=0, max_value=10**5),
    seconds_per_seq_page=st.floats(min_value=1e-7, max_value=1e-1),
)
weight = st.one_of(st.just(0.0), st.just(1.0),
                   st.floats(min_value=0.0, max_value=1.0))


@st.composite
def corner_lists(draw):
    pool = draw(st.lists(calibrated, min_size=1, max_size=8))
    corners = draw(st.lists(
        st.tuples(st.sampled_from(pool), weight), min_size=1, max_size=8))
    if sum(w for _p, w in corners) <= 0:
        corners[0] = (corners[0][0], 1.0)
    return corners


@settings(max_examples=300, deadline=None)
@given(corners=corner_lists(), clamp=st.booleans())
def test_blend_matches_the_dict_reference_bit_for_bit(corners, clamp):
    assert bits(blend_corners(corners, clamp=clamp)) == bits(
        reference_blend(corners, clamp=clamp))


@pytest.mark.parametrize("corners", [[], [(OptimizerParameters(), 0.0)]])
def test_blend_without_weight_raises_like_the_reference(corners):
    for blend in (blend_corners, reference_blend):
        with pytest.raises(SurrogateError):
            blend(corners)
