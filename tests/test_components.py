"""Truncation-rule behaviour of select_ncomp."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mortfpca.ufpca import FULL_RANK, ComponentRule, select_ncomp

# shares of [4, 3, 2, 1] are .4, .7, .9, 1.0 cumulatively
VALS = np.array([4.0, 3.0, 2.0, 1.0])


def test_threshold_picks_smallest_sufficient_count():
    assert select_ncomp(VALS, ComponentRule(threshold=0.65)) == 2
    assert select_ncomp(VALS, ComponentRule(threshold=0.41)) == 2
    assert select_ncomp(VALS, ComponentRule(threshold=0.91)) == 4


def test_exactly_attained_threshold_is_not_overshot():
    assert select_ncomp(VALS, ComponentRule(threshold=0.4)) == 1
    assert select_ncomp(VALS, ComponentRule(threshold=0.7)) == 2
    assert select_ncomp(VALS, ComponentRule(threshold=0.9)) == 3


def test_override_wins_and_caps_at_available():
    assert select_ncomp(VALS, ComponentRule(threshold=0.4, override=3)) == 3
    assert select_ncomp(VALS, ComponentRule(override=9)) == 4


def test_full_rank_keeps_every_nonzero_component():
    tiny_tail = np.array([1.0, 1e-9, 1e-17])
    assert select_ncomp(tiny_tail, FULL_RANK) == 3
    assert select_ncomp(np.array([2.0, 1.0, 0.0]), FULL_RANK) == 2


def test_degenerate_inputs_yield_zero():
    assert select_ncomp(np.empty(0), ComponentRule()) == 0
    assert select_ncomp(np.zeros(3), ComponentRule()) == 0


def test_eigenvalue_order_is_validated():
    with pytest.raises(ValueError):
        select_ncomp(np.array([1.0, 2.0]), ComponentRule())
    with pytest.raises(ValueError):
        select_ncomp(np.array([2.0, -1.0]), ComponentRule())


def test_rule_validation():
    with pytest.raises(ValueError):
        ComponentRule(threshold=0.0)
    with pytest.raises(ValueError):
        ComponentRule(threshold=1.5)
    with pytest.raises(ValueError):
        ComponentRule(override=0)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_threshold_count_is_minimal_and_sufficient(raw, threshold):
    vals = np.sort(np.asarray(raw))[::-1]
    n = select_ncomp(vals, ComponentRule(threshold=threshold))
    assert 1 <= n <= vals.size
    shares = np.cumsum(vals) / vals.sum()
    assert shares[n - 1] >= threshold - 1e-9
    if n > 1:
        assert shares[n - 2] < threshold


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20))
def test_full_rank_never_truncates_positive_spectra(raw):
    vals = np.sort(np.asarray(raw))[::-1]
    assert select_ncomp(vals, FULL_RANK) == vals.size
