"""Properties of the dense section and component-table layouts.

A (2,0) section is one ``(3, ..., dim)`` array and a curvature component
table one ``(3, 3, ..., dim)`` array, with zero, one or two sample axes
before the algebra axis.  The properties below hold on su(2), so(3) and
so(5) for every such stack: the coefficient round trips are exact, the
index symmetries hold bit for bit, and the stacked curvature quadratic
form agrees with the one-section route sample by sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.gauge_fields import (
    FComponents,
    TwoZeroSection,
    f_components_from_w,
    two_zero_from_v_coefficients,
)
from artifact.lie_algebra import make_so, make_su
from artifact.weitzenbock_engine import quad_form_F, quad_form_F_complex

ALGEBRAS = {"su2": make_su(2), "so3": make_so(3), "so5": make_so(5)}
LAYOUT_SETTINGS = settings(max_examples=30, deadline=None)

_ALGEBRA = st.sampled_from(sorted(ALGEBRAS))
_LEAD = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)
_SEED = st.integers(0, 2**32 - 1)


def _draw(seed: int, shape: tuple, complex_values: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(shape)
    return values


def _index(lead: tuple) -> list:
    """Every sample index of a stack with leading axes ``lead``."""
    return list(np.ndindex(*lead))


def v_coefficients_from_two_zero(section: TwoZeroSection) -> np.ndarray:
    """Oracle: v-family rows of a section, inverting the package's
    ``two_zero_from_v_coefficients`` (real rows come back exactly)."""
    phi = section.phi
    rows = np.stack([phi + np.conj(phi), 1j * (phi - np.conj(phi))], axis=1)
    return np.moveaxis(rows.reshape((6,) + phi.shape[1:]), 0, -2)


def w_from_f_components(fc: FComponents) -> np.ndarray:
    """Oracle: w-family rows of a component table, inverting the
    package's ``f_components_from_w`` (real rows come back exactly)."""
    table = fc.table
    upper = np.stack([table[0, 1], table[0, 2], table[1, 2]])
    rows = np.stack(
        [upper + np.conj(upper), -1j * (upper - np.conj(upper))], axis=1
    )
    diagonal = -2j * np.stack([table[0, 0], table[1, 1]])
    out = np.concatenate([rows.reshape((6,) + upper.shape[1:]), diagonal])
    return np.moveaxis(out, 0, -2).real


@LAYOUT_SETTINGS
@given(name=_ALGEBRA, lead=_LEAD, seed=_SEED)
def test_v_rows_round_trip(name, lead, seed):
    algebra = ALGEBRAS[name]
    b = _draw(seed, lead + (6, algebra.dim), complex_values=False)
    section = two_zero_from_v_coefficients(algebra, b)
    assert section.phi.shape == (3,) + lead + (algebra.dim,)
    np.testing.assert_array_equal(v_coefficients_from_two_zero(section), b)
    for index in _index(lead):
        single = two_zero_from_v_coefficients(algebra, b[index])
        np.testing.assert_array_equal(
            section.phi[(slice(None),) + index], single.phi
        )


@LAYOUT_SETTINGS
@given(name=_ALGEBRA, lead=_LEAD, seed=_SEED)
def test_w_rows_round_trip(name, lead, seed):
    algebra = ALGEBRAS[name]
    a = _draw(seed, lead + (8, algebra.dim), complex_values=False)
    fc = f_components_from_w(algebra, a)
    assert fc.table.shape == (3, 3) + lead + (algebra.dim,)
    np.testing.assert_array_equal(w_from_f_components(fc), a)


@LAYOUT_SETTINGS
@given(name=_ALGEBRA, lead=_LEAD, seed=_SEED)
def test_at_follows_the_reality_rule(name, lead, seed):
    algebra = ALGEBRAS[name]
    a = _draw(seed, lead + (8, algebra.dim), complex_values=False)
    from_w = f_components_from_w(algebra, a)
    # any complex table: the constructor keeps the upper triangle and the
    # diagonal and fills the lower triangle by the rule
    given_table = _draw(seed, (3, 3) + lead + (algebra.dim,), True)
    filled = FComponents(algebra, given_table)
    for mu in range(1, 4):
        for nu in range(1, 4):
            np.testing.assert_array_equal(
                from_w.at(nu, mu), -np.conj(from_w.at(mu, nu))
            )
            if mu < nu:
                np.testing.assert_array_equal(
                    filled.at(nu, mu), -np.conj(filled.at(mu, nu))
                )
            if mu <= nu:
                np.testing.assert_array_equal(
                    filled.at(mu, nu), given_table[mu - 1, nu - 1]
                )


@LAYOUT_SETTINGS
@given(name=_ALGEBRA, lead=_LEAD, seed=_SEED)
def test_component_is_antisymmetric(name, lead, seed):
    algebra = ALGEBRAS[name]
    b = _draw(seed, lead + (6, algebra.dim), complex_values=True)
    section = two_zero_from_v_coefficients(algebra, b)
    for mu in range(1, 4):
        for nu in range(1, 4):
            np.testing.assert_array_equal(
                section.component(nu, mu), -section.component(mu, nu)
            )
            assert section.component(mu, nu).shape == lead + (algebra.dim,)


@LAYOUT_SETTINGS
@given(name=_ALGEBRA, lead=_LEAD, seed=_SEED, stacked_table=st.booleans())
def test_stacked_quad_matches_one_section_route(
    name, lead, seed, stacked_table
):
    # complex sections; the table is either one per sample or shared by
    # the whole stack
    algebra = ALGEBRAS[name]
    table_lead = lead if stacked_table else ()
    a = _draw(seed, table_lead + (8, algebra.dim), complex_values=False)
    b = _draw(seed + 1, lead + (6, algebra.dim), complex_values=True)
    fc = f_components_from_w(algebra, a)
    section = two_zero_from_v_coefficients(algebra, b)
    got = np.real(quad_form_F_complex(fc, section))
    assert np.shape(got) == lead
    for index in _index(lead):
        one_fc = f_components_from_w(
            algebra, a[index] if stacked_table else a
        )
        one_section = two_zero_from_v_coefficients(algebra, b[index])
        want = quad_form_F(one_fc, one_section)
        assert abs(np.asarray(got)[index] - want) <= 1e-12 * max(
            abs(want), 1.0
        )


def test_layout_shape_validation():
    su2 = ALGEBRAS["su2"]
    with pytest.raises(ValueError):
        two_zero_from_v_coefficients(su2, np.zeros((7, 5, 3)))
    with pytest.raises(ValueError):
        two_zero_from_v_coefficients(su2, np.zeros((7, 6, 2)))
    with pytest.raises(ValueError):
        TwoZeroSection(su2, np.zeros((2, 7, 3)))
    with pytest.raises(ValueError):
        TwoZeroSection(su2, np.zeros((3, 7, 2)))
    with pytest.raises(ValueError):
        FComponents(su2, np.zeros((3, 2, 3)))
    with pytest.raises(ValueError):
        FComponents(su2, np.zeros((3, 3, 7, 2)))
