"""Tests for the leading-order symbol sequences of the deformation complexes.

Rank patterns are checked against hand-derived values at axis covectors
and generic random ones, compositions against exact zero, and the
quotient bases against independent span and orthogonality oracles.
The batched sweep is checked against the per-covector loop it replaced,
kept here as the oracle route, and the stage-basis route of both
complexes against their formulas written out by hand in
``oracle_routes``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import deformation_symbols

from artifact.flat_model import (
    REEB_INDEX,
    KForm,
    basis_keys,
    calibrate_model,
    standard_two_form_families,
    wedge,
)
from artifact.deformation_symbols import (
    BASIC_B,
    FULL_C,
    RANK_RELATIVE_THRESHOLD,
    SAMPLE_BLOCK,
    basic_symbol_maps,
    batch_exactness,
    build_quotient_spaces,
    covector_form,
    exactness_report,
    numerical_rank,
    symbol_maps,
    wedge_matrix,
)
from oracle_routes import (
    basic_symbol_maps_explicit,
    full_symbol_maps_explicit,
    symbol_tensors_explicit,
)


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


@pytest.fixture(scope="module")
def spaces(model):
    return build_quotient_spaces(model)


GENERIC_XI = np.array([0.3, -1.1, 0.7, 0.2, -0.5, 0.9, 1.3])
HORIZONTAL_XI = np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0, 0.0])
VERTICAL_XI = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])


def horizontal_triple_span_rank() -> int:
    """Oracle: rank of the horizontal wedges of 1-forms with the +1 family.

    The +1 family has pure mixed complex type, so its wedges with
    1-forms miss the two real directions of fully holomorphic or fully
    antiholomorphic type among the 20 horizontal 3-forms.  The degree-3
    ideal of the quotient construction absorbs every horizontal 3-form
    anyway; this records the two-dimensional gap.
    """
    columns = [
        wedge(KForm.basis(a), form).to_vector().real
        for a in range(1, REEB_INDEX)
        for form in standard_two_form_families()["w"]
    ]
    return numerical_rank(np.column_stack(columns))


# ---------------------------------------------------------------------------
# Quotient spaces
# ---------------------------------------------------------------------------


class TestQuotientSpaces:
    def test_scalar_dimensions(self, spaces):
        assert spaces.dims(FULL_C) == (1, 7, 13, 7)
        assert spaces.dims(BASIC_B) == (1, 6, 7)

    def test_dims_scale_with_coefficients(self, spaces):
        assert spaces.dims(FULL_C, 3) == (3, 21, 39, 21)
        assert spaces.dims(BASIC_B, 2) == (2, 12, 14)

    def test_alternating_sum_vanishes(self, spaces):
        dims = spaces.dims(FULL_C)
        assert sum((-1) ** k * n for k, n in enumerate(dims)) == 0

    def test_bases_are_orthonormal(self, spaces):
        for basis in (spaces.l2_basis, spaces.l3_basis, spaces.basic2_basis):
            gram = basis.T @ basis
            assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-12)

    def test_quotient_annihilates_plus_one_family(self, spaces, model):
        families = standard_two_form_families()
        for w in families["w"]:
            coords = spaces.l2_basis.T @ w.vector
            assert np.max(np.abs(coords)) <= 1e-12

    def test_quotient_keeps_minus_one_family(self, spaces):
        families = standard_two_form_families()
        for v in families["v"]:
            coords = spaces.l2_basis.T @ v.vector
            assert np.linalg.norm(coords) == pytest.approx(v.norm())

    def test_ideal_ranks(self, spaces):
        assert numerical_rank(spaces.ideal2_basis) == 8
        assert spaces.ideal3_basis.shape[1] == 28
        assert numerical_rank(spaces.ideal3_basis) == 28

    def test_three_form_quotient_annihilates_ideal(self, spaces):
        cross = spaces.l3_basis.T @ spaces.ideal3_basis
        assert np.max(np.abs(cross)) <= 1e-12

    def test_horizontal_triple_span_rank(self):
        assert horizontal_triple_span_rank() == 18


# ---------------------------------------------------------------------------
# Stage-basis route against the formulas written out per complex
# ---------------------------------------------------------------------------

# the seven axis covectors, then 50 seeded normal ones
STAGE_COVECTORS = np.concatenate(
    [np.eye(7), np.random.default_rng(16).normal(size=(50, 7))]
)


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


class TestStageBasisRoute:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "route, oracle",
        [
            (symbol_maps, full_symbol_maps_explicit),
            (basic_symbol_maps, basic_symbol_maps_explicit),
        ],
        ids=[FULL_C, BASIC_B],
    )
    def test_maps_equal_explicit_formulas(self, spaces, route, oracle, d):
        for xi in STAGE_COVECTORS:
            _assert_same_arrays(route(xi, spaces, d), oracle(xi, spaces, d))

    @pytest.mark.parametrize("which", [FULL_C, BASIC_B])
    def test_tensors_equal_explicit_formulas(self, spaces, which):
        want = symbol_tensors_explicit(spaces)[which]
        _assert_same_arrays(spaces.symbol_tensors[which], want)


# ---------------------------------------------------------------------------
# Covector helpers
# ---------------------------------------------------------------------------


class TestCovectorHelpers:
    def test_covector_form_round_trip(self):
        form = covector_form(GENERIC_XI)
        assert form.degree == 1
        assert np.allclose(form.to_vector(), GENERIC_XI)

    def test_covector_length_enforced(self):
        with pytest.raises(ValueError):
            covector_form(np.zeros(6))

    def test_wedge_matrix_single_entry(self):
        xi = covector_form(np.eye(7)[0])
        mat = wedge_matrix(xi, 1)
        keys1 = basis_keys(1)
        keys2 = basis_keys(2)
        col = keys1.index((2,))
        row = keys2.index((1, 2))
        assert mat[row, col] == 1.0
        # e^1 ^ e^1 = 0
        self_col = keys1.index((1,))
        assert np.max(np.abs(mat[:, self_col])) == 0.0

    def test_wedge_matrix_matches_wedge(self):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(7)
        xi = covector_form(vec)
        mat = wedge_matrix(xi, 2)
        keys2 = basis_keys(2)
        coords = rng.standard_normal(len(keys2))
        alpha = dict(zip(keys2, coords))
        # (xi ^ alpha)_{ijk} = xi_i alpha_jk - xi_j alpha_ik + xi_k alpha_ij,
        # written out apart from the wedge tables that ``wedge`` also uses
        expected = [
            vec[i - 1] * alpha[j, k]
            - vec[j - 1] * alpha[i, k]
            + vec[k - 1] * alpha[i, j]
            for i, j, k in basis_keys(3)
        ]
        assert np.allclose(mat @ coords, expected)

    def test_wedge_matrix_requires_one_form(self):
        with pytest.raises(ValueError):
            wedge_matrix(KForm.basis(1, 2), 1)


# ---------------------------------------------------------------------------
# Symbol maps of the full sequence
# ---------------------------------------------------------------------------


class TestFullSymbolMaps:
    def test_shapes(self, spaces):
        s0, s1, s2 = symbol_maps(GENERIC_XI, spaces, d=3)
        assert s0.shape == (21, 3)
        assert s1.shape == (39, 21)
        assert s2.shape == (21, 39)

    def test_compositions_vanish_exactly(self, spaces):
        for xi in (GENERIC_XI, HORIZONTAL_XI, VERTICAL_XI):
            s0, s1, s2 = symbol_maps(xi, spaces, d=2)
            assert np.max(np.abs(s1 @ s0)) == 0.0 or np.max(
                np.abs(s1 @ s0)
            ) <= 1e-14
            assert np.max(np.abs(s2 @ s1)) <= 1e-14

    def test_zero_covector_rejected(self, spaces):
        with pytest.raises(ValueError):
            symbol_maps(np.zeros(7), spaces)

    def test_bad_dimension_rejected(self, spaces):
        with pytest.raises(ValueError):
            symbol_maps(GENERIC_XI, spaces, d=0)
        with pytest.raises(ValueError):
            symbol_maps(np.zeros(6), spaces)

    def test_generic_ranks(self, spaces):
        for d in (1, 3):
            report = exactness_report(GENERIC_XI, spaces, FULL_C, d)
            assert report["ranks"] == [d, 6 * d, 7 * d]
            assert report["exact_everywhere"]
            assert report["alternating_sum"] == 0
            assert not report["degenerate"]

    def test_vertical_covector_is_exact(self, spaces):
        report = exactness_report(VERTICAL_XI, spaces, FULL_C, 1)
        assert report["ranks"] == [1, 6, 7]
        assert report["exact_everywhere"]

    def test_horizontal_covector_degenerates(self, spaces):
        # the final map only reaches the vertical wedge directions, so
        # its rank drops from 7 to 5 and the last two stages fail
        report = exactness_report(HORIZONTAL_XI, spaces, FULL_C, 1)
        assert report["ranks"] == [1, 6, 5]
        assert not report["exact_everywhere"]
        stage_flags = [row["exact"] for row in report["stages"]]
        assert stage_flags[0] and stage_flags[1]
        assert not stage_flags[2]
        assert not stage_flags[3]

    def test_ranks_scale_invariant(self, spaces):
        base = exactness_report(GENERIC_XI, spaces, FULL_C, 1)
        scaled = exactness_report(37.5 * GENERIC_XI, spaces, FULL_C, 1)
        assert base["ranks"] == scaled["ranks"]
        tiny = exactness_report(1e-6 * GENERIC_XI, spaces, FULL_C, 1)
        assert base["ranks"] == tiny["ranks"]

    def test_stage_bookkeeping(self, spaces):
        report = exactness_report(GENERIC_XI, spaces, FULL_C, 2)
        stages = report["stages"]
        assert [row["dim"] for row in stages] == [2, 14, 26, 14]
        # kernel of each outgoing map complements its rank
        for row, rank in zip(stages, report["ranks"]):
            assert row["kernel_dim"] == row["dim"] - rank
        # the final stage has no outgoing map
        assert stages[-1]["outgoing_rank"] is None
        assert stages[-1]["kernel_dim"] == stages[-1]["dim"]
        # exactness at the end means the last map is surjective
        assert stages[-1]["exact"]
        assert stages[-1]["image_in"] == 14

    def test_axis_covectors(self, spaces):
        for k in range(6):
            report = exactness_report(np.eye(7)[k], spaces, FULL_C, 1)
            assert report["ranks"] == [1, 6, 5]
        report = exactness_report(np.eye(7)[6], spaces, FULL_C, 1)
        assert report["ranks"] == [1, 6, 7]
        assert report["exact_everywhere"]


# ---------------------------------------------------------------------------
# Symbol maps of the basic sequence
# ---------------------------------------------------------------------------


class TestBasicSymbolMaps:
    def test_shapes(self, spaces):
        b0, b1 = basic_symbol_maps(GENERIC_XI, spaces, d=3)
        assert b0.shape == (18, 3)
        assert b1.shape == (21, 18)

    def test_composition_vanishes(self, spaces):
        b0, b1 = basic_symbol_maps(GENERIC_XI, spaces)
        assert np.max(np.abs(b1 @ b0)) <= 1e-14

    def test_horizontal_covector_ranks(self, spaces):
        for d in (1, 3):
            report = exactness_report(HORIZONTAL_XI, spaces, BASIC_B, d)
            assert report["ranks"] == [d, 5 * d]
            stages = report["stages"]
            assert stages[0]["exact"]
            assert stages[1]["exact"]
            # the sequence is too short to be exact at the top: the
            # cokernel there has dimension 7d - 5d = 2d
            assert stages[2]["dim"] - stages[2]["image_in"] == 2 * d

    def test_vertical_covector_collapses(self, spaces):
        report = exactness_report(VERTICAL_XI, spaces, BASIC_B, 1)
        assert report["ranks"] == [0, 0]
        assert report["degenerate"]

    def test_only_horizontal_part_acts(self, spaces):
        mixed = HORIZONTAL_XI.copy()
        mixed[6] = 5.0
        b0_mixed, b1_mixed = basic_symbol_maps(mixed, spaces)
        b0_flat, b1_flat = basic_symbol_maps(HORIZONTAL_XI, spaces)
        assert np.allclose(b0_mixed, b0_flat)
        # the second map does see the vertical part through the wedge;
        # only the first is oblivious to it
        report = exactness_report(mixed, spaces, BASIC_B, 1)
        assert report["ranks"][0] == 1

    def test_unknown_tag_rejected(self, spaces):
        with pytest.raises(ValueError, match="unknown complex tag"):
            exactness_report(GENERIC_XI, spaces, "OTHER", 1)
        with pytest.raises(ValueError, match="unknown complex tag"):
            batch_exactness(spaces, "OTHER", samples=1)
        with pytest.raises(ValueError, match="unknown complex tag"):
            spaces.dims("OTHER")


# ---------------------------------------------------------------------------
# Numerical rank
# ---------------------------------------------------------------------------


class TestNumericalRank:
    def test_zero_and_empty(self):
        assert numerical_rank(np.zeros((4, 5))) == 0
        assert numerical_rank(np.zeros((0, 5))) == 0

    def test_relative_threshold(self):
        assert numerical_rank(np.diag([1.0, 1e-12])) == 1
        assert numerical_rank(np.diag([1.0, 1e-6])) == 2
        # the cut is relative to the top singular value, so a uniformly
        # tiny matrix keeps its full rank
        assert numerical_rank(np.diag([1e-12, 1e-13])) == 2
        assert numerical_rank(np.diag([1e-12, 1e-22])) == 1

    def test_threshold_parameter(self, monkeypatch):
        # the cut is the module constant, read at call time
        monkeypatch.setattr(
            deformation_symbols, "RANK_RELATIVE_THRESHOLD", 1e-3
        )
        assert numerical_rank(np.diag([1.0, 1e-6])) == 1


# ---------------------------------------------------------------------------
# Batch sweeps
# ---------------------------------------------------------------------------


class TestBatchExactness:
    def test_full_sweep(self, spaces):
        out = batch_exactness(spaces, FULL_C, seed=0, samples=40)
        assert out["failures"] == 0
        assert out["all_exact"]
        assert out["samples"] == 47
        probe = out["horizontal_probe"]
        # six horizontal axis covectors, swept at two coefficient dims
        assert probe["count"] == 12
        assert probe["rank_patterns"] == ["1x6x5"]
        assert not probe["exact_everywhere"]
        assert out["rank_patterns"]["1x6x7"] > 0

    def test_basic_sweep(self, spaces):
        out = batch_exactness(spaces, BASIC_B, seed=0, samples=40)
        assert out["failures"] == 0
        assert out["all_exact"]
        assert out["vertical_degenerate"]
        # the vertical axis covector at two coefficient dims
        assert out["vertical_count"] == 2
        assert out["rank_patterns"]["1x5"] > 0
        assert out["rank_patterns"]["0x0"] == 2

    def test_sweeps_are_deterministic(self, spaces):
        first = batch_exactness(spaces, FULL_C, seed=3, samples=10)
        second = batch_exactness(spaces, FULL_C, seed=3, samples=10)
        assert first == second


# ---------------------------------------------------------------------------
# Batched sweep against the per-covector oracle route
# ---------------------------------------------------------------------------

SWEEP_SETTINGS = settings(max_examples=40, deadline=None)


def _oracle_covectors(seed, samples):
    """Axis covectors, then seeded draws one at a time with rejection."""
    rng = np.random.default_rng(seed)
    covectors = [np.eye(7)[k] for k in range(7)]
    while len(covectors) < samples + 7:
        vec = rng.normal(size=7)
        if np.linalg.norm(vec) > 1e-6:
            covectors.append(vec)
    return covectors


def _oracle_reports(q, which, covectors, dims):
    """One exactness_report per covector and coefficient dimension."""
    return [
        [exactness_report(vec, q, which, d) for d in dims]
        for vec in covectors
    ]


def _patch_sweep(mp, dims, threshold=RANK_RELATIVE_THRESHOLD):
    """Set the sweep's coefficient dimensions and rank cut, which both
    the batched route and the oracle read at call time."""
    mp.setattr(deformation_symbols, "COEFFICIENT_DIMS", dims)
    mp.setattr(deformation_symbols, "RANK_RELATIVE_THRESHOLD", threshold)


def _oracle_sweep(which, seed, covectors, reports, dims):
    """The per-covector loop of batch_exactness, kept as the oracle."""
    failures = []
    rank_patterns = {}
    vertical_reports = []
    horizontal_reports = []
    for vec, per_d in zip(covectors, reports):
        is_horizontal = vec[6] == 0.0
        is_vertical = bool(np.max(np.abs(vec[:6])) == 0.0)
        for d, report in zip(dims, per_d):
            pattern = tuple(r // d for r in report["ranks"])
            rank_patterns[pattern] = rank_patterns.get(pattern, 0) + 1
            if which == FULL_C:
                if is_horizontal:
                    horizontal_reports.append(report)
                elif not report["exact_everywhere"]:
                    failures.append(report)
            else:
                if is_vertical:
                    vertical_reports.append(report)
                elif not all(
                    row["exact"] for row in report["stages"][:2]
                ):
                    failures.append(report)
    out = {
        "which": which,
        "seed": int(seed),
        "samples": int(len(covectors)),
        "coefficient_dims": [int(d) for d in dims],
        "failures": len(failures),
        "failure_reports": failures[:3],
        "rank_patterns": {
            "x".join(str(r) for r in key): count
            for key, count in sorted(rank_patterns.items())
        },
        "all_exact": not failures,
    }
    if which == FULL_C:
        out["horizontal_probe"] = {
            "count": len(horizontal_reports),
            "rank_patterns": sorted(
                {
                    "x".join(
                        str(r // rep["coefficient_dim"])
                        for r in rep["ranks"]
                    )
                    for rep in horizontal_reports
                }
            ),
            "exact_everywhere": bool(
                horizontal_reports
                and all(r["exact_everywhere"] for r in horizontal_reports)
            ),
        }
    if which == BASIC_B:
        out["vertical_degenerate"] = bool(
            vertical_reports
            and all(r["degenerate"] for r in vertical_reports)
        )
        out["vertical_count"] = len(vertical_reports)
    return out


def _oracle(q, which, seed, covectors, dims):
    reports = _oracle_reports(q, which, covectors, dims)
    return _oracle_sweep(which, seed, covectors, reports, dims)


_WHICH = st.sampled_from([FULL_C, BASIC_B])
_DIMS = st.sampled_from([(1, 3), (1,), (2,), (3, 1, 4), ()])
# a large cut makes ranks drop, so failures and their reports show up
_THRESHOLDS = st.sampled_from([RANK_RELATIVE_THRESHOLD, 0.3, 0.9])


class TestBatchedSweepOracle:
    @SWEEP_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 6),
        extra=st.integers(-1, 1),
        blocks=st.integers(0, 3),
        which=_WHICH,
        dims=_DIMS,
        threshold=_THRESHOLDS,
    )
    def test_matches_per_covector_loop(
        self, spaces, seed, block, extra, blocks, which, dims, threshold
    ):
        # sample counts at and next to multiples of a reduced block size
        samples = max(0, blocks * block + extra)
        covectors = _oracle_covectors(seed, samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deformation_symbols, "SAMPLE_BLOCK", block)
            _patch_sweep(mp, dims, threshold)
            got = batch_exactness(spaces, which, seed, samples)
            want = _oracle(spaces, which, seed, covectors, dims)
        assert got == want

    @SWEEP_SETTINGS
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.sampled_from([1.0, 1e-6, 1e3]),
                st.sampled_from([None, 0, 3, 5, 6]),
            ),
            min_size=1,
            max_size=12,
        ),
        split=st.integers(1, 5),
        which=_WHICH,
        dims=_DIMS,
    )
    def test_scaled_and_axis_covectors(
        self, spaces, rows, split, which, dims
    ):
        # generic, horizontal and vertical draws at three scales, plus
        # scaled axis covectors, fed to the sweep in blocks of ``split``
        covectors = []
        for seed, scale, axis in rows:
            if axis is None:
                vec = np.random.default_rng(seed).normal(size=7)
                kind = seed % 3
                if kind == 1:
                    vec[6] = 0.0
                elif kind == 2:
                    vec[:6] = 0.0
            else:
                vec = np.eye(7)[axis]
            covectors.append(scale * vec)
        stack = np.array(covectors)
        blocks = [stack[i:i + split] for i in range(0, len(stack), split)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                deformation_symbols,
                "_covector_blocks",
                lambda seed, samples: iter(blocks),
            )
            _patch_sweep(mp, dims)
            got = batch_exactness(spaces, which, 0, 0)
        assert got == _oracle(spaces, which, 0, covectors, dims)

    @pytest.fixture(scope="class")
    def full_size(self, spaces):
        """Oracle reports for one block and two more covectors, at d=1."""
        covectors = _oracle_covectors(11, SAMPLE_BLOCK + 1)
        return covectors, {
            which: _oracle_reports(spaces, which, covectors, (1,))
            for which in (FULL_C, BASIC_B)
        }

    @pytest.mark.parametrize("which", [FULL_C, BASIC_B])
    @pytest.mark.parametrize(
        "samples", [0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1]
    )
    def test_block_boundaries(
        self, spaces, full_size, which, samples, monkeypatch
    ):
        covectors, reports = full_size
        _patch_sweep(monkeypatch, (1,))
        got = batch_exactness(spaces, which, 11, samples)
        count = samples + 7
        want = _oracle_sweep(
            which, 11, covectors[:count], reports[which][:count], (1,)
        )
        assert got == want

    @pytest.mark.parametrize("which", [FULL_C, BASIC_B])
    def test_sweep_independent_of_block_size(self, spaces, which):
        # a sweep over more than one block reports what the same sweep
        # gives when cut into smaller blocks
        samples = SAMPLE_BLOCK + 100
        whole = batch_exactness(spaces, which, 5, samples)
        for block in (97, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(deformation_symbols, "SAMPLE_BLOCK", block)
                assert batch_exactness(spaces, which, 5, samples) == whole


class TestKroneckerRank:
    """The sweep reports ``d * rank(M)`` for the map ``M (x) I_d``."""

    @pytest.mark.parametrize("xi", [GENERIC_XI, HORIZONTAL_XI, VERTICAL_XI],
                             ids=["generic", "horizontal", "vertical"])
    def test_rank_of_kronecker_product(self, spaces, xi):
        maps = symbol_maps(xi, spaces) + basic_symbol_maps(xi, spaces)
        for matrix in maps:
            rank = numerical_rank(matrix)
            for d in range(1, 5):
                assert numerical_rank(np.kron(matrix, np.eye(d))) == d * rank
