"""Tests for the batch command line interface.

Covers option resolution precedence, input parsing diagnostics, report
encoding, exit codes, and byte-level determinism of the analysis
commands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artifact.cli_interface import (
    InputError,
    JobConfig,
    config_from_args,
    build_parser,
    encode_report,
    load_payload,
    main,
    parse_algebra,
    parse_gform,
    run_selftest,
    to_jsonable,
)
from artifact.flat_model import calibrate_model
from artifact.gauge_fields import g_norm
from artifact.lie_algebra import make_su, matrix_of


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("INPUT", "OUTPUT", "SEED", "SAMPLES", "TOL", "FORMAT"):
        monkeypatch.delenv(f"ARTIFACT_{name}", raising=False)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SD_PAYLOAD = {
    "algebra": "su2",
    "basis": "w",
    "components": {"w1": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
}

OMEGA_PAYLOAD = {
    "algebra": "abelian1",
    "basis": "real",
    "components": {"12": 1.0, "34": 1.0, "56": 1.0},
}


# ---------------------------------------------------------------------------
# Configuration resolution
# ---------------------------------------------------------------------------


class TestConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["calibrate"])
        cfg = config_from_args(args)
        assert cfg.seed == 0
        assert cfg.samples == 10000
        assert cfg.tolerance == 1e-9
        assert cfg.format == "json"
        assert cfg.input_path is None
        assert cfg.output_path is None

    def test_flags_override_defaults(self):
        args = build_parser().parse_args(
            ["selftest", "--seed", "5", "--samples", "42", "--tol", "1e-6"]
        )
        cfg = config_from_args(args)
        assert cfg.seed == 5
        assert cfg.samples == 42
        assert cfg.tolerance == 1e-6

    def test_environment_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("ARTIFACT_SEED", "9")
        monkeypatch.setenv("ARTIFACT_FORMAT", "csv")
        args = build_parser().parse_args(["calibrate"])
        cfg = config_from_args(args)
        assert cfg.seed == 9
        assert cfg.format == "csv"

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv("ARTIFACT_SEED", "9")
        args = build_parser().parse_args(["calibrate", "--seed", "3"])
        cfg = config_from_args(args)
        assert cfg.seed == 3

    def test_invalid_environment_value(self, monkeypatch):
        monkeypatch.setenv("ARTIFACT_SEED", "not-a-number")
        args = build_parser().parse_args(["calibrate"])
        with pytest.raises(InputError):
            config_from_args(args)

    def test_jobconfig_validation(self):
        base = dict(
            command="calibrate",
            input_path=None,
            output_path=None,
            seed=0,
            samples=100,
            tolerance=1e-9,
            format="json",
        )
        JobConfig(**base)
        with pytest.raises(InputError):
            JobConfig(**{**base, "command": "unheard-of"})
        with pytest.raises(InputError):
            JobConfig(**{**base, "tolerance": 0.0})
        with pytest.raises(InputError):
            JobConfig(**{**base, "samples": 0})
        with pytest.raises(InputError, match="seed"):
            JobConfig(**{**base, "seed": -1})
        with pytest.raises(InputError):
            JobConfig(**{**base, "format": "xml"})

    def test_run_selftest_rejects_sample_counts_below_one(self):
        # the library entry point gives the message of JobConfig before
        # any suite runs
        model = calibrate_model()
        for samples in (0, -3):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                run_selftest(model, samples=samples)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


class TestInputParsing:
    def test_missing_input_path(self):
        with pytest.raises(InputError, match="requires --input"):
            load_payload(None)

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            load_payload("/nonexistent/file.json")

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"algebra": "su2",\n  "basis" }')
        with pytest.raises(InputError, match=r"line 2 column"):
            load_payload(str(path))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InputError, match="JSON object"):
            load_payload(str(path))

    def test_named_algebras(self):
        # a named algebra keeps its basis: no coefficient map comes back
        for name, dim in (("su2", 3), ("so3", 3), ("so5", 10),
                          ("su2_trace", 3), ("abelian4", 4)):
            algebra, change = parse_algebra(name)
            assert algebra.dim == dim
            assert change is None
        assert parse_algebra("su2_trace")[0].inner_mode == "trace"
        with pytest.raises(InputError):
            parse_algebra("sp4")
        # a superscript digit is a digit to str.isdigit, not to int()
        with pytest.raises(InputError, match="unknown name"):
            parse_algebra("abelian\u00b2")

    def test_custom_algebra(self):
        payload = {
            "name": "custom su(2)",
            "inner": "trace",
            "matrices": [
                [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
                [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]],
            ],
        }
        algebra, _ = parse_algebra(payload)
        assert algebra.dim == 3
        assert algebra.name == "custom su(2)"

    def test_three_bases_agree(self):
        # the same 2-form through the w family, the real keys, and the
        # complex symbol keys
        via_w = parse_gform(
            {
                "algebra": "abelian1",
                "basis": "w",
                "components": {"w7": [1.0]},
            }
        )
        via_real = parse_gform(
            {
                "algebra": "abelian1",
                "basis": "real",
                "components": {"56": 1.0, "12": -1.0},
            }
        )
        via_complex = parse_gform(
            {
                "algebra": "abelian1",
                "basis": "complex",
                "components": {
                    "1,-1": [[0.0, 0.5]],
                    "3,-3": [[0.0, -0.5]],
                },
            }
        )
        # compare the raw coefficient matrices of the three parses
        reference = via_w.to_matrix()
        assert np.max(np.abs(via_real.to_matrix() - reference)) <= 1e-14
        assert np.max(np.abs(via_complex.to_matrix() - reference)) <= 1e-14
        assert g_norm(via_w) == pytest.approx(np.sqrt(2.0))

    def test_unknown_basis_rejected(self):
        with pytest.raises(InputError):
            parse_gform(
                {"algebra": "su2", "basis": "octonion", "components": {}}
            )

    def test_missing_components_rejected(self):
        with pytest.raises(InputError):
            parse_gform({"algebra": "su2", "basis": "w"})

    def test_bad_real_key_rejected(self):
        with pytest.raises(InputError):
            parse_gform(
                {
                    "algebra": "abelian1",
                    "basis": "real",
                    "components": {"21": 1.0},
                }
            )

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(InputError):
            parse_gform(
                {
                    "algebra": "su2",
                    "basis": "w",
                    "components": {"w1": [1.0, 2.0]},
                }
            )


# ---------------------------------------------------------------------------
# Report encoding
# ---------------------------------------------------------------------------


class TestEncoding:
    def test_jsonable_conversions(self):
        out = to_jsonable(
            {
                "z": 1.0 + 2.0j,
                "arr": np.array([1.0, 2.0]),
                "flag": np.bool_(True),
                "n": np.int64(3),
                3: "int key",
            }
        )
        assert out["z"] == [1.0, 2.0]
        assert out["arr"] == [1.0, 2.0]
        assert out["flag"] is True
        assert out["n"] == 3
        assert out["3"] == "int key"

    def test_json_format_sorted_with_newline(self):
        text = encode_report({"b": 1, "a": 2}, "json")
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_csv_format(self):
        text = encode_report(
            {"outer": {"x": 1.5, "ok": True}, "items": [10, 20]}, "csv"
        )
        lines = text.strip().split("\n")
        assert lines[0] == "label,value"
        assert "outer.x,1.5" in lines
        assert "outer.ok,true" in lines
        assert "items.0,10" in lines
        assert "items.1,20" in lines


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_calibrate_to_stdout(self, capsys):
        assert main(["calibrate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "sigma=1,kappa=-1.0,s=-1"
        assert report["vertical_index"] == 7

    def test_classify_self_dual(self, tmp_path, capsys):
        path = write_json(tmp_path, "sd.json", SD_PAYLOAD)
        assert main(["classify", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "SD"

    def test_decompose_contact_form(self, tmp_path, capsys):
        path = write_json(tmp_path, "omega.json", OMEGA_PAYLOAD)
        assert main(["decompose", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dominant"] == "1"
        assert report["parts"]["1"]["fraction"] == pytest.approx(1.0)
        assert report["total_norm"] == pytest.approx(np.sqrt(3.0))

    def test_spectrum_reports_verdicts(self, tmp_path, capsys):
        path = write_json(tmp_path, "sd.json", SD_PAYLOAD)
        assert main(["spectrum", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["combined_positive"] is True
        assert report["verdicts"]["ricci_positive"] is True

    def test_spectrum_near_classifier_tolerance(self, tmp_path, capsys):
        # w1 (x) e0 + eps v1 (x) e1 on su(2), real basis: near eps = 4e-9
        # the two type classifier routes disagree, and spectrum, which
        # does not gate on the type label, must not run the classifier
        eps = 4e-9
        payload = {
            "algebra": "su2",
            "basis": "real",
            "components": {"13": [1.0, eps, 0.0], "24": [1.0, -eps, 0.0]},
        }
        path = write_json(tmp_path, "near.json", payload)
        assert main(["spectrum", "--input", path]) == 0

        def non_finite(name):
            raise AssertionError(f"non-finite number {name} in the report")

        report = json.loads(
            capsys.readouterr().out, parse_constant=non_finite
        )
        assert set(report["spectra"]) == {"curvature", "ricci", "combined"}

    def test_vanishing_small_curvature(self, tmp_path, capsys):
        path = write_json(tmp_path, "sd.json", SD_PAYLOAD)
        assert main(["vanishing", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "VANISHES"
        assert report["lambda_min"] == pytest.approx(16.0)

    def test_stability_small_curvature(self, tmp_path, capsys):
        # the w1 coefficient is scaled so the curvature norm stays under
        # the 7-dimensional Ricci threshold 6 / (2 sqrt 2)
        payload = {
            "algebra": "su2",
            "basis": "w",
            "components": {"w1": [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        }
        path = write_json(tmp_path, "small.json", payload)
        assert main(["stability", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "STABLE_SUFFICIENT"

    def test_output_file_and_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["calibrate", "--format", "csv", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "label,value"
        assert any(line.startswith("label,") for line in lines)

    def test_symbols_pass(self, tmp_path, capsys):
        assert main(["symbols", "--samples", "15"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        assert report["full"]["failures"] == 0
        assert report["basic"]["failures"] == 0
        assert report["full"]["horizontal_probe"]["rank_patterns"] == [
            "1x6x5"
        ]

    def test_stiefel_pass(self, tmp_path, capsys):
        assert main(["stiefel", "--samples", "30"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["sdci"] == "PASS"
        assert report["verdicts"]["vanishing"] == "VANISHES"

    def test_selftest_pass(self, tmp_path, capsys):
        assert main(["selftest", "--samples", "120"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        assert report["all_passed"] is True
        assert len(report["suites"]) == 13
        for name, suite in report["suites"].items():
            assert suite["passed"], name


# ---------------------------------------------------------------------------
# Exit codes and error paths
# ---------------------------------------------------------------------------


def _skewed_su2_payload(form_payload):
    """The same form over su(2) sent as a custom algebra: the matrices of
    ``make_su(2)`` mixed by a unit lower-triangular map A, a Gram matrix
    that is not diagonal, and every component vector u of the named
    basis sent as the vector v with ``v A = u``."""
    mix = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.3, 0.2, 1.0]])
    matrices = np.einsum("ij,jab->iab", mix, make_su(2).basis)
    inverse = np.linalg.inv(mix)

    def in_skewed_basis(value):
        # entries are numbers or [re, im] pairs; out as [re, im] pairs
        u = np.array([complex(*z) if isinstance(z, list) else z
                      for z in value])
        return [[z.real, z.imag] for z in u @ inverse]

    return dict(
        form_payload,
        algebra={
            "name": "skewed su(2)",
            "matrices": [[[[z.real, z.imag] for z in row] for row in m]
                         for m in matrices],
        },
        components={key: in_skewed_basis(value)
                    for key, value in form_payload["components"].items()},
    )


def _leaves(value, prefix=""):
    """Dotted paths to the leaves of a decoded JSON report."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{prefix}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{prefix}.{index}")
    else:
        yield prefix, value


_SU2_FORMS = {
    "sd": SD_PAYLOAD,
    "generic_w": {
        "algebra": "su2",
        "basis": "w",
        "components": {
            f"w{k}": [0.3 * k - 1.0, 0.7 - 0.2 * k, 0.1 * k * k - 0.5]
            for k in range(1, 9)
        },
    },
    "generic_real": {
        "algebra": "su2",
        "basis": "real",
        "components": {
            "12": [1.0, -0.5, 0.25], "34": [0.5, 2.0, -1.0],
            "56": [-1.5, 0.75, 0.5], "13": [0.2, 0.1, -0.4],
            "27": [0.3, -0.6, 0.9],
        },
    },
}


class TestSkewedCustomAlgebra:
    """su(2) sent as a custom basis whose Gram matrix is not diagonal is
    re-based at parse time, its component vectors mapped into the new
    basis; every number of the reports equals that of ``"su2"``."""

    @pytest.mark.parametrize("form, command", [
        (form, command) for form in sorted(_SU2_FORMS)
        for command in ("classify", "spectrum", "vanishing", "stability")
        # vanishing takes (1,1) forms only
        if command != "vanishing" or _SU2_FORMS[form]["basis"] == "w"
    ])
    def test_reports_equal_named_su2(self, tmp_path, capsys, form, command):
        named = _SU2_FORMS[form]
        reports = []
        for label, payload in (("named", named),
                               ("skewed", _skewed_su2_payload(named))):
            path = write_json(tmp_path, f"{label}.json", payload)
            code = main([command, "--input", path])
            reports.append((code, json.loads(capsys.readouterr().out)))
        (code_named, want), (code_skewed, got) = reports
        assert code_named == code_skewed == 0
        want, got = dict(_leaves(want)), dict(_leaves(got))
        assert want.keys() == got.keys()
        scale = max(abs(v) for v in want.values() if isinstance(v, float))
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= 1e-12 * max(
                    abs(value), abs(got[key]), scale
                ), key
            else:
                assert got[key] == value, key

    def test_components_map_to_the_same_matrices(self):
        payload = _skewed_su2_payload(_SU2_FORMS["generic_real"])
        given = np.array([[[complex(*z) for z in row] for row in m]
                          for m in payload["algebra"]["matrices"]])
        algebra, change = parse_algebra(payload["algebra"])
        assert not np.allclose(algebra.basis, given)
        # row i of the map holds the coefficients of the i-th given matrix
        assert np.allclose(matrix_of(algebra, change), given,
                           rtol=0, atol=1e-14)
        assert algebra.inner_scale == pytest.approx(8.0, rel=1e-14)
        skewed = parse_gform(payload)
        named = parse_gform(_SU2_FORMS["generic_real"])
        assert np.allclose(
            matrix_of(algebra, skewed.matrix),
            matrix_of(make_su(2), named.matrix),
            rtol=0, atol=1e-14,
        )


class TestExitCodes:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_input_exits_two(self, capsys):
        assert main(["classify"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope}")
        assert main(["classify", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "input error" in err
        assert "line 1" in err

    def test_zero_samples_exits_two(self, capsys):
        assert main(["selftest", "--samples", "0"]) == 2
        assert "samples" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, seed", [("selftest", "-1"), ("stiefel", "-5"),
                          ("calibrate", "-1")]
    )
    def test_negative_seed_flag_exits_two(self, capsys, command, seed):
        # rejected with the flag named, before any generator sees it
        assert main([command, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"seed must be non-negative, not {seed}" in err

    def test_negative_seed_environment_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("ARTIFACT_SEED", "-2")
        assert main(["stiefel"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "seed must be non-negative, not -2" in err

    def test_bad_tolerance_exits_two(self, capsys):
        assert main(["selftest", "--tol", "-1"]) == 2
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_exits_two(
        self, tmp_path, monkeypatch, capsys, value
    ):
        # keys 12 and 34 carry (2,0) parts that the strict (1,1) check of
        # vanishing rejects; a non-finite tolerance must not skip it
        payload = {
            "algebra": "su2",
            "basis": "real",
            "components": {"12": [1, 0, 0], "34": [0, 1, 0], "17": [0, 0, 1]},
        }
        path = write_json(tmp_path, "mixed.json", payload)
        assert main(["vanishing", "--input", path, "--tol", value]) == 2
        monkeypatch.setenv("ARTIFACT_TOL", value)
        assert main(["vanishing", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "input error: tolerance must be a positive finite number"
        ] * 2

    def test_oversized_abelian_exits_two(self, tmp_path, capsys):
        # abelian<d> is capped before its d**3 structure constants are
        # allocated; this size cannot be allocated at all
        payload = {
            "algebra": "abelian100000",
            "basis": "real",
            "components": {"12": 1.0},
        }
        path = write_json(tmp_path, "huge.json", payload)
        assert main(["classify", "--input", path]) == 2
        self._assert_one_line_input_error(capsys)
        with pytest.raises(InputError, match="1 <= d <= 64"):
            parse_algebra("abelian100000")

    def test_largest_abelian_classifies(self, tmp_path, capsys):
        # abelian64 is the largest algebra the schema accepts
        payload = {
            "algebra": "abelian64",
            "basis": "real",
            "components": {"12": [1.0] + [0.0] * 63},
        }
        path = write_json(tmp_path, "abelian64.json", payload)
        assert main(["classify", "--input", path]) == 0
        # e^12 on one generator, whose trace-form norm is 1
        assert json.loads(capsys.readouterr().out)["norm"] == 1.0

    def test_bad_environment_format_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("ARTIFACT_FORMAT", "parquet")
        assert main(["calibrate"]) == 2
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["1\u00b2", "\u00b93", "\u0661\u0662",
                                     "\uff11\uff12", "18", "0 5"])
    def test_non_ascii_or_out_of_range_real_key_exits_two(
        self, tmp_path, capsys, key
    ):
        # superscript digits pass str.isdigit but not int(), Arabic-Indic
        # and full-width ones pass both; each key gets the documented
        # key message
        payload = {"algebra": "su2", "basis": "real",
                   "components": {key: [1.0, 0.0, 0.0]}}
        path = write_json(tmp_path, "key.json", payload)
        assert main(["classify", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"input error: field 'components': key {key!r} must name two "
            f"ascending coframe indices between 1 and 7, like '12' or '37'"
        ]

    def test_parse_error_in_payload_exits_two(self, tmp_path, capsys):
        path = write_json(
            tmp_path,
            "bad-field.json",
            {"algebra": "su2", "basis": "w", "components": {"w9": [0, 0, 0]}},
        )
        assert main(["classify", "--input", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_failing_analysis_exits_one(self, monkeypatch, capsys):
        import artifact.cli_interface as cli

        monkeypatch.setitem(
            cli._COMMANDS, "calibrate",
            (lambda cfg, model: ({"ok": False}, False), "always fails"),
        )
        assert main(["calibrate"]) == 1
        capsys.readouterr()

    @staticmethod
    def _assert_one_line_input_error(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("input error")

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        # json.loads raises RecursionError on deep nesting, whether the
        # whole file or one component's value is nested
        deep = "[" * 100000 + "]" * 100000
        texts = {
            "whole.json": deep,
            "component.json": (
                '{"algebra": "su2", "basis": "w", "components": {"w1": '
                + deep + "}}"
            ),
        }
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text(text)
            for command in ("classify", "decompose"):
                assert main([command, "--input", str(path)]) == 2
                self._assert_one_line_input_error(capsys)

    def test_nan_coefficient_exits_two(self, tmp_path, capsys):
        payload = dict(SD_PAYLOAD, components={"w1": [float("nan"), 0.0, 0.0]})
        path = write_json(tmp_path, "nan.json", payload)
        for command in ("decompose", "classify", "spectrum"):
            assert main([command, "--input", path]) == 2
            self._assert_one_line_input_error(capsys)

    def test_non_finite_scalar_rejected_at_parse(self):
        for value in (float("inf"), [0.0, float("-inf")], 10**400):
            payload = dict(SD_PAYLOAD, components={"w1": [value, 0.0, 0.0]})
            with pytest.raises(InputError, match="finite"):
                parse_gform(payload)

    def test_overflowing_report_exits_two(self, tmp_path, capsys):
        # finite input whose report overflows to inf / nan; the test
        # settings turn a numpy RuntimeWarning into an error, so a warning
        # ahead of the input error fails this test as well
        for index, w1 in enumerate((
            [1e308, 1e308, 0.0],
            [[1e308, 0.0], [1e308, 0.0], [0.0, 0.0]],
        )):
            payload = dict(SD_PAYLOAD, components={"w1": w1})
            path = write_json(tmp_path, f"big{index}.json", payload)
            for command in ("decompose", "classify", "spectrum",
                            "vanishing", "stability"):
                for fmt in ("json", "csv"):
                    argv = [command, "--input", path, "--format", fmt]
                    assert main(argv) == 2
                    captured = capsys.readouterr()
                    assert captured.out == ""
                    lines = captured.err.splitlines()
                    assert len(lines) == 1, (argv, lines)
                    assert lines[0].startswith("input error")

    def test_encode_report_rejects_non_finite(self):
        for fmt in ("json", "csv"):
            with pytest.raises(ValueError):
                encode_report({"x": float("nan")}, fmt)

    def test_unwritable_output_exits_two(self, capsys):
        argv = ["calibrate", "--output", "/nonexistent/dir/x.json"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot write output file")
        assert "Traceback" not in err


def test_module_entry_point_runs_without_runpy_warning():
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "artifact.cli_interface", "calibrate"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["vertical_index"] == 7


def test_sampling_commands_do_not_import_numpy_ma():
    # numpy.ma costs 11-13 ms on import, and the first symbols or selftest
    # job of a process would pay it through a 1-D np.unique
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import contextlib, io, sys\n"
        "from artifact.cli_interface import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['symbols', '--samples', '5']),\n"
        "             main(['selftest', '--samples', '5'])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_parser_is_shared_and_environment_read_per_job(
        self, monkeypatch
    ):
        import artifact.cli_interface as cli

        seeds = []

        def record(cfg):
            seeds.append(cfg.seed)
            return 0

        monkeypatch.setattr(cli, "run", record)
        assert build_parser() is build_parser()
        assert main(["calibrate", "--seed", "3"]) == 0
        monkeypatch.setenv("ARTIFACT_SEED", "9")
        assert main(["calibrate"]) == 0
        assert seeds == [3, 9]

    def test_interleaved_jobs_repeat_byte_for_byte(self, tmp_path, capsys):
        first = write_json(tmp_path, "sd.json", SD_PAYLOAD)
        so5_rows = np.eye(10)[:2].tolist()
        other = write_json(tmp_path, "so5.json", {
            "algebra": "so5",
            "basis": "w",
            "components": {"w1": so5_rows[0], "w3": so5_rows[1]},
        })
        outcomes = []
        for command, path in (
            ("classify", first), ("spectrum", other), ("classify", first)
        ):
            code = main([command, "--input", path])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[2]
        assert outcomes[0][0] == 0 and outcomes[1][0] in (0, 1)

    def test_selftest_byte_identical(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        base = ["selftest", "--seed", "7", "--samples", "150"]
        assert main(base + ["--output", str(first)]) == 0
        assert main(base + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stiefel_byte_identical(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        base = ["stiefel", "--seed", "3", "--samples", "60"]
        assert main(base + ["--output", str(first)]) == 0
        assert main(base + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(
            ["stiefel", "--seed", "0", "--samples", "60", "--output", str(first)]
        ) == 0
        assert main(
            ["stiefel", "--seed", "1", "--samples", "60", "--output", str(second)]
        ) == 0
        assert first.read_bytes() != second.read_bytes()
