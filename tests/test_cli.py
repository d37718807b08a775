import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unilab
from unilab import core
from unilab.analytic import ABSJ_MAX, cdf_absj, volume_ratio
from unilab.cli import _ROW_BLOCK, J_OBSERVED, main
from unilab.core import q_values
from unilab.sampling import DEFAULT_SEED, MeasureSpec, RngStream, sample_b, sample_haar_unitary
from unilab.unitary import jarlskog_values


@pytest.fixture
def schur_file(tmp_path):
    path = tmp_path / "schur.json"
    path.write_text(json.dumps({"rows": [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]]}))
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    third = 1 / 3
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"b": [third, third, third, third]}))
    return str(path)


def run_ok(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


# ---------------------------------------------------------------------------
# check


def test_check_schur(capsys, schur_file):
    report = json.loads(run_ok(capsys, ["check", "--input", schur_file]))
    assert report["classification"] == "NotUnistochastic"
    assert report["q"] == -0.0625
    assert report["j_squared"] is None
    assert report["chain_closes"] is False
    assert report["link_lengths"] == [0.0, 0.0, 0.5]


def test_check_w(capsys, w_file):
    report = json.loads(run_ok(capsys, ["check", "--input", w_file]))
    assert report["classification"] == "Unistochastic"
    assert report["q"] == pytest.approx(1 / 27, rel=1e-12)
    assert report["j_squared"] == pytest.approx(1 / 108, rel=1e-12)
    assert report["chain_closes"] is True


def test_check_orthostochastic_point(capsys, tmp_path):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    report = json.loads(run_ok(capsys, ["check", "--input", str(path)]))
    assert report["classification"] == "Orthostochastic"
    assert report["j_squared"] == 0.0


def test_check_input_errors(capsys, tmp_path):
    assert main(["check", "--input", str(tmp_path / "missing.json")]) == 2
    assert "--input" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--input", str(bad)]) == 2
    assert "--input" in capsys.readouterr().err

    both = tmp_path / "both.json"
    both.write_text(json.dumps({"rows": [[1]], "b": [1, 0, 0, 1]}))
    assert main(["check", "--input", str(both)]) == 2

    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps({"matrix": []}))
    assert main(["check", "--input", str(neither)]) == 2

    # well-formed JSON with the wrong number of b values is a domain error
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"b": [0.3, 0.3, 0.3]}))
    assert main(["check", "--input", str(short)]) == 1
    err = capsys.readouterr().err
    assert "4 values" in err and "(3,)" in err and "reshape" not in err


def test_check_invalid_matrix_is_domain_error(capsys, tmp_path):
    path = tmp_path / "rowsum.json"
    path.write_text(json.dumps({"rows": [[0.9, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    assert main(["check", "--input", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_check_rejects_non_finite_entries(capsys, tmp_path):
    # a NaN row sum compares False against the tolerance; this once exited 0
    # and reported "Orthostochastic"
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"rows": [[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, math.nan]]}))
    assert main(["check", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


# ---------------------------------------------------------------------------
# fuzzing check and reconstruct


def run_cli_on(command, payload):
    """Run one subcommand on a JSON payload; returns (exit code, stdout, stderr).

    Captures inside the call rather than through a fixture, so Hypothesis
    examples do not share captured output.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(payload))
        return run_captured([command, "--input", str(path)])


def run_captured(argv):
    """main(argv) with its own stdout and stderr; returns (exit code, stdout, stderr).

    A usage error that argparse reports by SystemExit counts as its exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _polytope_b(simplex, raw):
    """A point of one simplex of the triangulation, from five raw vertex weights."""
    verts = np.array([core._VERTEX_B[v] for v in core._SIMPLEX_VERTICES[simplex]], dtype=float)
    total = sum(raw)
    weights = np.array(raw) / total if total > 0.0 else np.eye(5)[0]
    return weights @ verts


polytope_points = st.builds(
    _polytope_b, st.integers(0, 2), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)
)
_JUNK_CELLS = ["x", "", "1/3", None, {}, [], [0.5], {"v": 0.5}, 10**400]
_BAD_NUMBERS = [math.nan, math.inf, -math.inf]


@st.composite
def malformed_payloads(draw):
    """A valid polytope point with exactly one defect that must be rejected."""
    b = draw(polytope_points).tolist()
    rows = core.matrix_from_b(np.array(b)).tolist()
    i, j, k = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(
        ["non-finite", "junk", "negative", "sums", "shape", "b-non-finite", "b-length",
         "b-outside", "top-level"]))
    if kind == "non-finite":
        rows[i][j] = draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "junk":
        rows[i][j] = draw(st.sampled_from(_JUNK_CELLS))
    elif kind == "negative":
        rows[i][j] = -draw(st.floats(1e-9, 10.0))
    elif kind == "sums":
        rows[i][j] += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 0.5))
    elif kind == "shape":
        return {"rows": draw(st.sampled_from(
            [rows[:2], rows + [rows[0]], [rows], sum(rows, []), [r[:2] for r in rows],
             [r + [0.0] for r in rows], [rows[0][:2]] + rows[1:], 0.5, []]))}
    elif kind == "b-non-finite":
        b[k] = draw(st.sampled_from(_BAD_NUMBERS))
        return {"b": b}
    elif kind == "b-length":
        return {"b": draw(st.sampled_from([[], b[:1], b[:3], b + [0.0], b * 2, [b]]))}
    elif kind == "b-outside":
        x = draw(st.floats(1e-9, 10.0))
        b[k] = draw(st.sampled_from([-x, 1.0 + x]))
        return {"b": b}
    elif kind == "top-level":
        return draw(st.sampled_from([[rows], {"rows": rows, "b": b}, {}, "rows", 3]))
    return {"rows": rows}


@settings(max_examples=300, deadline=None)
@given(malformed_payloads(), st.sampled_from(["check", "reconstruct"]))
def test_malformed_input_is_one_error_line(payload, command):
    code, out, err = run_cli_on(command, payload)
    assert code in (1, 2), (payload, out)
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(polytope_points, st.booleans())
def test_every_polytope_point_is_accepted(b, as_rows):
    payload = {"rows": core.matrix_from_b(b).tolist()} if as_rows else {"b": b.tolist()}
    code, out, err = run_cli_on("check", payload)
    assert code == 0 and err == "", err
    q = json.loads(out)["q"]
    code, out, err = run_cli_on("reconstruct", payload)
    if q < -core.Q_CLASS_TOL:
        assert code == 1 and err.count("\n") == 1 and "not unistochastic" in err
    else:
        assert code == 0 and err == "", err


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_w(capsys, w_file):
    report = json.loads(run_ok(capsys, ["reconstruct", "--input", w_file]))
    assert report["degenerate"] is False
    assert report["defect"] < 1e-12
    two_thirds_pi = 2 * math.pi / 3
    assert report["phases"]["phi22"] == pytest.approx(two_thirds_pi, abs=1e-12)
    assert report["phases"]["phi33"] == pytest.approx(two_thirds_pi, abs=1e-12)
    assert report["phases"]["phi32"] == pytest.approx(-two_thirds_pi, abs=1e-12)
    assert report["phases"]["phi23"] == pytest.approx(-two_thirds_pi, abs=1e-12)
    u = np.array(report["unitary"]["re"]) + 1j * np.array(report["unitary"]["im"])
    np.testing.assert_allclose(np.abs(u) ** 2, np.full((3, 3), 1 / 3), atol=1e-12)
    assert report["jarlskog"] == pytest.approx(math.sqrt(3) / 18, rel=1e-12)


def test_reconstruct_schur_fails_with_domain_exit(capsys, schur_file):
    assert main(["reconstruct", "--input", schur_file]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "-0.0625" in err


def test_reconstruct_permutation_is_degenerate(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"rows": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}))
    report = json.loads(run_ok(capsys, ["reconstruct", "--input", str(path)]))
    assert report["degenerate"] is True
    assert report["defect"] < 1e-12


# ---------------------------------------------------------------------------
# sample


def test_sample_default_seed_and_determinism(capsys):
    out_default = run_ok(capsys, ["sample", "--measure", "mu:1.5", "--n", "3"])
    out_explicit = run_ok(
        capsys, ["sample", "--measure", "mu:1.5", "--n", "3", "--seed", str(DEFAULT_SEED)]
    )
    out_again = run_ok(capsys, ["sample", "--measure", "mu:1.5", "--n", "3"])
    assert out_default == out_explicit == out_again

    lines = out_default.rstrip("\n").split("\n")
    assert lines[0] == "b1,b2,b3,b4,Q,J2"
    assert len(lines) == 4
    # rows round-trip exactly to the library draw
    b = sample_b(MeasureSpec.mu(1.5), RngStream(DEFAULT_SEED), 3)
    parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, :4], b)


def test_sample_haar_has_j_column(capsys):
    out = run_ok(capsys, ["sample", "--measure", "haar", "--n", "4", "--seed", "5"])
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "b1,b2,b3,b4,Q,J2,J"
    for ln in lines[1:]:
        b1, b2, b3, b4, q, j2, j = (float(x) for x in ln.split(","))
        assert j2 == j * j
        assert abs(q / 4 - j2) < 1e-12
        assert abs(j) <= ABSJ_MAX + 1e-15


def test_sample_flat(capsys):
    out = run_ok(capsys, ["sample", "--measure", "flat-b3", "--n", "5", "--seed", "7"])
    assert out.startswith("b1,b2,b3,b4,Q,J2\n")
    assert len(out.rstrip("\n").split("\n")) == 6


@pytest.mark.parametrize("text,spec", [
    ("haar", MeasureSpec.haar()),
    ("mu:1.5", MeasureSpec.mu(1.5)),
    ("flat-b3", MeasureSpec.flat_b3()),
])
def test_sample_columns_are_the_library_values(capsys, text, spec):
    n = _ROW_BLOCK + 3  # rows are formatted in blocks; cross a block boundary
    out = run_ok(capsys, ["sample", "--measure", text, "--n", str(n), "--seed", "11"])
    lines = out.rstrip("\n").split("\n")
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert table.shape == (n, 7 if spec.kind == "haar" else 6)
    b = sample_b(spec, RngStream(11), n)
    np.testing.assert_array_equal(table[:, :4], b)
    np.testing.assert_array_equal(table[:, 4], q_values(b))
    if spec.kind == "haar":
        j = jarlskog_values(sample_haar_unitary(RngStream(11), n))
        np.testing.assert_array_equal(table[:, 6], j)
        np.testing.assert_array_equal(table[:, 5], j * j)
    else:
        np.testing.assert_array_equal(table[:, 5], q_values(b) / 4.0)


def test_sample_seed_zero_uses_entropy(capsys):
    code = main(["sample", "--measure", "flat-b3", "--n", "2", "--seed", "0"])
    cap1 = capsys.readouterr()
    assert code == 0
    assert cap1.err.startswith("seed: ")
    drawn = int(cap1.err.split(":")[1])
    assert drawn > 0

    code = main(["sample", "--measure", "flat-b3", "--n", "2", "--seed", "0"])
    cap2 = capsys.readouterr()
    assert code == 0
    assert cap2.out != cap1.out  # fresh entropy each time

    replay = run_ok(capsys, ["sample", "--measure", "flat-b3", "--n", "2", "--seed", str(drawn)])
    assert replay == cap1.out


def test_sample_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", "mu:0.4", "--n", "10"])
    assert exc.value.code == 2
    assert "--measure" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", "mu:abc", "--n", "10"])
    assert exc.value.code == 2

    for k in ("inf", "nan"):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--measure", f"mu:{k}", "--n", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--measure" in captured.err and "finite k" in captured.err

    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", "haar", "--n", "0"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["sample", "--measure", "haar", "--n", "5", "--seed", "-3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# analytic


def test_analytic_table_json(capsys):
    table = json.loads(run_ok(capsys, ["analytic", "--table"]))
    # the per-k rows are the ClosedFormTable fields but k, in declaration order
    assert list(table)[:12] == [f"{name}[k={k}]" for k in ("1", "1.5", "2")
                                for name in ("h_k", "volume", "mean_entropy", "mean_j2")]
    assert table["h_k[k=1.5]"] == pytest.approx(math.pi**2 / 105, rel=1e-14)
    assert table["volume_ratio"] == pytest.approx(8 * math.pi**2 / 105, rel=1e-14)
    assert table["gram_determinant"] == 81
    assert table["b3_volume_embedded"] == 1.125
    assert table["b3_mean_entropy"] == pytest.approx(53 / 60, rel=1e-13)
    assert table["mean_j2[k=1]"] == pytest.approx(1 / 720, rel=1e-13)


def test_analytic_table_csv(capsys):
    out = run_ok(capsys, ["analytic", "--table", "--format", "csv"])
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "name,value"
    assert "gram_determinant,81" in lines
    ratio_line = next(ln for ln in lines if ln.startswith("volume_ratio,"))
    assert float(ratio_line.split(",")[1]) == volume_ratio()


def test_analytic_without_table_is_usage_error(capsys):
    assert main(["analytic"]) == 2
    assert "--table" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dist


def test_dist_cdf_grid(capsys):
    out = run_ok(capsys, ["dist", "--measure", "mu:1.5", "--what", "cdf"])
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "y,value,error_bound,method"
    ys = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    values = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert J_OBSERVED in ys  # the observed threshold is always on the grid
    assert ys[0] == 1e-6 and ys[-1] == ABSJ_MAX
    assert (np.diff(values) >= 0).all()
    assert values[-1] == 1.0
    assert len(ys) == 64


def test_dist_pdf_and_haar_alias(capsys):
    out = run_ok(capsys, ["dist", "--measure", "haar", "--what", "pdf", "--points", "12"])
    lines = out.rstrip("\n").split("\n")
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == pytest.approx(8 * math.pi, rel=1e-3)  # density at tiny y
    assert float(last[0]) == ABSJ_MAX and float(last[1]) == 0.0
    assert {ln.split(",")[3].split("-")[0] for ln in lines[1:]} == {"series"}


def test_dist_json_format(capsys):
    rows = json.loads(
        run_ok(capsys, ["dist", "--measure", "mu:2", "--what", "cdf", "--points", "6", "--format", "json"])
    )
    assert all(set(r) == {"y", "value", "error_bound", "method"} for r in rows)
    assert rows[-1]["value"] == 1.0


def test_dist_rejects_flat(capsys):
    for measure in ("flat-b3", "mu:inf"):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--measure", measure, "--what", "cdf"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--measure" in captured.err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_volume_ratio(capsys):
    out = run_ok(
        capsys,
        ["estimate", "--target", "volume-ratio", "--measure", "flat-b3", "--n", "20000"],
    )
    result = json.loads(out)
    assert result["name"] == "flat_b3:P[Q>=0]"
    assert result["reference"] == volume_ratio()
    assert abs(result["z_score"]) < 4
    assert result["n_samples"] == 20000
    assert result["seed"] == DEFAULT_SEED


def test_estimate_is_byte_identical_across_threads(capsys):
    argv = ["estimate", "--target", "entropy", "--measure", "mu:1.5", "--n", "5000"]
    base = run_ok(capsys, argv + ["--threads", "1"])
    fanned = run_ok(capsys, argv + ["--threads", "4"])
    again = run_ok(capsys, argv + ["--threads", "4"])
    assert base == fanned == again
    assert json.loads(base)["reference"] == pytest.approx(286 / 315, rel=1e-12)


def test_estimate_j2_and_prob_jobs(capsys):
    result = json.loads(
        run_ok(capsys, ["estimate", "--target", "j2", "--measure", "haar", "--n", "20000"])
    )
    assert result["reference"] == pytest.approx(1 / 720, rel=1e-12)
    assert abs(result["z_score"]) < 4

    y = 0.01
    result = json.loads(
        run_ok(
            capsys,
            ["estimate", "--target", "prob-jobs", "--measure", "haar", "--n", "20000",
             "--y", str(y)],
        )
    )
    assert result["reference"] == pytest.approx(cdf_absj(1.0, y).value, rel=1e-12)
    assert abs(result["z_score"]) < 4


def test_estimate_csv_format_with_absent_reference(capsys):
    out = run_ok(
        capsys,
        ["estimate", "--target", "j2", "--measure", "flat-b3", "--n", "200",
         "--format", "csv"],
    )
    header, row = out.rstrip("\n").split("\n")
    assert header == "name,estimate,std_error,n_samples,seed,reference,z_score"
    fields = row.split(",")
    assert fields[0] == "flat_b3:J2"
    assert fields[5] == "" and fields[6] == ""  # no closed form on file


def test_estimate_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--target", "volume-ratio", "--measure", "flat-b3", "--n", "99"])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--target", "nope", "--measure", "haar"])
    assert exc.value.code == 2

    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--target", "j2", "--measure", "mu:inf", "--n", "100"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--measure" in captured.err

    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--target", "prob-jobs", "--measure", "haar", "--y", "0.2"])
    assert exc.value.code == 2
    assert "--y" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzzing dist and estimate


_TEXT = st.text(max_size=8)
_K_VALUES = st.floats(min_value=0.5, exclude_min=True, allow_infinity=False).map(repr)
_K_JUNK = st.one_of(st.sampled_from(["nan", "inf", "-inf", "0.5", "1e400", "0"]),
                    st.floats().map(repr), _TEXT)
_MEASURE_ARG = st.one_of(st.sampled_from(["haar", "flat-b3"]), _K_VALUES.map("mu:{}".format))
_ARGS = {  # flag: (its values, mostly valid; values that are mostly not)
    "--measure": (_MEASURE_ARG, st.one_of(_K_JUNK.map("mu:{}".format), _TEXT)),
    "--format": (st.sampled_from(["csv", "json"]), _TEXT),
    "--what": (st.sampled_from(["pdf", "cdf"]), _TEXT),
    "--points": (st.integers(2, 200).map(str), st.one_of(st.integers(-5, 1).map(str), _TEXT)),
    "--target": (st.sampled_from(["volume-ratio", "entropy", "j2", "prob-jobs"]), _TEXT),
    "--y": (st.floats(0.0, ABSJ_MAX, exclude_min=True).map(repr),
            st.one_of(st.floats().map(repr), _TEXT)),
    "--seed": (st.integers(0, 2**70).map(str), st.one_of(st.integers(-3, -1).map(str), _TEXT)),
    "--threads": (st.integers(1, 4).map(str), st.one_of(st.integers(-1, 0).map(str), _TEXT)),
    "--n": (st.integers(100, 10**4).map(str), st.one_of(st.integers(-5, 99).map(str), _TEXT)),
}
_COMMAND_ARGS = {
    "dist": ("--measure", "--what", "--points", "--format"),
    "estimate": ("--target", "--measure", "--n", "--seed", "--threads", "--y", "--format"),
}


@st.composite
def dist_and_estimate_argv(draw):
    """An argv for dist or estimate with drawn values and at most one defect.

    The defect drops a flag or gives it a value from its second strategy.
    --n stays at most 1e4 and --points at most 200, so every example is small.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_ARGS)))
    defect = draw(st.sampled_from((None,) + _COMMAND_ARGS[command]))
    argv = [command]
    for flag in _COMMAND_ARGS[command]:
        values, junk = _ARGS[flag]
        if flag == defect:
            if draw(st.booleans()):
                argv += [flag, draw(junk)]
        elif flag in ("--measure", "--what", "--target", "--format") or draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_only_finite_numbers(argv, out):
    """Output of a successful dist or estimate run holds no NaN or infinity."""
    default = "csv" if argv[0] == "dist" else "json"
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else default
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
        return
    for line in out.splitlines():
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a header, a method tag or an absent reference
            assert math.isfinite(value), (argv, line)


@settings(max_examples=200, deadline=None)
@given(dist_and_estimate_argv())
def test_dist_and_estimate_exit_cleanly(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2), (argv, code)
    if code != 0:
        assert out == "", argv
    else:
        assert_only_finite_numbers(argv, out)
    assert "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("argv", [
    # the mu_k closed forms overflow: NaN reference
    ["estimate", "--target", "prob-jobs", "--measure", "mu:1e308", "--n", "1000", "--seed", "3"],
    ["estimate", "--target", "j2", "--measure", "mu:1e308", "--n", "1000", "--format", "csv"],
    # every sample under the threshold, zero spread: infinite z-score
    # (with --seed 0 the seed line is not printed either: stderr stays one line)
    ["estimate", "--target", "prob-jobs", "--measure", "mu:0.5000000001", "--n", "1000",
     "--seed", "0"],
    ["dist", "--measure", "mu:1e6", "--what", "cdf"],
    ["dist", "--measure", "mu:1e306", "--what", "pdf", "--format", "json"],
])
def test_non_finite_results_are_errors(argv):
    code, out, err = run_captured(argv)
    assert (code, out) == (1, ""), argv
    assert len(err.strip().splitlines()) == 1 and "not a finite number" in err, err


# ---------------------------------------------------------------------------
# plumbing


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["analytic", "--table", "--format", "csv"]
    stdout_text = run_ok(capsys, argv)
    target = tmp_path / "table.csv"
    assert main(argv + ["--output", str(target)]) == 0
    assert target.read_bytes() == stdout_text.encode()


def test_missing_subcommand_and_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--input", "x.json", "--frobnicate"])
    assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts(text):
    """The ``[project.scripts]`` table of a pyproject.toml text.

    Read by line with the stdlib, since Python 3.10 has no ``tomllib``.
    """
    table = re.search(r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    body = table[1] if table else ""
    return dict(re.findall(r'^[ \t]*"?([\w.-]+)"?[ \t]*=[ \t]*"([^"]*)"', body, re.M))


def console_script_argv():
    """The argv prefix that runs the ``unilab`` console script.

    The installed script when one is on PATH; otherwise the declared
    ``[project.scripts]`` target, called the way the setuptools wrapper
    calls it, so its return value becomes the exit status.
    """
    script = shutil.which("unilab")
    if script is not None:
        return [script]
    target = declared_scripts(PYPROJECT.read_text())["unilab"]
    assert target == "unilab.cli:main"
    module, attr = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_python_dash_m_unilab_is_the_cli():
    src = str(Path(unilab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    # a run that succeeds, and one whose exit code 2 main() returns rather than raises
    for argv, code in ((["sample", "--measure", "mu:2", "--n", "3", "--seed", "5"], 0),
                       (["analytic"], 2)):
        runs = [subprocess.run([sys.executable, "-m", module] + argv, capture_output=True,
                               text=True, timeout=120, env=env)
                for module in ("unilab", "unilab.cli")]
        assert runs[0].returncode == runs[1].returncode == code, runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        assert (runs[0].stdout == "") == (code != 0)


def test_console_script_entry_point(tmp_path):
    argv = console_script_argv()
    # the child imports the same unilab as this test, wherever it lives
    src = str(Path(unilab.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        argv + ["sample", "--measure", "mu:2", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("b1,b2,b3,b4,Q,J2\n")
    proc_err = subprocess.run(
        argv + ["sample", "--measure", "mu:0.2", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc_err.returncode == 2
