"""Command-line front end.

Subcommands: check, reconstruct, sample, analytic, dist, estimate.  Exit
code 0 on success, 1 on a domain error (for example reconstructing a
matrix with Q < 0), 2 on a usage error.

Everything is deterministic for a given argv: the default seed is the
fixed constant 75193, and --seed 0 opts into fresh OS entropy (the chosen
seed is then reported on stderr).  Numeric columns are printed with 17
significant digits, which round-trips float64 exactly.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .analytic import (
    ABSJ_MAX,
    b3_q_integrals,
    cdf_absj,
    closed_form_table,
    density_absj,
    mean_generalized_entropy_b3,
    volume_ratio,
)
from .core import (
    MAX_BALL_RADIUS,
    BistochasticMatrix,
    MatrixClass,
    birkhoff_b_volume,
    birkhoff_volume_triangulation,
    chain_link_feasible,
    classify,
    embedding_gram_determinant,
    embedding_jacobian,
    q_values,
)
from .estimators import Statistic, estimate_mean
from .sampling import (
    DEFAULT_SEED,
    MeasureSpec,
    RngStream,
    pushforward_b,
    sample_b,
    sample_haar_unitary,
)
from .unitary import NotUnistochasticError, jarlskog, jarlskog_values, reconstruct

#: |J| measured in the quark sector, the reference threshold for prob-jobs
J_OBSERVED = 3.08e-5


class UsageError(Exception):
    """Bad input discovered after argument parsing; exits with code 2."""


def _g(x) -> str:
    return f"{float(x):.17g}"


def _require_finite(what: str, value) -> None:
    """Refuse to print NaN or an infinity: neither is a result, nor valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} is {value}, not a finite number")


# ---------------------------------------------------------------------------
# flag parsing helpers (argparse type= callables; errors name the flag)


def _parse_measure(text: str) -> MeasureSpec:
    if text == "haar":
        return MeasureSpec.haar()
    if text in ("flat-b3", "flat_b3", "flat"):
        return MeasureSpec.flat_b3()
    if text.startswith("mu:"):
        try:
            k = float(text[3:])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot read the k in {text!r}; the form is mu:K"
            ) from None
        try:
            return MeasureSpec.mu(k)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown measure {text!r}; use haar, mu:K, or flat-b3")


def _parse_dist_measure(text: str) -> MeasureSpec:
    spec = _parse_measure(text)
    if spec.kind == "flat":
        raise argparse.ArgumentTypeError(
            "the |J| distribution needs a mu:K (or haar) measure, not flat-b3"
        )
    return spec


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative (0 asks for entropy)")
    return value


def _threshold_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 < value <= ABSJ_MAX:
        raise argparse.ArgumentTypeError(
            f"threshold must lie in (0, {ABSJ_MAX:.17g}], got {text}"
        )
    return value


# ---------------------------------------------------------------------------
# matrix file input


def _load_matrix(path: str) -> BistochasticMatrix:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"--input: cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"--input: {path} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or ("rows" in payload) == ("b" in payload):
        raise UsageError(
            '--input: the file must hold exactly one of {"rows": 3x3} or {"b": [b1,b2,b3,b4]}'
        )
    try:
        if "rows" in payload:
            return BistochasticMatrix.from_entries(payload["rows"])
        return BistochasticMatrix.from_b(payload["b"])
    except (TypeError, ValueError, OverflowError) as exc:
        # well-formed file, but not a bistochastic matrix: a domain error
        raise ValueError(f"--input: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the full output text)


def _cmd_check(args) -> str:
    matrix = _load_matrix(args.input)
    verdict = classify(matrix)
    if verdict.classification is MatrixClass.NOT_UNISTOCHASTIC:
        j_squared = None
    elif verdict.classification is MatrixClass.ORTHOSTOCHASTIC:
        j_squared = 0.0
    else:
        j_squared = verdict.q_value / 4.0
    report = {
        "classification": verdict.classification.value,
        "q": verdict.q_value,
        "j_squared": j_squared,
        "link_lengths": list(verdict.link_lengths),
        "chain_closes": chain_link_feasible(verdict.link_lengths),
    }
    return json.dumps(report, indent=2) + "\n"


def _cmd_reconstruct(args) -> str:
    matrix = _load_matrix(args.input)
    result = reconstruct(matrix)  # NotUnistochasticError propagates -> exit 1
    u = result.unitary.entries
    report = {
        "unitary": {"re": u.real.tolist(), "im": u.imag.tolist()},
        "phases": {
            "phi22": result.phi22,
            "phi32": result.phi32,
            "phi23": result.phi23,
            "phi33": result.phi33,
        },
        "degenerate": result.degenerate,
        "defect": result.unitary.defect,
        "jarlskog": jarlskog(result.unitary),
    }
    return json.dumps(report, indent=2) + "\n"


#: rows formatted per tolist() call; one call for the whole table holds
#: every row as Python floats at once
_ROW_BLOCK = 4096


def _cmd_sample(args) -> str:
    spec = args.measure
    root = RngStream(args.seed)
    if args.seed == 0:
        print(f"seed: {root.seed}", file=sys.stderr)
    u = sample_haar_unitary(root, args.n) if spec.kind == "haar" else None
    b = sample_b(spec, root, args.n) if u is None else pushforward_b(u)
    q = q_values(b)
    if u is None:
        header, extra = "b1,b2,b3,b4,Q,J2", [q / 4.0]
    else:
        j = jarlskog_values(u)
        header, extra = "b1,b2,b3,b4,Q,J2,J", [j * j, j]
    table = np.column_stack([b, q, *extra])
    row = ",".join(["%.17g"] * table.shape[1])
    chunks = [header]
    for lo in range(0, len(table), _ROW_BLOCK):
        chunks.append("\n".join([row % tuple(r) for r in table[lo:lo + _ROW_BLOCK].tolist()]))
    chunks.append("")  # the final newline, without copying the joined text again
    return "\n".join(chunks)


def _analytic_entries() -> list:
    entries = []
    for k in (1.0, 1.5, 2.0):
        row = closed_form_table(k)
        entries.extend((f"{f.name}[k={k:g}]", getattr(row, f.name))
                       for f in dataclasses.fields(row) if f.name != "k")
    mean_q, mean_q2, sigma_q = b3_q_integrals()
    entries.extend(
        [
            ("volume_ratio", volume_ratio()),
            ("b3_volume_b", float(birkhoff_b_volume())),
            ("b3_volume_embedded", birkhoff_volume_triangulation()),
            ("gram_determinant", float(embedding_gram_determinant())),
            ("gram_jacobian", float(embedding_jacobian())),
            ("b3_mean_q", mean_q),
            ("b3_mean_q_squared", mean_q2),
            ("b3_sigma_q", sigma_q),
            ("b3_mean_entropy", mean_generalized_entropy_b3(1.0)),
            ("max_ball_radius", MAX_BALL_RADIUS),
            ("absj_max", ABSJ_MAX),
        ]
    )
    return entries


def _cmd_analytic(args) -> str:
    if not args.table:
        raise UsageError("analytic: nothing to do; pass --table")
    entries = _analytic_entries()
    if args.format == "csv":
        lines = ["name,value"] + [f"{name},{_g(value)}" for name, value in entries]
        return "\n".join(lines) + "\n"
    return json.dumps(dict(entries), indent=2) + "\n"


def _cmd_dist(args) -> str:
    spec = args.measure
    k = 1.0 if spec.kind == "haar" else spec.k
    grid = np.geomspace(1e-6, ABSJ_MAX, args.points - 1)
    grid = np.unique(np.append(grid, J_OBSERVED))
    evaluate = cdf_absj if args.what == "cdf" else density_absj
    rows = []
    for y in grid:
        ev = evaluate(k, float(y))
        _require_finite(f"the {args.what} at y = {y:.17g}", ev.value)
        _require_finite(f"the error bound at y = {y:.17g}", ev.error_bound)
        rows.append((float(y), ev.value, ev.error_bound, ev.method))
    if args.format == "json":
        payload = [
            {"y": y, "value": v, "error_bound": e, "method": m} for y, v, e, m in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = ["y,value,error_bound,method"]
    lines += [f"{_g(y)},{_g(v)},{_g(e)},{m}" for y, v, e, m in rows]
    return "\n".join(lines) + "\n"


_TARGETS = ("volume-ratio", "entropy", "j2", "prob-jobs")


def _cmd_estimate(args) -> str:
    if args.target == "volume-ratio":
        stat = Statistic.indicator_q_nonneg()
    elif args.target == "entropy":
        stat = Statistic.entropy()
    elif args.target == "j2":
        stat = Statistic.j2()
    else:
        stat = Statistic.indicator_absj_leq(args.y)
    result = estimate_mean(args.measure, stat, args.n, seed=args.seed, threads=args.threads)
    d = result.as_dict()
    for name, value in d.items():
        _require_finite(f"the {name}", value)
    if args.seed == 0:
        print(f"seed: {result.seed}", file=sys.stderr)
    if args.format == "csv":
        cells = ["" if v is None else _g(v) if isinstance(v, float) else str(v)
                 for v in d.values()]
        return ",".join(d) + "\n" + ",".join(cells) + "\n"
    return result.to_json() + "\n"


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unilab",
        description="Decide, reconstruct, sample, and tabulate 3x3 unistochastic structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a bistochastic matrix by the sign of Q")
    p.add_argument("--input", required=True, help="JSON file with {'rows': 3x3} or {'b': [4]}")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("reconstruct", help="recover a unitary with |U_ij|^2 = B_ij")
    p.add_argument("--input", required=True, help="JSON file with {'rows': 3x3} or {'b': [4]}")
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("sample", help="draw b-vectors from a measure, as CSV")
    p.add_argument("--measure", required=True, type=_parse_measure, help="haar, mu:K, or flat-b3")
    p.add_argument("--n", required=True, type=_int_at_least(1), help="number of samples")
    p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED}; 0 draws fresh entropy)")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("analytic", help="print every closed-form constant")
    p.add_argument("--table", action="store_true", help="emit the full table")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_analytic)

    p = sub.add_parser("dist", help="tabulate the |J| density or CDF on a log grid")
    p.add_argument("--measure", required=True, type=_parse_dist_measure,
                   help="mu:K or haar (haar means k = 1)")
    p.add_argument("--what", choices=("pdf", "cdf"), required=True)
    p.add_argument("--points", type=_int_at_least(2), default=64,
                   help="grid size (default 64); y = 3.08e-05 is always included")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("estimate", help="Monte Carlo estimate against the closed form")
    p.add_argument("--target", choices=_TARGETS, required=True)
    p.add_argument("--measure", required=True, type=_parse_measure, help="haar, mu:K, or flat-b3")
    p.add_argument("--n", type=_int_at_least(100), default=100_000,
                   help="sample count (default 100000)")
    p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED}; 0 draws fresh entropy)")
    p.add_argument("--threads", type=_int_at_least(1), default=None,
                   help="worker cap (default: the CPU count); never changes the result")
    p.add_argument("--y", type=_threshold_value, default=J_OBSERVED,
                   help=f"|J| threshold for prob-jobs (default {J_OBSERVED:g})")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_estimate)

    for sp in sub.choices.values():
        sp.add_argument("--output", default=None, help="write to this file instead of stdout")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NotUnistochasticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output is not None:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
