"""The four workloads, each a closed loop with one caller.

mc-estimate   back-to-back estimate_mean calls, the mix at threads=1 and
              at threads=nproc (in process)
cli-oneshot   one fresh ``python -m unilab.cli`` per request
sample-export ``unilab sample --output FILE`` at 200k rows per measure,
              through ``unilab.cli.main(argv)`` (in process)
decide-scan   classify, then reconstruct / jarlskog / cdf_absj, on each of
              20k generated matrices (in process)

Inputs come from the workload seed.  decide-scan and cli-oneshot build
their matrices with plain numpy, never with the unilab samplers, so a
sampler change cannot alter their inputs.  In a traced run cli-oneshot
also calls ``unilab.cli.main(argv)`` in process instead of spawning.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
from pathlib import Path

import numpy as np

import unilab
from unilab import cli
from harness import Outcome, Request, child_env, mix_rate, spawn, tail
from warmup import J_CKM, mc_mix

NPROC = len(os.sched_getaffinity(0))


def _seed(rng) -> int:
    # unilab reads seed 0 as "draw OS entropy", so library seeds start at 1
    return int(rng.integers(1, 2**62))


def _q(b):
    """Q(b) in plain numpy, independent of the library's kernel."""
    b1, b2, b3, b4 = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return 4.0 * b1 * b2 * b3 * b4 - (b1 + b2 + b3 + b4 - 1.0 - b1 * b4 - b2 * b3) ** 2


def _rows(b):
    """The 3x3 bistochastic matrices of b vectors, shape (n, 4) -> (n, 3, 3)."""
    b1, b2, b3, b4 = b.T
    nine = (b1, b2, 1 - b1 - b2, b3, b4, 1 - b3 - b4, 1 - b1 - b3, 1 - b2 - b4,
            b1 + b2 + b3 + b4 - 1)
    return np.stack(nine, axis=1).reshape(-1, 3, 3)


def polytope_points(rng, n: int, margin: float = 1e-9):
    """n b vectors uniform on the Birkhoff polytope, away from Q = 0 and its faces."""
    out = []
    have = 0
    while have < n:
        cand = rng.random((16 * n, 4))
        keep = cand[(_rows(cand).reshape(-1, 9).min(axis=1) > margin)
                    & (np.abs(_q(cand)) > margin)]
        out.append(keep)
        have += len(keep)
    return np.concatenate(out)[:n]


def orthostochastic(rng, n: int):
    """|O|^2 for n real orthogonal O, from QR of Gaussian matrices."""
    o, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    return o * o


def zero_entry(rng, n: int):
    """|R12(a) R23(c)|^2: orthostochastic with a zero entry (degenerate branch)."""
    a, c = rng.uniform(0.1, 1.4, (2, n))
    ca, sa, cc, sc = np.cos(a), np.sin(a), np.cos(c), np.sin(c)
    z = np.zeros(n)
    o = np.stack([ca, -sa * cc, sa * sc, sa, ca * cc, -ca * sc, z, sc, cc], axis=1)
    return (o * o).reshape(-1, 3, 3)


def _problems(*pairs) -> list:
    """One failure message per operation: the joined reasons, if any."""
    bad = [what for ok, what in pairs if not ok]
    return ["; ".join(bad)] if bad else []


# ---------------------------------------------------------------------------
# mc-estimate


class McEstimate:
    """Samples per second of estimate_mean on four (measure, statistic) pairs.

    Each call draws millions of samples, so every one of the 64 shards
    works on arrays larger than L2.  Each pair runs at threads=1 and then at
    threads=nproc with the same seed; the two results must be bit-identical.
    Only the threads=nproc calls, the default a caller gets, are rated: they
    give ops_per_s and the latency; the threads=1 pass is the per-core
    baseline in ops_per_cpu_s and mc_samples_per_s_1t.  Times are scaled
    by a calibration kernel on as many threads as the call (see harness).
    """

    name = "mc-estimate"
    in_process = True

    def __init__(self, seed: int, workdir: Path, spawn_cli: bool):
        self.seed = seed

    def cycle(self, c: int, mini: bool = False) -> list:
        rng = np.random.default_rng([self.seed, c])
        requests = []
        for label, measure, stat, n in mc_mix():
            n = n // 16 if mini else n
            seed = _seed(rng)
            first: list = []
            for threads in (1, NPROC):
                requests.append(Request(
                    kind=f"{label}:t1" if threads == 1 else f"{label}:tN",
                    items=n,
                    run=lambda m=measure, s=stat, n=n, seed=seed, t=threads:
                        unilab.estimate_mean(m, s, n, seed=seed, threads=t),
                    check=lambda r, n=n, seed=seed, first=first: self._check(r, n, seed, first),
                    rated=threads == NPROC,
                    calibrate="numpy" if threads == 1 else "numpy-nproc",
                ))
        return requests

    @staticmethod
    def _check(r, n: int, seed: int, first: list) -> list:
        first.append(r)
        return _problems(
            (r.n_samples == n, f"n_samples {r.n_samples} != {n}"),
            (r.seed == seed, f"seed {r.seed} != {seed}"),
            (r.reference is not None and r.z_score is not None and abs(r.z_score) <= 4.0,
             f"|z| > 4 against the closed form: {r}"),
            (r == first[0], f"threads=1 and threads={NPROC} differ: {first[0]} vs {r}"),
        )

    def report(self, records) -> dict:
        return {
            "mc_samples_per_s": mix_rate([r for r in records if r.rated], lambda r: r.wall_s),
            "mc_samples_per_s_1t": mix_rate(
                [r for r in records if r.kind.endswith(":t1")], lambda r: r.wall_s),
        }


# ---------------------------------------------------------------------------
# decide-scan


class DecideScan:
    """The scalar per-matrix path: classify, then reconstruct, J and its CDF.

    The pool mixes generic polytope points (about a quarter of them not
    unistochastic) with orthostochastic |O|^2 matrices and |O|^2 matrices
    with a zero entry; the last two take reconstruct's degenerate branch.
    """

    name = "decide-scan"
    in_process = True
    POOL = 20_000
    CHUNK = 1_000

    def __init__(self, seed: int, workdir: Path, spawn_cli: bool):
        rng = np.random.default_rng([seed, 0xDEC1DE])
        n_special = self.POOL // 10
        mats = np.concatenate([
            _rows(polytope_points(rng, self.POOL - 2 * n_special)),
            orthostochastic(rng, n_special),
            zero_entry(rng, n_special),
        ])
        self.mats = mats[rng.permutation(len(mats))]
        b = self.mats[:, :2, :2].reshape(-1, 4)
        self.q = _q(b)

    def cycle(self, c: int, mini: bool = False) -> list:
        starts = range(0, self.CHUNK if mini else self.POOL, self.CHUNK)
        return [Request(kind="chunk", items=self.CHUNK, ops=self.CHUNK,
                        run=lambda lo=lo: self._scan(lo),
                        check=lambda out, lo=lo: self._check(lo, out),
                        calibrate="interpreter")
                for lo in starts]

    def _scan(self, lo: int) -> list:
        out = []
        for m in self.mats[lo:lo + self.CHUNK]:
            verdict = unilab.classify(m)
            if verdict.classification is unilab.MatrixClass.NOT_UNISTOCHASTIC:
                try:
                    unilab.reconstruct(m)
                except unilab.NotUnistochasticError:
                    out.append((verdict.classification, None))
                else:
                    out.append((verdict.classification, "reconstructed"))
                continue
            res = unilab.reconstruct(m)
            j = unilab.jarlskog(res.unitary)
            out.append((verdict.classification,
                        (res.unitary.entries, j, unilab.cdf_absj(1.0, abs(j)).value)))
        return out

    def _check(self, lo: int, out: list) -> list:
        C = unilab.MatrixClass
        failures = []
        for i, (cls, res) in enumerate(out):
            q = self.q[lo + i]
            want = C.UNISTOCHASTIC if q > 1e-12 else C.NOT_UNISTOCHASTIC if q < -1e-12 \
                else C.ORTHOSTOCHASTIC
            if cls is not want:
                failures.append(f"matrix {lo + i}: {cls} but Q = {q:.3e}")
            elif cls is C.NOT_UNISTOCHASTIC:
                if res is not None:
                    failures.append(f"matrix {lo + i}: Q < 0 yet reconstruct returned")
            else:
                u, j, p = res
                defect = np.abs(u.conj().T @ u - np.eye(3)).max()
                problems = _problems(
                    (np.abs(np.abs(u) ** 2 - self.mats[lo + i]).max() <= 1e-10, "|U|^2 != B"),
                    (defect <= 1e-10, f"unitarity defect {defect:.2e}"),
                    (abs(j * j - q / 4.0) <= 1e-12, f"J^2 = {j * j:.3e} but Q/4 = {q / 4:.3e}"),
                    (0.0 <= p <= 1.0, f"CDF {p} outside [0, 1]"),
                )
                failures += [f"matrix {lo + i}: {msg}" for msg in problems]
        if len(out) != self.CHUNK:
            failures.append(f"{len(out)} verdicts for {self.CHUNK} matrices")
        return failures

    def report(self, records) -> dict:
        return {"decide_matrices_per_s": mix_rate(records, lambda r: r.wall_s)}


# ---------------------------------------------------------------------------
# the CLI workloads


class _CliBase:
    """Runs CLI requests in a fresh interpreter, or through main() in a traced run."""

    in_process = False
    calibrated = None

    def __init__(self, seed: int, workdir: Path, spawn_cli: bool):
        self.seed = seed
        self.workdir = workdir
        self.spawn_cli = spawn_cli
        self.env = child_env(Path(unilab.__file__).resolve().parent.parent)

    def _call(self, argv: list) -> Outcome:
        if self.spawn_cli:
            return spawn(["-m", "unilab.cli", *argv], self.env, str(self.workdir))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return Outcome(code, out.getvalue(), err.getvalue())

    def _request(self, kind: str, case: str, argv: list, check, items: int = 1) -> Request:
        return Request(kind=kind, items=items, run=lambda: self._call(argv),
                       calibrate=self.calibrated,
                       check=lambda o: [f"{case}: {msg}" for msg in check(o)])


def check_sample_csv(text: str, kind: str, n: int) -> list:
    """Header, row count, feasibility, Q, J2 and the mean of Q of a sample CSV."""
    lines = text.split("\n", 1)
    haar = kind == "haar"
    header = "b1,b2,b3,b4,Q,J2" + (",J" if haar else "")
    if lines[0] != header:
        return [f"header {lines[0]!r} != {header!r}"]
    data = np.loadtxt(io.StringIO(lines[1]), delimiter=",", ndmin=2)
    if data.shape != (n, 7 if haar else 6):
        return [f"table shape {data.shape}, expected {n} rows"]
    b, q, j2 = data[:, :4], data[:, 4], data[:, 5]
    if kind == "haar":
        k_ref = unilab.q_moments(1.0, 1)
    elif kind == "flat":
        k_ref = unilab.b3_q_integrals()[0]
    else:
        k_ref = unilab.q_moments(float(kind[3:]), 1)
    se = q.std(ddof=1) / np.sqrt(n)
    return _problems(
        (_rows(b).reshape(-1, 9).min() >= -1e-12, "a b vector leaves the polytope"),
        (np.abs(q - unilab.q_values(b)).max() <= 1e-15, "Q column != q_values(b)"),
        (np.abs(j2 - q / 4.0).max() <= (1e-12 if haar else 1e-15), "J2 != Q/4"),
        (not haar or np.abs(j2 - data[:, 6] ** 2).max() <= 1e-12, "J2 != J*J"),
        (abs(q.mean() - k_ref) <= 4.0 * se, f"mean Q {q.mean():.6g} not within 4 SE of {k_ref:.6g}"),
    )


def _matrix(payload: dict):
    if "rows" in payload:
        return unilab.BistochasticMatrix.from_entries(payload["rows"])
    return unilab.BistochasticMatrix.from_b(payload["b"])


class CliOneshot(_CliBase):
    """The interactive user: interpreter start and import dominate each request."""

    name = "cli-oneshot"

    @property
    def calibrated(self):
        """Spawned requests are scaled by the process kernel, in-process ones not."""
        return "process" if self.spawn_cli else None

    def cycle(self, c: int, mini: bool = False) -> list:
        rng = np.random.default_rng([self.seed, c, 0xC11])
        d = self.workdir / f"cli{c}"
        d.mkdir(exist_ok=True)
        pts = polytope_points(rng, 64)
        q = _q(pts)
        inputs = {
            "uni": {"b": pts[q > 1e-3][0].tolist()},
            "non": {"rows": _rows(pts[q < -1e-3][:1])[0].tolist()},
            "ortho": {"rows": orthostochastic(rng, 1)[0].tolist()},
        }
        paths = {}
        for key, payload in inputs.items():
            paths[key] = str(d / f"{key}.json")
            Path(paths[key]).write_text(json.dumps(payload))
        paths["bad"] = str(d / "bad.json")
        Path(paths["bad"]).write_text('{"rows": [[0.5, 0.5, 0.0], [0.5,')
        est_seed, sample_seed = _seed(rng), _seed(rng)
        C = unilab.MatrixClass
        reqs = [
            self._request("check", "unistochastic", ["check", "--input", paths["uni"]],
                          self._check_check(inputs["uni"], C.UNISTOCHASTIC)),
            self._request("check", "not unistochastic", ["check", "--input", paths["non"]],
                          self._check_check(inputs["non"], C.NOT_UNISTOCHASTIC)),
            self._request("check", "orthostochastic", ["check", "--input", paths["ortho"]],
                          self._check_check(inputs["ortho"], C.ORTHOSTOCHASTIC)),
            self._request("reconstruct", "Q > 0", ["reconstruct", "--input", paths["uni"]],
                          self._check_reconstruct(inputs["uni"])),
            self._request("reconstruct", "Q < 0", ["reconstruct", "--input", paths["non"]],
                          self._check_exit(1)),
            self._request("reconstruct", "Q = 0", ["reconstruct", "--input", paths["ortho"]],
                          self._check_reconstruct(inputs["ortho"])),
            self._request("check", "malformed JSON", ["check", "--input", paths["bad"]],
                          self._check_exit(2)),
            self._request("analytic", "json", ["analytic", "--table"], self._check_table("json")),
            self._request("analytic", "csv", ["analytic", "--table", "--format", "csv"],
                          self._check_table("csv")),
        ]
        for k in ("1", "1.5"):
            for what in ("pdf", "cdf"):
                reqs.append(self._request(
                    "dist", f"mu:{k} {what}", ["dist", "--measure", f"mu:{k}", "--what", what],
                    self._check_dist(float(k), what)))
        reqs.append(self._request(
            "estimate", "volume-ratio",
            ["estimate", "--target", "volume-ratio", "--measure", "flat-b3", "--n", "100000",
             "--seed", str(est_seed), "--threads", str(NPROC)],
            self._check_estimate(est_seed)))
        reqs.append(self._request(
            "sample", "haar", ["sample", "--measure", "haar", "--n", "1000", "--seed", str(sample_seed)],
            self._check_sample(sample_seed)))
        return reqs

    @staticmethod
    def _ok(o: Outcome) -> list:
        return [] if o.code == 0 else [f"exit {o.code}: {o.stderr.strip()[:200]}"]

    def _check_check(self, payload, want):
        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            v = unilab.classify(_matrix(payload))
            j2 = {want.NOT_UNISTOCHASTIC: None, want.ORTHOSTOCHASTIC: 0.0}.get(
                v.classification, v.q_value / 4.0)
            expected = {
                "classification": want.value,
                "q": v.q_value,
                "j_squared": j2,
                "link_lengths": list(v.link_lengths),
                "chain_closes": unilab.chain_link_feasible(v.link_lengths),
            }
            got = json.loads(o.stdout)
            return _problems(*((got.get(key) == val, f"{key}: {got.get(key)!r} != {val!r}")
                               for key, val in expected.items()))
        return check

    def _check_reconstruct(self, payload):
        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            r = unilab.reconstruct(_matrix(payload))
            u = r.unitary.entries
            expected = {
                "unitary": {"re": u.real.tolist(), "im": u.imag.tolist()},
                "phases": {"phi22": r.phi22, "phi32": r.phi32, "phi23": r.phi23,
                           "phi33": r.phi33},
                "degenerate": r.degenerate,
                "defect": r.unitary.defect,
                "jarlskog": unilab.jarlskog(r.unitary),
            }
            got = json.loads(o.stdout)
            return _problems(*((got.get(key) == val, f"{key} differs from the library")
                               for key, val in expected.items()))
        return check

    @staticmethod
    def _check_exit(code: int):
        def check(o: Outcome) -> list:
            return _problems(
                (o.code == code, f"exit {o.code}, expected {code}"),
                (o.stdout == "", "output on stdout"),
                (len(o.stderr.strip().splitlines()) == 1, f"stderr is not one line: {o.stderr!r}"),
            )
        return check

    @functools.cached_property
    def _table(self) -> dict:
        table = {}
        for k in (1.0, 1.5, 2.0):
            t = unilab.closed_form_table(k)
            for field in ("h_k", "volume", "mean_entropy", "mean_j2"):
                table[f"{field}[k={k:g}]"] = getattr(t, field)
        mean_q, mean_q2, sigma_q = unilab.b3_q_integrals()
        table.update({
            "volume_ratio": unilab.volume_ratio(),
            "b3_volume_b": float(unilab.birkhoff_b_volume()),
            "b3_volume_embedded": unilab.birkhoff_volume_triangulation(),
            "b3_mean_q": mean_q,
            "b3_mean_q_squared": mean_q2,
            "b3_sigma_q": sigma_q,
            "b3_mean_entropy": unilab.mean_generalized_entropy_b3(1.0),
            "max_ball_radius": unilab.MAX_BALL_RADIUS,
            "absj_max": unilab.ABSJ_MAX,
        })
        return table

    def _check_table(self, fmt: str):
        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            if fmt == "json":
                got = json.loads(o.stdout)
            else:
                lines = o.stdout.strip().split("\n")
                if lines[0] != "name,value":
                    return [f"csv header {lines[0]!r}"]
                got = {name: float(v) for name, v in (ln.split(",") for ln in lines[1:])}
            return _problems(*((got.get(key) == val, f"{key}: {got.get(key)!r} != {val!r}")
                               for key, val in self._table.items()))
        return check

    def _check_dist(self, k: float, what: str):
        evaluate = unilab.cdf_absj if what == "cdf" else unilab.density_absj

        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            lines = o.stdout.strip().split("\n")
            if lines[0] != "y,value,error_bound,method" or len(lines) != 65:
                return [f"{len(lines) - 1} rows under header {lines[0]!r}"]
            bad = []
            for line in lines[1:]:
                y, value, bound, method = line.split(",")
                ev = evaluate(k, float(y))
                if (float(value), float(bound), method) != (ev.value, ev.error_bound, ev.method):
                    bad.append(f"y={y}")
            ys = [float(ln.split(",")[0]) for ln in lines[1:]]
            return _problems((not bad, f"rows differ from the library at {bad[:3]}"),
                             (J_CKM in ys, "grid misses 3.08e-05"))
        return check

    def _check_estimate(self, seed: int):
        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            want = unilab.estimate_mean(unilab.FLAT_B3, unilab.Statistic.indicator_q_nonneg(),
                                        100_000, seed=seed, threads=1).as_dict()
            got = json.loads(o.stdout)
            return _problems((got == want, f"{got} != library {want}"))
        return check

    def _check_sample(self, seed: int):
        def check(o: Outcome) -> list:
            if o.code != 0:
                return self._ok(o)
            problems = check_sample_csv(o.stdout, "haar", 1000)
            if problems:
                return problems
            data = np.loadtxt(io.StringIO(o.stdout), delimiter=",", skiprows=1)
            b = unilab.sample_b(unilab.HAAR, unilab.RngStream(seed), 1000)
            j = unilab.jarlskog_values(unilab.sample_haar_unitary(unilab.RngStream(seed), 1000))
            return _problems((np.array_equal(data[:, :4], b), "b differs from sample_b"),
                             (np.array_equal(data[:, 6], j), "J differs from jarlskog_values"))
        return check

    def report(self, records) -> dict:
        walls = [1000.0 * r.wall_s for r in records]
        tail_ms, pct = tail(walls)
        return {"cli_wall_ms_p50": statistics.median(walls), "cli_wall_ms_tail": tail_ms,
                "cli_wall_ms_tail_percentile": pct}


class SampleExport(_CliBase):
    """The sampler's write side: one export per measure, 200k rows to a file.

    The exports run through unilab.cli.main(argv) in this process, with the
    calibration kernel around each: run as child processes their rows/s
    spread by 0.19 to 0.22 across ten runs on a shared 2-vCPU machine, and a
    kernel in the parent does not track a child.  Process start is measured
    by cli-oneshot and setup_s.
    """

    name = "sample-export"
    in_process = True
    calibrated = "interpreter"
    ROWS = 200_000
    MEASURES = (("haar", "haar"), ("mu:1.5", "mu:1.5"), ("flat-b3", "flat"))

    def cycle(self, c: int, mini: bool = False) -> list:
        rng = np.random.default_rng([self.seed, c, 0xE4])
        rows = self.ROWS // 10 if mini else self.ROWS
        reqs = []
        for flag, kind in self.MEASURES:
            path = self.workdir / f"export-{kind.replace(':', '')}.csv"
            argv = ["sample", "--measure", flag, "--n", str(rows), "--seed", str(_seed(rng)),
                    "--output", str(path)]
            reqs.append(self._request(f"export-{kind}", flag, argv,
                                      lambda o, p=path, k=kind: self._check(o, p, k, rows),
                                      items=rows))
        return reqs

    def _check(self, o: Outcome, path: Path, kind: str, rows: int) -> list:
        try:
            if o.code != 0 or o.stdout:
                return [f"exit {o.code}, stdout {o.stdout[:80]!r}: {o.stderr.strip()[:200]}"]
            return check_sample_csv(path.read_text(), kind, rows)
        finally:
            path.unlink(missing_ok=True)

    def report(self, records) -> dict:
        return {"export_rows_per_s": mix_rate(records, lambda r: r.wall_s)}


WORKLOADS = {w.name: w for w in (McEstimate, CliOneshot, SampleExport, DecideScan)}
