"""Monte Carlo estimation against the closed-form targets.

Every estimator here is deterministic given (seed, n): the work is sharded
over a fixed number of substreams no matter how many worker threads execute
them, and the per-stream moments are merged in stream order.  Running with
``threads=1`` and ``threads=8`` therefore produces bit-identical results.
"""

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .analytic import (
    ABSJ_MAX,
    b3_q_integrals,
    cdf_absj,
    check_q,
    mean_entropy_mu,
    mean_generalized_entropy_b3,
    mean_generalized_entropy_mu,
    q_moments,
)
from .analytic import volume_ratio as _volume_ratio
from .core import Q_CLASS_TOL, entropy_values, generalized_entropy_values, q_values
from .sampling import DEFAULT_SEED, MeasureSpec, RngStream, _haar_columns, sample_b
from .unitary import jarlskog_values

#: number of substreams the sample budget is sharded over; fixed so that
#: the thread count never changes which stream produces which samples
N_SUBSTREAMS = 64

_SIMPLE_STATS = ("Q", "J2", "entropy", "indicator_Q_nonneg")


@dataclass(frozen=True)
class Statistic:
    """A per-sample scalar whose mean the estimators target.

    Plain statistics are Q, J2, entropy and the Q >= 0 indicator;
    generalized_entropy carries its order q and indicator_absj_leq carries
    the |J| threshold.
    """

    name: str
    param: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name in _SIMPLE_STATS:
            if self.param is not None:
                raise ValueError(f"statistic {self.name!r} takes no parameter")
        elif self.name == "generalized_entropy":
            object.__setattr__(self, "param", check_q(self.param))
        elif self.name == "indicator_absj_leq":
            if self.param is None or not 0.0 <= float(self.param) <= ABSJ_MAX:
                raise ValueError(
                    f"indicator_absj_leq needs a threshold in [0, {ABSJ_MAX:.17g}]"
                )
            object.__setattr__(self, "param", float(self.param))
        else:
            raise ValueError(f"unknown statistic {self.name!r}")

    @classmethod
    def q(cls) -> "Statistic":
        return cls("Q")

    @classmethod
    def j2(cls) -> "Statistic":
        return cls("J2")

    @classmethod
    def entropy(cls) -> "Statistic":
        return cls("entropy")

    @classmethod
    def generalized_entropy(cls, q: float) -> "Statistic":
        return cls("generalized_entropy", q)

    @classmethod
    def indicator_q_nonneg(cls) -> "Statistic":
        return cls("indicator_Q_nonneg")

    @classmethod
    def indicator_absj_leq(cls, y: float) -> "Statistic":
        return cls("indicator_absj_leq", y)

    @property
    def is_indicator(self) -> bool:
        return self.name.startswith("indicator")

    @property
    def label(self) -> str:
        if self.name == "generalized_entropy":
            return f"S_q[q={self.param:g}]"
        if self.name == "indicator_absj_leq":
            return f"P[|J|<={self.param:g}]"
        return {
            "Q": "Q",
            "J2": "J2",
            "entropy": "S",
            "indicator_Q_nonneg": "P[Q>=0]",
        }[self.name]


@dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo estimate next to its analytic target, when one exists.

    z_score is (estimate - reference)/std_error; a degenerate estimate with
    zero spread scores 0 when it hits the reference exactly.
    """

    name: str
    estimate: float
    std_error: float
    n_samples: int
    seed: int
    reference: Optional[float] = None
    z_score: Optional[float] = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


# ---------------------------------------------------------------------------
# deterministic sharding and reduction


def _resolve_threads(threads: Optional[int]) -> int:
    if threads is None:
        threads = os.cpu_count() or 1
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, N_SUBSTREAMS)


def _moments_of(values: np.ndarray):
    """(count, mean, sum of squared deviations) of a 1-d array."""
    count = values.size
    if count == 0:
        return 0, 0.0, 0.0
    mean = float(values.mean())
    return count, mean, float(np.square(values - mean).sum())


def _merge_moments(parts):
    """Fold per-stream (count, mean, M2) triples in the given order."""
    count, mean, m2 = 0, 0.0, 0.0
    for c2, mean2, m22 in parts:
        if c2 == 0:
            continue
        if count == 0:
            count, mean, m2 = c2, mean2, m22
            continue
        total = count + c2
        delta = mean2 - mean
        mean += delta * (c2 / total)
        m2 += m22 + delta * delta * (count * c2 / total)
        count = total
    return count, mean, m2


def _sharded(work: Callable, n: int, seed: int, threads: Optional[int]) -> tuple:
    """Run work(stream, count) over the substreams of one root stream.

    The n samples are split as evenly as possible over N_SUBSTREAMS streams,
    earlier streams taking the remainder.  Returns the root seed actually
    used and the per-stream results in stream order.
    """
    threads = _resolve_threads(threads)
    root = RngStream(seed)
    base, rem = divmod(n, N_SUBSTREAMS)
    jobs = [(st, base + (i < rem)) for i, st in enumerate(root.split(N_SUBSTREAMS))]
    jobs = [(st, c) for st, c in jobs if c > 0]
    if threads == 1 or len(jobs) == 1:
        return root.seed, [work(st, c) for st, c in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # executor.map returns results in submission order, which is stream
        # order, so the reduction never depends on scheduling
        return root.seed, list(pool.map(lambda job: work(*job), jobs))


def _result(name: str, parts, seed: int, reference: Optional[float],
            indicator: bool = False) -> EstimateResult:
    """Merge per-stream moments in stream order and score the mean.

    Indicators take the exact Bernoulli standard error sqrt(p(1-p)/n).
    """
    count, mean, m2 = _merge_moments(parts)
    if indicator:
        std_error = math.sqrt(mean * (1.0 - mean) / count)
    else:
        std_error = math.sqrt(m2 / (count - 1) / count)
    if reference is None:
        z_score = None
    elif std_error == 0.0:
        z_score = 0.0 if mean == reference else math.copysign(math.inf, mean - reference)
    else:
        z_score = (mean - reference) / std_error
    return EstimateResult(name, mean, std_error, count, seed, reference, z_score)


def _sample_statistic(measure: MeasureSpec, stat: Statistic, stream: RngStream, count: int):
    if measure.kind == "haar" and stat.name in ("J2", "indicator_absj_leq"):
        # J reads only the first two columns of the unitary
        j = jarlskog_values(_haar_columns(stream, count, 2))
        if stat.name == "J2":
            return j * j
        return (np.abs(j) <= stat.param).astype(float)
    b = sample_b(measure, stream, count)
    if stat.name == "Q":
        return q_values(b)
    if stat.name == "J2":
        return q_values(b) / 4.0
    if stat.name == "entropy":
        return entropy_values(b)
    if stat.name == "generalized_entropy":
        return generalized_entropy_values(b, stat.param)
    if stat.name == "indicator_Q_nonneg":
        # counted down to the classifier tolerance so that rounding at the
        # boundary of the sampled set does not register as misses
        return (q_values(b) >= -Q_CLASS_TOL).astype(float)
    absj = 0.5 * np.sqrt(np.clip(q_values(b), 0.0, None))
    return (absj <= stat.param).astype(float)


def _reference_for(measure: MeasureSpec, stat: Statistic) -> Optional[float]:
    if measure.kind == "flat":
        if stat.name == "Q":
            return b3_q_integrals()[0]
        if stat.name == "entropy":
            return mean_generalized_entropy_b3(1.0)
        if stat.name == "generalized_entropy":
            return mean_generalized_entropy_b3(stat.param)
        if stat.name == "indicator_Q_nonneg":
            return _volume_ratio()
        return None
    k = 1.0 if measure.kind == "haar" else measure.k
    if stat.name == "Q":
        return q_moments(k, 1)
    if stat.name == "J2":
        return q_moments(k, 1) / 4.0
    if stat.name == "entropy":
        return mean_entropy_mu(k)
    if stat.name == "generalized_entropy":
        return mean_generalized_entropy_mu(k, stat.param)
    if stat.name == "indicator_Q_nonneg":
        return 1.0
    return cdf_absj(k, stat.param).value


def estimate_mean(
    measure: MeasureSpec,
    statistic: Statistic,
    n: int,
    seed: int = DEFAULT_SEED,
    threads: Optional[int] = None,
) -> EstimateResult:
    """Sample mean of the statistic under the measure, with standard error.

    The reference field carries the matching closed form when one is known
    (volume ratio for the Q >= 0 indicator under the flat measure, moment
    and entropy formulas under mu_k, CDF values for |J| thresholds); pairs
    without a closed form simply leave it absent.

    Indicator statistics report the exact Bernoulli standard error
    sqrt(p(1-p)/n), which stays meaningful for very small p.
    """
    n = int(n)
    if n < 100:
        raise ValueError(f"need n >= 100 samples for a standard error, got {n}")
    seed, parts = _sharded(
        lambda st, c: _moments_of(_sample_statistic(measure, statistic, st, c)),
        n, seed, threads,
    )
    return _result(f"{measure.label}:{statistic.label}", parts, seed,
                   _reference_for(measure, statistic), statistic.is_indicator)
