"""Seeded differential testing of the solvability pipeline against the
elimination oracle.

Trials draw bounded standard-shape systems from a counter-based SHA-256
stream (same seed, same bytes, on any platform or Python version), run both
deciders, and record agreement.  Disagreements are first-class results, not
failures: the pipeline's verdict rule is the object under measurement, and
each disagreement ships with enough material to replay both sides.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from .core import InvariantError, LincertError, System, make_system
from .cone import is_bounded, is_reduced_to_origin
from .fourier import feasibility
from .pipeline import ExploreBudgetExceeded, explore, run
from .sysfile import format_rational, print_system

EXPLORE_LAMBDA_LIMIT = 6  # trials whose working system has more multipliers skip explore


class CounterStream:
    """Deterministic uniform integers from SHA-256(seed, label, counter)."""

    def __init__(self, seed: int, label: str = ""):
        self._key = hashlib.sha256(f"{seed}|{label}".encode()).digest()
        self._counter = 0
        self._pool: list[int] = []

    def _word(self) -> int:
        if not self._pool:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._pool = [
                int.from_bytes(block[i : i + 8], "big") for i in range(0, 32, 8)
            ]
        return self._pool.pop()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to avoid bias."""
        if lo > hi:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (2**64 // span) * span
        while True:
            w = self._word()
            if w < limit:
                return lo + w % span


@dataclass(frozen=True)
class GenParams:
    max_vars: int = 4
    max_cons: int = 6
    coeff_lo: int = -5
    coeff_hi: int = 5
    mode: str = "box"  # "box" | "filter"
    seed: int = 0

    def __post_init__(self):
        if self.max_vars < 1:
            raise LincertError("max_vars must be at least 1")
        if self.max_cons < 1:
            raise LincertError("max_cons must be at least 1")
        if self.coeff_lo > self.coeff_hi:
            raise LincertError("empty coefficient range")
        if self.mode not in ("box", "filter"):
            raise LincertError(f"unknown boundedness mode {self.mode!r}")


def generate_bounded(stream: CounterStream, params: GenParams) -> System:
    """One random bounded standard-shape system.

    Box mode appends a cap x_j <= U_j per variable, which forces a trivial
    recession cone outright; those caps are also what let is_bounded answer
    without a Fourier probe.  Filter mode rejection-samples on is_bounded and
    errors out after 1000 rejections.
    """
    nvars = stream.randint(1, params.max_vars)
    names = [f"x{i + 1}" for i in range(nvars)]
    for attempt in range(1000):
        rows = []
        for _ in range(stream.randint(1, params.max_cons)):
            coeffs = {n: stream.randint(params.coeff_lo, params.coeff_hi) for n in names}
            rows.append((coeffs, "<=", stream.randint(params.coeff_lo, params.coeff_hi)))
        if params.mode == "box":
            for n in names:
                rows.append(({n: 1}, "<=", stream.randint(1, 5)))
        system = make_system(names, mains=rows, nonneg="all")
        if params.mode == "box" or is_bounded(system):
            return system
    raise LincertError("filter mode exceeded 1000 rejections without a bounded draw")


@dataclass(frozen=True)
class TrialReport:
    index: int
    system_text: str
    status: str  # "ok" | "error"
    oracle_feasible: bool | None = None
    pipeline_solvable: bool | None = None
    agreement: bool | None = None
    pivot_sensitive: bool | None = None  # None: not explored (too big or budget hit)
    interval: str | None = None
    error: str | None = None
    detail: dict | None = None  # full replay material for disagreements

    def to_dict(self) -> dict:
        d = {
            "index": self.index,
            "system": self.system_text,
            "status": self.status,
            "oracle_feasible": self.oracle_feasible,
            "pipeline_solvable": self.pipeline_solvable,
            "agreement": self.agreement,
            "pivot_sensitive": self.pivot_sensitive,
            "interval": self.interval,
        }
        if self.error is not None:
            d["error"] = self.error
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass(frozen=True)
class AggregateReport:
    params: GenParams
    trials: tuple[TrialReport, ...]
    wall_clock_seconds: float

    @property
    def trial_count(self) -> int:
        return len(self.trials)

    @property
    def agreement_count(self) -> int:
        return sum(1 for t in self.trials if t.agreement)

    @property
    def disagreements(self) -> tuple[TrialReport, ...]:
        return tuple(t for t in self.trials if t.agreement is False)

    @property
    def pivot_sensitive_count(self) -> int:
        return sum(1 for t in self.trials if t.pivot_sensitive)

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        d = {
            "kind": "difftest-report",
            "version": 1,
            "params": asdict(self.params),
            "trial_count": self.trial_count,
            "agreement_count": self.agreement_count,
            "agreement_rate": (
                format_rational(Fraction(self.agreement_count, self.trial_count))
                if self.trial_count
                else None
            ),
            "pivot_sensitive_count": self.pivot_sensitive_count,
            "trials": [t.to_dict() for t in self.trials],
            "disagreements": [t.index for t in self.disagreements],
        }
        if include_wall_clock:
            d["wall_clock_seconds"] = self.wall_clock_seconds
        return d

    def to_json(self, include_wall_clock: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_clock), indent=2, sort_keys=True) + "\n"


def oracle_verdict(system: System) -> bool:
    """Solvability in the sense the pipeline answers it.

    For a cone-flagged input the question is whether the cone has a point
    other than the origin; for everything else it is plain feasibility,
    which checks its own witness and Farkas certificate.
    """
    if system.is_cone:
        return not is_reduced_to_origin(system)
    return feasibility(system).feasible


def run_trial(index: int, system: System) -> TrialReport:
    """Decide one system both ways and record the outcome.

    The trial works on its own copy of the system, so the primal cone,
    boundedness answer and working system that `run` and `explore` share
    through its memo (core.System) are freed with the trial: a caller that
    holds many systems, as a benchmark cycling through its inputs does,
    keeps no trial's homogenized cone or dual, and a repeat trial of the
    same system does the same work again."""
    system = system.with_rows(system.constraints)
    text = print_system(system)
    try:
        oracle = oracle_verdict(system)
        trace = run(system)
        solvable = trace.solvable
        agreement = oracle == solvable
        sensitive = None
        if len(trace.working.variables) <= EXPLORE_LAMBDA_LIMIT:
            try:
                sensitive = explore(system).pivot_sensitive
            except ExploreBudgetExceeded:
                sensitive = None
        detail = None
        if not agreement:
            detail = {
                "steps": [s.report() for s in trace.steps],
                "working_system": trace.working_text,
                "terminal_system": trace.terminal_text,
            }
        return TrialReport(
            index=index,
            system_text=text,
            status="ok",
            oracle_feasible=oracle,
            pipeline_solvable=solvable,
            agreement=agreement,
            pivot_sensitive=sensitive,
            interval=trace.interval.describe(),
            detail=detail,
        )
    except InvariantError:
        raise  # a lincert bug, not a data point
    except LincertError as exc:
        return TrialReport(index=index, system_text=text, status="error", error=str(exc))


def run_difftest(params: GenParams, trials: int) -> AggregateReport:
    """Generate, decide both ways, aggregate.  Deterministic up to wall clock."""
    if trials < 0:
        raise LincertError(f"trials must be at least 0, not {trials}")
    start = time.monotonic()
    reports = []
    for i in range(trials):
        stream = CounterStream(params.seed, f"trial-{i}")
        system = generate_bounded(stream, params)
        reports.append(run_trial(i, system))
    return AggregateReport(params, tuple(reports), time.monotonic() - start)
