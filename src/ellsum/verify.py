"""Verification driver: run identity checks over an (identity, n, N, p)
grid of seeded trials and assemble a machine-readable report.

The report is deterministic: identical jobs (including the seed) produce
byte-identical JSON except for the `timing` sub-object, which is the only
place wall-clock data lives.  This holds on one machine with one numpy
build: numpy chooses its complex multiply loops by CPU feature, and its
AVX2/FMA loops round differently from its baseline loops, so disabling
them (NPY_DISABLE_CPU_FEATURES) changes the last bits of values.  Trials
are ordered by (catalog position of the identity, n, N, p position, trial
index); failing trials embed the full instance so they can be replayed
standalone.

Trial evaluation is embarrassingly parallel.  The ELLSUM_JOBS environment
variable sets the default number of worker processes (1 = in-process; a
value that is not an integer >= 1 is a ValueError); the report bytes do not
depend on the degree.  The process pool is imported only by a run that uses
one, and it is sent the cells in about four chunks per worker.

report_to_json writes the report text in one pass, each trial and cell
record from one format string and `timing` member by member; its bytes equal
json.dumps(report_to_dict(report), indent=2), and report_to_dict parses
that text back.

Each grid point (n, N) is resolved to an index shape by CatalogEntry.shape.
Box limits for the box-arity identity come from spreading N over n
coordinates round-robin, e.g. n=3, N=4 -> (2, 1, 1), so the box total
always matches the grid's N.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from ._version import __version__
from .catalog import IDENTITY_IDS, IdentityInstance, catalog_entry
from .errors import ResampleExhaustedError
from .evaluate import count_terms, evaluate_lhs, relative_error
from .sampler import REJECTION_REASONS, SampleConfig, _sample_with_values, sample_instance
from .theta import EPSILON, MAX_FACTORS, _integer

SCHEMA_VERSION = 1
TOOL_NAME = "ellsum"

#: Environment variable holding the default parallelism degree.
JOBS_ENV_VAR = "ELLSUM_JOBS"


@dataclass(frozen=True)
class VerificationJob:
    """One verification run over a grid of cells."""

    identities: tuple[str, ...]
    n_values: tuple[int, ...] = (1, 2, 3, 4)
    N_values: tuple[int, ...] = (0, 1, 2, 3, 4)
    trials: int = 25
    tolerance: float = 1e-8
    config: SampleConfig = field(default_factory=SampleConfig)
    output_format: str = "json"

    def __post_init__(self):
        ids = self.identities
        if isinstance(ids, str):
            ids = IDENTITY_IDS if ids == "all" else (ids,)
        elif tuple(ids) == ("all",):
            ids = IDENTITY_IDS
        object.__setattr__(self, "identities", tuple(ids))
        for identity_id in self.identities:
            catalog_entry(identity_id)  # BalancingError for an unknown id
        for name in ("n_values", "N_values"):
            values = tuple(_integer(v, name) for v in getattr(self, name))
            object.__setattr__(self, name, values)
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        if not self.identities:
            raise ValueError("job needs at least one identity")
        if not self.n_values or min(self.n_values) < 1:
            raise ValueError(f"n values must be >= 1 and not empty, got {self.n_values}")
        if not self.N_values or min(self.N_values) < 0:
            raise ValueError(f"N values must be >= 0 and not empty, got {self.N_values}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.tolerance < float("inf"):  # NaN fails too
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")
        if self.output_format not in ("json", "table"):
            raise ValueError(f"unknown output format {self.output_format!r}")


@dataclass(frozen=True)
class TrialResult:
    identity_id: str
    n: int | None
    N: int | None
    box: tuple[int, ...] | None
    p: complex
    trial_index: int
    status: str  # pass | fail | resample-exhausted
    lhs: complex = 0.0
    rhs: complex = 0.0
    relative_error: float = float("nan")
    condition_ratio: float = float("nan")
    rejections: dict[str, int] = field(default_factory=dict)
    instance: IdentityInstance | None = None


@dataclass(frozen=True)
class VerificationReport:
    job: VerificationJob
    cells: list[dict]
    trials: list[TrialResult]
    verdict: str  # pass | fail
    timing: dict


def _cells_of(job: VerificationJob):
    """Deterministic cell list: (identity, Shape, p).

    Each (n, N) of the grid is resolved by CatalogEntry.shape; grid points
    that resolve to the same shape (the n of a scalar identity, the N of a
    vector-only one) make one cell, and so does a repeated identity or p.
    """
    cells = []
    for identity_id in sorted(dict.fromkeys(job.identities), key=IDENTITY_IDS.index):
        shape_of = catalog_entry(identity_id).shape
        for shape in dict.fromkeys(shape_of(n, N) for n in job.n_values for N in job.N_values):
            for p in dict.fromkeys(complex(p) for p in job.config.p_values):
                cells.append((identity_id, shape, p))
    return cells


def _run_cell(job: VerificationJob, cell) -> list[TrialResult]:
    identity_id, (n, N, box), p = cell
    results = []
    for trial_index in range(job.trials):
        try:
            instance, lhs, rhs, condition, rejections = _sample_with_values(
                identity_id, n=n, N=N, box=box,
                config=job.config, trial_index=trial_index, p=p)
        except ResampleExhaustedError as exc:
            results.append(TrialResult(
                identity_id=identity_id, n=n, N=N, box=box, p=p,
                trial_index=trial_index, status="resample-exhausted",
                rejections=exc.histogram))
            continue
        error = relative_error(lhs, rhs)
        status = "pass" if error <= job.tolerance else "fail"
        results.append(TrialResult(
            identity_id=identity_id, n=n, N=N, box=box, p=p,
            trial_index=trial_index, status=status, lhs=lhs, rhs=rhs,
            relative_error=error, condition_ratio=condition,
            rejections=rejections,
            instance=None if status == "pass" else instance))
    return results


def _cell_worker(payload):
    job, cell = payload
    t0 = time.perf_counter()
    results = _run_cell(job, cell)
    return results, time.perf_counter() - t0


def worker_count(jobs: int | None = None) -> int:
    """jobs, or the ELLSUM_JOBS environment variable (default 1) when jobs
    is None; ValueError unless it is an integer >= 1."""
    value = os.environ.get(JOBS_ENV_VAR, "1") if jobs is None else jobs
    try:
        degree = int(value)
    except ValueError:
        degree = 0
    if degree < 1 or (not isinstance(value, str) and degree != value):
        where = JOBS_ENV_VAR if jobs is None else "jobs"
        raise ValueError(f"{where} must be an integer >= 1, got {value!r}")
    return degree


def run_job(job: VerificationJob, *, jobs: int | None = None) -> VerificationReport:
    """Execute every cell of the job; deterministic given the job."""
    cells = _cells_of(job)
    degree = worker_count(jobs)
    started_at = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    if degree > 1 and len(cells) > 1:
        # imported here: the process pool machinery is a third of `import ellsum`
        from concurrent.futures import ProcessPoolExecutor
        # about four chunks per worker: one round trip per cell, each
        # carrying the pickled job, cost more than the cells of a short job
        chunksize = max(1, len(cells) // (4 * degree))
        with ProcessPoolExecutor(max_workers=degree) as pool:
            timed = list(pool.map(_cell_worker, [(job, c) for c in cells],
                                  chunksize=chunksize))
    else:
        timed = [_cell_worker((job, cell)) for cell in cells]
    per_cell = [results for results, _ in timed]
    cell_seconds = [seconds for _, seconds in timed]
    total_seconds = time.perf_counter() - t0

    trials: list[TrialResult] = []
    cell_summaries: list[dict] = []
    for cell, results in zip(cells, per_cell):
        identity_id, (n, N, box), p = cell
        trials.extend(results)
        errors = sorted(r.relative_error for r in results if r.status != "resample-exhausted")
        rejections = {reason: 0 for reason in REJECTION_REASONS}
        for r in results:
            for reason, count in r.rejections.items():
                rejections[reason] = rejections.get(reason, 0) + count
        cell_summaries.append({
            "identity": identity_id,
            "n": n,
            "N": list(box) if box is not None else N,
            "p": _complex_json(p),
            "trials": len(results),
            "passes": sum(r.status == "pass" for r in results),
            "max_relative_error": errors[-1] if errors else None,
            "median_relative_error": errors[len(errors) // 2] if errors else None,
            "max_condition_ratio": max(
                (r.condition_ratio for r in results if r.status != "resample-exhausted"),
                default=None),
            "rejections": rejections,
        })
    verdict = "pass" if all(r.status == "pass" for r in trials) else "fail"
    timing = {
        "started_at": started_at,
        "total_seconds": total_seconds,
        "cell_seconds": cell_seconds,
    }
    return VerificationReport(job=job, cells=cell_summaries, trials=trials,
                              verdict=verdict, timing=timing)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Trial and cell records are each written from one format string, and
# `timing` member by member; the job echo and a failing trial's instance go
# through json.dumps.
# Strings are quoted and numbers written as json writes them, and every
# object and list is laid out with json's indent of 2.  (Before Python 3.13,
# json.dumps with an indent runs the pure-Python encoder, which costs about
# three times as much per record.)

_quote = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The report's members are indented by 2 spaces.  A record sits at depth 2
# (report -> list -> record): its members are indented by 6 spaces, and the
# members of its objects and lists by 8.  The members of a top-level object
# (`timing`) are indented by 4 spaces, and the items of its lists by 6.
_TOP = "\n  "
_OBJECT = "\n    "
_MEMBER = "\n      "
_INNER = "\n        "


def _num(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _num_or_null(value: float | None) -> str:
    return "null" if value is None else _num(value)


def _int_or_null(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _complex_text(re: float, im: float) -> str:
    return f'{{{_INNER}"re": {_num(re)},{_INNER}"im": {_num(im)}{_MEMBER}}}'


def _nested(value, indent: str) -> str:
    """A job echo or instance object, laid out at `indent`."""
    return json.dumps(value, indent=2).replace("\n", indent)


def _timing_text(timing: dict) -> str:
    """The timing object, laid out at the report's top level: its strings,
    floats and lists of floats (one per cell) as json writes them."""
    members = []
    for key, value in timing.items():
        if isinstance(value, str):
            value = _quote(value)
        elif isinstance(value, list):
            value = ("[" + ",".join(_MEMBER + _num(v) for v in value) + _OBJECT + "]"
                     if value else "[]")
        else:
            value = _num(value)
        members.append(f"{_OBJECT}{_quote(key)}: {value}")
    return "{" + ",".join(members) + _TOP + "}" if members else "{}"


def _head(identity: str, n: int | None, N, p_re: float, p_im: float) -> str:
    """A record's opening brace and its identity, n, N and p members; N is
    an int, None or the list of box limits."""
    if isinstance(N, list):
        N = "[" + ",".join(_INNER + int.__repr__(k) for k in N) + _MEMBER + "]"
    else:
        N = _int_or_null(N)
    return (f'{{{_MEMBER}"identity": {_quote(identity)},{_MEMBER}"n": {_int_or_null(n)},'
            f'{_MEMBER}"N": {N},{_MEMBER}"p": {_complex_text(p_re, p_im)},')


def _histogram(items: tuple) -> str:
    if not items:
        return "{}"
    return ("{" + ",".join(f"{_INNER}{_quote(reason)}: {int.__repr__(count)}"
                           for reason, count in items) + _MEMBER + "}")


def _cell_text(cell: dict) -> str:
    p = cell["p"]
    return (f'{_head(cell["identity"], cell["n"], cell["N"], p["re"], p["im"])}'
            f'{_MEMBER}"trials": {int.__repr__(cell["trials"])},'
            f'{_MEMBER}"passes": {int.__repr__(cell["passes"])},'
            f'{_MEMBER}"max_relative_error": {_num_or_null(cell["max_relative_error"])},'
            f'{_MEMBER}"median_relative_error": {_num_or_null(cell["median_relative_error"])},'
            f'{_MEMBER}"max_condition_ratio": {_num_or_null(cell["max_condition_ratio"])},'
            f'{_MEMBER}"rejections": {_histogram(tuple(cell["rejections"].items()))}'
            "\n    }")


def _trial_texts(trials: list[TrialResult]):
    """Each trial's record; the head is written once per cell and the
    rejections once per histogram."""
    cell = None
    histograms: dict[tuple, str] = {}
    for r in trials:
        # a cell's trials are consecutive, and no two of run_job's cells
        # have equal keys
        if cell != (r.identity_id, r.n, r.N, r.box, r.p):
            cell = (r.identity_id, r.n, r.N, r.box, r.p)
            head = _head(r.identity_id, r.n, r.N if r.box is None else list(r.box),
                         r.p.real, r.p.imag)
        counts = tuple(r.rejections.items())
        histogram = histograms.get(counts)
        if histogram is None:
            histogram = histograms[counts] = _histogram(counts)
        text = (f'{head}{_MEMBER}"trial": {int.__repr__(r.trial_index)},'
                f'{_MEMBER}"status": {_quote(r.status)},')
        if r.status != "resample-exhausted":
            lhs, rhs = r.lhs, r.rhs
            text += (f'{_MEMBER}"lhs": {_complex_text(lhs.real, lhs.imag)},'
                     f'{_MEMBER}"rhs": {_complex_text(rhs.real, rhs.imag)},'
                     f'{_MEMBER}"relative_error": {_num(r.relative_error)},'
                     f'{_MEMBER}"condition_ratio": {_num(r.condition_ratio)},')
        text += f'{_MEMBER}"rejections": {histogram}'
        if r.instance is not None:
            text += f',{_MEMBER}"instance": {_nested(_instance_json(r.instance), _MEMBER)}'
        yield text + "\n    }"


def _records(texts) -> str:
    return "[\n    " + ",\n    ".join(texts) + "\n  ]"


def _complex_json(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


#: theta's fixed truncation rule, as the report records it.
_TRUNCATION_JSON = {"epsilon": EPSILON, "max_terms": MAX_FACTORS}


def _config_json(config: SampleConfig) -> dict:
    return {**asdict(config), "p_values": [_complex_json(p) for p in config.p_values],
            "truncation": _TRUNCATION_JSON}


def _instance_json(instance: IdentityInstance) -> dict:
    return {
        "identity": instance.identity_id,
        "params": {name: _complex_json(v) for name, v in instance.params.items()},
        "z": None if instance.z is None else [_complex_json(v) for v in instance.z],
        "N": instance.N,
        "box": None if instance.box is None else list(instance.box),
        "nome": {
            "p": _complex_json(instance.nome.p),
            "q": _complex_json(instance.nome.q),
            "truncation": _TRUNCATION_JSON,
        },
    }


def _job_json(job: VerificationJob) -> dict:
    return {
        "identities": list(job.identities),
        "n_values": list(job.n_values),
        "N_values": list(job.N_values),
        "trials": job.trials,
        "tolerance": job.tolerance,
        "format": job.output_format,
        "sample_config": _config_json(job.config),
    }


def report_to_json(report: VerificationReport) -> str:
    """The report as JSON text; the bytes equal
    json.dumps(report_to_dict(report), indent=2)."""
    return (f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "tool": {_quote(TOOL_NAME)},'
            f'\n  "version": {_quote(__version__)},'
            f'\n  "job": {_nested(_job_json(report.job), _TOP)},'
            f'\n  "cells": {_records(map(_cell_text, report.cells))},'
            f'\n  "trials": {_records(_trial_texts(report.trials))},'
            f'\n  "verdict": {_quote(report.verdict)},'
            f'\n  "timing": {_timing_text(report.timing)}\n}}')


def report_to_dict(report: VerificationReport) -> dict:
    """The report as the JSON value report_to_json writes."""
    return json.loads(report_to_json(report))


def report_to_table(report: VerificationReport) -> str:
    lines = []
    header = (f"{'identity':<16} {'n':>3} {'N':>9} {'p':>12} "
              f"{'pass':>5} {'max rel err':>12} {'max cond':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for cell in report.cells:
        n_text = "-" if cell["n"] is None else str(cell["n"])
        N_value = cell["N"]
        if N_value is None:
            N_text = "-"
        elif isinstance(N_value, list):
            N_text = "(" + ",".join(map(str, N_value)) + ")"
        else:
            N_text = str(N_value)
        p = cell["p"]
        p_text = f"{p['re']:g}" if p["im"] == 0 else f"{p['re']:g}{p['im']:+g}i"
        err = cell["max_relative_error"]
        err_text = "-" if err is None else f"{err:.3e}"
        cond = cell["max_condition_ratio"]
        cond_text = "-" if cond is None else f"{cond:.2e}"
        lines.append(f"{cell['identity']:<16} {n_text:>3} {N_text:>9} {p_text:>12} "
                     f"{cell['passes']:>3}/{cell['trials']:<2} {err_text:>12} {cond_text:>10}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------


def run_bench(identity_id: str, *, n: int | None, N_values, config: SampleConfig) -> list[dict]:
    """Time evaluate_lhs over growing N on trial 0 at p = config.p_values[0].

    Returns one row per N with the term count, seconds per evaluation and
    terms per second.  Each N is timed for 0.05 s.
    """
    rows = []
    for N in N_values:
        instance = sample_instance(identity_id, n=n, N=N, config=config, trial_index=0)
        terms = count_terms(instance)
        reps, elapsed, t0 = 0, 0.0, time.perf_counter()
        while elapsed < 0.05:
            evaluate_lhs(instance)
            reps += 1
            elapsed = time.perf_counter() - t0
        seconds = elapsed / reps
        rows.append({"identity": identity_id, "n": n, "N": N, "terms": terms,
                     "seconds": seconds, "terms_per_second": terms / seconds})
    return rows
