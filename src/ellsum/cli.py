"""Command-line driver.

Subcommands:

  verify    run a verification job over an (identity, n, N, p) grid and
            emit a JSON or table report; exit 0 iff every trial passed
  list      print the identity catalog (id, arity, balancing constraint)
  selftest  run the theta / shifted-factorial / ratio / interpolation
            property suites
  bench     time the left-side evaluator over growing N, reporting
            microseconds per evaluation and terms/second

Exit codes: 0 = verified, 1 = mathematical failure, 2 = usage or
configuration error (including I/O problems writing the report).

A config file (--config FILE) uses one `key = value` pair per line with
`#` comments; recognized keys mirror the job fields:

    identities = all            # or comma-separated ids
    n = 1,2,3,4
    N = 0,1,2,3,4
    trials = 25
    seed = 0
    tolerance = 1e-8
    p = 0,0.05,0.2              # reals in [0,1) or re+imi literals
    q-range = 0.2,1.5
    modulus-range = 0.2,1.5
    pole-floor = 1e-4
    condition-cap = 1e6
    max-resamples = 200
    min-z-separation = 0.05
    format = json               # or table

Command-line flags override config-file values.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .catalog import CATALOG, IDENTITY_IDS
from .errors import BalancingError, EllipticError
from .sampler import SampleConfig
from .selfcheck import run_all
from .verify import (
    VerificationJob,
    report_to_json,
    report_to_table,
    run_bench,
    run_job,
)


class UsageError(Exception):
    pass


def parse_complex_literal(text: str) -> complex:
    """Parse a real ('0.2') or complex ('0.1+0.05i') literal."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise UsageError(f"cannot parse complex literal {text!r}") from None


def parse_p_list(text: str) -> tuple[complex, ...]:
    values = []
    for token in text.split(","):
        value = parse_complex_literal(token)
        if abs(value) >= 1.0:
            raise UsageError(f"|p| must be < 1, got {token!r}")
        values.append(value)
    if not values:
        raise UsageError("need at least one p value")
    return tuple(values)


def parse_int_list(text: str, *, minimum: int, what: str) -> tuple[int, ...]:
    values = []
    for token in text.split(","):
        try:
            value = int(token)
        except ValueError:
            raise UsageError(f"bad {what} value {token!r}") from None
        if value < minimum:
            raise UsageError(f"{what} values must be >= {minimum}, got {value}")
        values.append(value)
    if not values:
        raise UsageError(f"need at least one {what} value")
    return tuple(values)


def parse_range(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"bad {what} {text!r}") from None
    if lo <= 0 or hi < lo:
        raise UsageError(f"{what} must satisfy 0 < lo <= hi, got {text!r}")
    return lo, hi


def parse_identity_list(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return IDENTITY_IDS
    ids = tuple(token.strip() for token in text.split(",") if token.strip())
    for identity_id in ids:
        if identity_id not in CATALOG:
            raise UsageError(
                f"unknown identity {identity_id!r}; run `ellsum list`")
    if not ids:
        raise UsageError("need at least one identity id")
    return ids


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise UsageError(
                        f"{path}:{line_number}: expected 'key = value'")
                values[key.strip().lower()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsum",
        description="Randomized numerical verification of elliptic "
                    "hypergeometric summation identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification job")
    verify.add_argument("--identity", help="comma-separated ids or 'all'")
    verify.add_argument("--n", help="comma-separated n values (vector identities)")
    verify.add_argument("--N", help="comma-separated truncation levels")
    verify.add_argument("--trials", type=int, help="trials per grid cell")
    verify.add_argument("--seed", type=int, help="sampler seed")
    verify.add_argument("--tol", type=float, help="pass tolerance on relative error")
    verify.add_argument("--p", help="comma-separated nome values (|p| < 1)")
    verify.add_argument("--q-range", dest="q_range", help="lo,hi for |q|")
    verify.add_argument("--format", choices=("json", "table"), help="report format")
    verify.add_argument("--out", help="write the report to this file")
    verify.add_argument("--config", help="key = value config file")
    verify.add_argument("--jobs", type=int, help="worker processes (default: "
                        "ELLSUM_JOBS or 1)")
    verify.set_defaults(func=_cmd_verify)

    lister = sub.add_parser("list", help="print the identity catalog")
    lister.set_defaults(func=_cmd_list)

    selftest = sub.add_parser("selftest", help="run the property suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--theta-samples", type=int, default=1000)
    selftest.add_argument("--kernel-samples", type=int, default=500)
    selftest.set_defaults(func=_cmd_selftest)

    bench = sub.add_parser("bench", help="time the left-side evaluator")
    bench.add_argument("--identity", default="gr-sum")
    bench.add_argument("--n", type=int, default=4)
    bench.add_argument("--N", default="2,4,6,8")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--p", default="0.05")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _pick(cli_value, file_values: dict, key: str, fallback):
    if cli_value is not None:
        return cli_value
    if key in file_values:
        return file_values[key]
    return fallback


def _cmd_verify(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}

    identity_text = _pick(args.identity, file_values, "identities",
                          _pick(None, file_values, "identity", "all"))
    identities = parse_identity_list(str(identity_text))

    n_text = str(_pick(args.n, file_values, "n", "1,2,3,4"))
    n_values = parse_int_list(n_text, minimum=1, what="n")

    N_text = str(_pick(args.N, file_values, "N".lower(), "0,1,2,3,4"))
    N_values = parse_int_list(N_text, minimum=0, what="N")

    def _number(cli_value, key, fallback, cast):
        raw = _pick(cli_value, file_values, key, fallback)
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise UsageError(f"bad value for {key}: {raw!r}") from None

    trials = _number(args.trials, "trials", 25, int)
    seed = _number(args.seed, "seed", 0, int)
    tolerance = _number(args.tol, "tolerance", 1e-8, float)
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if tolerance < 0:
        raise UsageError("tolerance must be >= 0")

    p_values = parse_p_list(str(_pick(args.p, file_values, "p", "0,0.05,0.2")))
    q_range = parse_range(str(_pick(args.q_range, file_values, "q-range",
                                    "0.2,1.5")), "q-range")
    modulus_range = parse_range(str(_pick(None, file_values, "modulus-range",
                                          "0.2,1.5")), "modulus-range")
    pole_floor = _number(None, "pole-floor", 1e-4, float)
    condition_cap = _number(None, "condition-cap", 1e6, float)
    max_resamples = _number(None, "max-resamples", 200, int)
    min_z_separation = _number(None, "min-z-separation", 0.05, float)
    output_format = str(_pick(args.format, file_values, "format", "json"))

    try:
        config = SampleConfig(
            seed=seed, modulus_range=modulus_range, p_values=p_values,
            q_range=q_range, pole_floor=pole_floor,
            condition_cap=condition_cap, max_resamples=max_resamples,
            min_z_separation=min_z_separation)
        job = VerificationJob(
            identities=identities, n_values=n_values, N_values=N_values,
            trials=trials, tolerance=tolerance, config=config,
            output_format=output_format)
    except (ValueError, BalancingError) as exc:
        raise UsageError(str(exc)) from None

    report = run_job(job, jobs=args.jobs)
    text = (report_to_json(report) if job.output_format == "json"
            else report_to_table(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"ellsum: i/o error writing report: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0 if report.verdict == "pass" else 1


def _cmd_list(args) -> int:
    width = max(len(identity_id) for identity_id in IDENTITY_IDS)
    for identity_id in IDENTITY_IDS:
        entry = CATALOG[identity_id]
        print(f"{identity_id:<{width}}  [{entry.arity}]  {entry.constraint_text}")
        print(f"{'':<{width}}  {entry.label}; parameters: "
              f"{', '.join(entry.params)}; dependent: "
              f"{', '.join(entry.dependents)}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(args.seed, theta_samples=args.theta_samples,
                      kernel_samples=args.kernel_samples)
    failed = False
    for result in results:
        print(result.line())
        failed = failed or not result.passed
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    if args.identity not in CATALOG:
        raise UsageError(f"unknown identity {args.identity!r}")
    N_values = parse_int_list(args.N, minimum=0, what="N")
    p = parse_p_list(args.p)[0]
    config = SampleConfig(seed=args.seed)
    rows = run_bench(args.identity, n=args.n, N_values=N_values,
                     config=config, p=p)
    print(f"{'N':>4} {'terms':>7} {'us/eval':>10} {'terms/s':>12}")
    for row in rows:
        print(f"{row['N']:>4} {row['terms']:>7} {row['seconds'] * 1e6:>10.1f} "
              f"{row['terms_per_second']:>12.1f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ellsum: {exc}", file=sys.stderr)
        return 2
    except EllipticError as exc:
        print(f"ellsum: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
