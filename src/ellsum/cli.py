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
`#` comments, for example

    identities = gr-sum,rs-jackson   # or all
    N = 0,1,2
    p = 0.2,0.1+0.05i                # reals in [0,1) or re+imi literals
    q-range = 0.3,1.2
    format = table                   # or json

Keys are case-sensitive (`n` and `N` are different keys) and are the keys
of OPTIONS, each setting one field of VerificationJob or SampleConfig;
`identity` is an alias of `identities`.  Command-line flags override
config-file values, and a field that neither sets keeps its default (all
identities for `identities`).  An unknown key, a bad
value (NaN included), an ELLSUM_JOBS that is not an integer >= 1 and a p
too close to 1 for theta's truncation budget exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from ._version import __version__
from .catalog import CATALOG, IDENTITY_IDS
from .errors import BalancingError, EllipticError, TruncationBudgetError
from .sampler import SampleConfig
from .selfcheck import run_all
from .verify import (
    VerificationJob,
    report_to_json,
    report_to_table,
    run_bench,
    run_job,
    worker_count,
)


class UsageError(Exception):
    pass


def parse_complex_literal(text: str) -> complex:
    """Parse a real ('0.2') or complex ('0.1+0.05i') literal."""
    return complex(text.strip().replace(" ", "").replace("i", "j"))


def _listed(cast):
    """Parser of a comma-separated list of cast values."""
    return lambda text: tuple(cast(token) for token in text.split(","))


def _pair(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    return lo, hi


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: verify's settings: (config-file key, flag or None for file only, the
#: VerificationJob or SampleConfig field it sets, parser, flag help).  Flags
#: override the file; a key neither sets keeps the field's default, and the
#: job and sampler config check the parsed values.
OPTIONS = (
    ("identities", "--identity", "identities", _listed(str.strip),
     "comma-separated ids or 'all' (the default)"),
    ("n", "--n", "n_values", _listed(int), "comma-separated n values (vector identities)"),
    ("N", "--N", "N_values", _listed(int), "comma-separated truncation levels"),
    ("trials", "--trials", "trials", int, "trials per grid cell"),
    ("seed", "--seed", "seed", int, "sampler seed"),
    ("tolerance", "--tol", "tolerance", float, "pass tolerance on relative error"),
    ("p", "--p", "p_values", _listed(parse_complex_literal),
     "comma-separated nome values (|p| < 1)"),
    ("q-range", "--q-range", "q_range", _pair, "lo,hi for |q|"),
    ("modulus-range", None, "modulus_range", _pair, None),
    ("pole-floor", None, "pole_floor", float, None),
    ("condition-cap", None, "condition_cap", float, None),
    ("max-resamples", None, "max_resamples", int, None),
    ("min-z-separation", None, "min_z_separation", float, None),
    ("format", "--format", "output_format", str, "report format: json or table"),
)


def load_config_file(path: str) -> dict[str, str]:
    """{key: raw value} of a config file; an unknown key is a UsageError."""
    keys = {key for key, *_ in OPTIONS}
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                key = "identities" if key == "identity" else key
                if not sep or key not in keys:
                    problem = f"unknown key {key!r}" if sep else "expected 'key = value'"
                    raise UsageError(f"{path}:{line_number}: {problem}")
                values[key] = value
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
    for key, flag, _, _, text in OPTIONS:
        if flag:
            verify.add_argument(flag, dest=key, help=text)
    verify.add_argument("--out", help="write the report to this file")
    verify.add_argument("--config", help="key = value config file")
    verify.add_argument("--jobs", type=int, help="worker processes (default: "
                        "ELLSUM_JOBS or 1)")
    verify.set_defaults(func=_cmd_verify)

    lister = sub.add_parser("list", help="print the identity catalog")
    lister.set_defaults(func=_cmd_list)

    selftest = sub.add_parser("selftest", help="run the property suites")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.add_argument("--theta-samples", type=_positive_int, default=1000)
    selftest.add_argument("--kernel-samples", type=_positive_int, default=500)
    selftest.set_defaults(func=_cmd_selftest)

    bench = sub.add_parser("bench", help="time the left-side evaluator")
    bench.add_argument("--identity", default="gr-sum")
    bench.add_argument("--n", type=int, default=4)
    bench.add_argument("--N", default="2,4,6,8")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--p", default="0.05")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _cmd_verify(args) -> int:
    raw = {"identities": "all"}  # the job has no default for it
    if args.config:
        raw.update(load_config_file(args.config))
    flags = vars(args)
    raw.update({key: flags[key] for key, flag, *_ in OPTIONS
                if flag and flags[key] is not None})
    settings = {}
    for key, _, name, parse, _ in OPTIONS:
        if key in raw:
            try:
                settings[name] = parse(raw[key])
            except ValueError:
                raise UsageError(f"bad value for {key}: {raw[key]!r}") from None

    try:
        sampler = {f.name for f in fields(SampleConfig)} & settings.keys()
        config = SampleConfig(**{name: settings.pop(name) for name in sampler})
        job = VerificationJob(config=config, **settings)
        jobs = worker_count(args.jobs)
    except (ValueError, BalancingError) as exc:
        raise UsageError(str(exc)) from None

    report = run_job(job, jobs=jobs)
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
    try:
        config = SampleConfig(seed=args.seed,
                              p_values=_listed(parse_complex_literal)(args.p))
        rows = run_bench(args.identity, n=args.n, N_values=_listed(int)(args.N),
                         config=config)
    except (ValueError, BalancingError) as exc:
        raise UsageError(str(exc)) from None
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
    except (UsageError, TruncationBudgetError) as exc:  # |p| too close to 1
        print(f"ellsum: {exc}", file=sys.stderr)
        return 2
    except EllipticError as exc:
        print(f"ellsum: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
