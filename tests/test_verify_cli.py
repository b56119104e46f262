"""Tests for the verification driver, report serialization, and the CLI."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellsum
from ellsum import (
    IDENTITY_IDS,
    SampleConfig,
    VerificationJob,
    report_to_dict,
    report_to_json,
    report_to_table,
    run_bench,
    run_job,
)
from ellsum import cli as cli_module
from ellsum import verify as verify_module
from ellsum._version import __version__
from ellsum.catalog import spread_box
from ellsum.cli import main as cli_main


def small_job(**kwargs):
    defaults = dict(
        identities=("gr-sum", "frenkel-turaev"),
        n_values=(1, 2), N_values=(0, 1), trials=3,
        config=SampleConfig(seed=5, p_values=(0.0, 0.1)))
    defaults.update(kwargs)
    return VerificationJob(**defaults)


def _strip_timing(report) -> bytes:
    data = report_to_dict(report)
    data.pop("timing")
    return json.dumps(data, indent=2).encode()


# ---------------------------------------------------------------------------
# run_job
# ---------------------------------------------------------------------------


def test_level_zero_grid_is_exact():
    job = VerificationJob(identities="all", n_values=(1, 2), N_values=(0,),
                          trials=1, config=SampleConfig(seed=1, p_values=(0.1,)))
    report = run_job(job)
    assert report.verdict == "pass"
    for trial in report.trials:
        if trial.identity_id == "theta-lemma":
            continue  # no truncation level; generic values
        assert trial.relative_error <= 1e-15


def test_zero_tolerance_is_a_negative_control():
    report = run_job(small_job(tolerance=0.0))
    assert report.verdict == "fail"
    assert any(t.status == "fail" for t in report.trials)
    # failing trials embed the full instance for standalone replay
    data = report_to_dict(report)
    failing = [t for t in data["trials"] if t["status"] == "fail"]
    assert failing and all("instance" in t for t in failing)
    assert all("params" in t["instance"] for t in failing)


def test_report_is_deterministic_modulo_timing():
    job = small_job()
    assert _strip_timing(run_job(job)) == _strip_timing(run_job(job))


def test_parallel_run_produces_identical_report():
    job = small_job()
    serial = _strip_timing(run_job(job, jobs=1))
    parallel = _strip_timing(run_job(job, jobs=2))
    assert serial == parallel


def test_import_leaves_the_process_pool_unloaded():
    # run_job imports it only for a parallel run
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ellsum; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_report_structure():
    report = run_job(small_job())
    data = report_to_dict(report)
    assert data["schema_version"] == 1
    assert data["job"]["sample_config"]["seed"] == 5
    assert data["verdict"] == "pass"
    # complex numbers serialize as re/im pairs
    cell = data["cells"][0]
    assert set(cell["p"]) == {"re", "im"}
    trial = data["trials"][0]
    assert set(trial["lhs"]) == {"re", "im"}
    # timing is segregated in its own sub-object
    assert set(data["timing"]) >= {"started_at", "total_seconds"}
    json.loads(report_to_json(report))  # round-trips as valid JSON


def _reference_json(report) -> str:
    """The report through the stdlib encoder, from records built as dicts:
    the independent reference for report_to_json's text."""
    def complex_json(value):
        return {"re": value.real, "im": value.imag}

    def trial_json(t):
        out = {"identity": t.identity_id, "n": t.n,
               "N": list(t.box) if t.box is not None else t.N,
               "p": complex_json(t.p), "trial": t.trial_index, "status": t.status}
        if t.status != "resample-exhausted":
            out.update({"lhs": complex_json(t.lhs), "rhs": complex_json(t.rhs),
                        "relative_error": t.relative_error,
                        "condition_ratio": t.condition_ratio})
        out["rejections"] = dict(t.rejections)
        if t.instance is not None:
            out["instance"] = verify_module._instance_json(t.instance)
        return out

    return json.dumps({
        "schema_version": 1, "tool": "ellsum", "version": __version__,
        "job": verify_module._job_json(report.job),
        "cells": report.cells,
        "trials": [trial_json(t) for t in report.trials],
        "verdict": report.verdict,
        "timing": report.timing,
    }, indent=2)


# Every branch of a record: fail trials that embed their instance,
# resample-exhausted trials, n and N null (frenkel-turaev, theta-lemma),
# a box N (rs-jackson), a complex and a negative p.
BRANCH_JOB = VerificationJob(
    identities=("frenkel-turaev", "rs-jackson", "theta-lemma", "gr-sum"),
    n_values=(2,), N_values=(1,), trials=3, tolerance=0.0,
    config=SampleConfig(seed=5, p_values=(0.1 + 0.05j, -0.3), max_resamples=1,
                        min_z_separation=0.5))


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_text_equals_the_stdlib_encoding(jobs):
    report = run_job(BRANCH_JOB, jobs=jobs)
    text = report_to_json(report)
    assert text == _reference_json(report)
    assert text == json.dumps(report_to_dict(report), indent=2)
    statuses = [t.status for t in report.trials]
    assert statuses.count("fail") >= 1 and statuses.count("resample-exhausted") >= 1
    assert all((t.instance is not None) == (t.status == "fail") for t in report.trials)
    assert {t.n for t in report.trials} == {None, 2}
    assert None in {t.N for t in report.trials}
    assert any(t.box is not None for t in report.trials)
    # timing, written member by member too, with one number per cell
    assert len(report.timing["cell_seconds"]) == len(report.cells) > 1
    for timing in ({**report.timing, "cell_seconds": []}, {}):
        other = dataclasses.replace(report, timing=timing)
        assert report_to_json(other) == _reference_json(other)


def test_report_text_writes_non_finite_numbers_as_json_does():
    job = small_job(identities=("gr-sum",), n_values=(2,), N_values=(1,), trials=2,
                    config=SampleConfig(seed=5, condition_cap=float("inf")))
    report = run_job(job)
    assert '"condition_cap": Infinity' in report_to_json(report)
    assert report_to_json(report) == _reference_json(report)
    # and in the records, which report_to_json writes itself
    inf, nan = float("inf"), float("nan")
    trial = dataclasses.replace(report.trials[0], status="fail", lhs=complex(-inf, -0.0),
                                rhs=complex(nan, 1e-300), relative_error=nan,
                                condition_ratio=inf)
    cell = {**report.cells[0], "max_relative_error": nan, "median_relative_error": None,
            "max_condition_ratio": -inf}
    timing = {**report.timing, "total_seconds": nan, "cell_seconds": [inf, -0.0]}
    report = dataclasses.replace(report, cells=[cell], trials=[trial, *report.trials[1:]],
                                 timing=timing)
    text = report_to_json(report)
    assert "NaN" in text and "-Infinity" in text and "-0.0" in text
    assert text.endswith('"total_seconds": NaN,\n    "cell_seconds": [\n'
                         '      Infinity,\n      -0.0\n    ]\n  }\n}')
    assert text == _reference_json(report)


def test_report_serialization_stays_off_the_pure_python_encoder_per_trial(monkeypatch):
    # json.dumps with an indent runs json.encoder's pure-Python encoder
    # (before Python 3.13; made so here on every version); count the chunks
    # it yields for one and for 25 trials of the same cells, and for 2 and 8
    # cells, less the job echo's (which lists the grid)
    chunks = [0]
    make_iterencode = json.encoder._make_iterencode

    def counting(*args, **kwargs):
        encode = make_iterencode(*args, **kwargs)

        def counted(*a, **k):
            for chunk in encode(*a, **k):
                chunks[0] += 1
                yield chunk
        return counted

    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    monkeypatch.setattr(json.encoder, "_make_iterencode", counting)
    counts = []
    for trials, n_values, N_values in ((1, (2,), (1,)), (25, (2,), (1,)), (1, (1, 2), (0, 1, 2))):
        report = run_job(small_job(identities=("gr-sum", "theta-lemma"), n_values=n_values,
                                   N_values=N_values, trials=trials,
                                   config=SampleConfig(seed=42, p_values=(0.0,))))
        assert report.verdict == "pass"
        chunks[0] = 0
        json.dumps(verify_module._job_json(report.job), indent=2)
        echo = chunks[0]
        report_to_json(report)
        assert echo > 0
        counts.append(chunks[0] - 2 * echo)  # all but report_to_json's echo
    assert len(report.cells) == 8
    assert counts[0] == counts[1] == counts[2]


def test_table_format():
    text = report_to_table(run_job(small_job()))
    assert "verdict: pass" in text
    assert "gr-sum" in text


def test_table_prints_a_box_as_a_tuple():
    job = small_job(identities=("rs-jackson",), n_values=(3,), N_values=(3,), trials=1)
    rows = [line.split() for line in report_to_table(run_job(job)).splitlines()
            if line.startswith("rs-jackson")]
    assert [row[1:3] for row in rows] == [["3", "(1,1,1)"]] * 2  # p 0 and 0.1


def test_resample_exhaustion_fails_report():
    job = small_job(config=SampleConfig(seed=5, p_values=(0.1,),
                                        condition_cap=1e-12, max_resamples=3))
    report = run_job(job)
    assert report.verdict == "fail"
    assert any(t.status == "resample-exhausted" for t in report.trials)


def test_repeated_grid_values_make_one_cell():
    # a repeated identity, n, N or p is the same cell, not a second copy of it
    once = run_job(small_job(identities=("gr-sum",), n_values=(1,), N_values=(1,),
                             config=SampleConfig(seed=5, p_values=(0.2,))))
    twice = run_job(small_job(identities=("gr-sum", "gr-sum"), n_values=(1, 1),
                              N_values=(1, 1),
                              config=SampleConfig(seed=5, p_values=(0.2, 0.2))))
    assert len(twice.cells) == 1 and len(twice.trials) == 3
    assert twice.cells == once.cells and twice.trials == once.trials
    assert twice.job.identities == ("gr-sum", "gr-sum")  # echoed as given


def test_spread_box():
    assert spread_box(3, 4) == (2, 1, 1)
    assert spread_box(4, 4) == (1, 1, 1, 1)
    assert spread_box(2, 0) == (0, 0)


def test_job_validation():
    with pytest.raises(Exception):
        VerificationJob(identities=("nope",))
    with pytest.raises(ValueError, match="job needs at least one identity"):
        VerificationJob(identities=())
    with pytest.raises(ValueError):
        small_job(trials=0)
    with pytest.raises(ValueError):
        small_job(N_values=(-1,))
    with pytest.raises(ValueError):
        small_job(output_format="xml")


def test_identities_all_expands():
    job = VerificationJob(identities="all")
    assert len(job.identities) == 11


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_reports_terms_per_second():
    rows = run_bench("gr-sum", n=4, N_values=(8,),
                     config=SampleConfig(seed=2, p_values=(0.05,)))
    row = rows[0]
    assert row["terms"] == 165  # compositions of 8 into 4 parts
    assert 0 < row["seconds"] < 0.05
    assert row["terms_per_second"] == pytest.approx(165 / row["seconds"])
    row, = run_bench("gr-sum", n=2, N_values=(1,), config=SampleConfig())
    assert row["terms"] == 2 and row["seconds"] > 0
    assert row["terms_per_second"] == pytest.approx(2 / row["seconds"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_prints_eleven(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    rows = [line.split()[:2] for line in out.splitlines() if line and not line.startswith(" ")]
    assert len(rows) == 11
    # each arity is read from the left side's summation domain
    arity = {"frenkel-turaev": "scalar-N", "elliptic-bailey": "scalar-N",
             "rs-jackson": "vector-box", "theta-lemma": "vector-only"}
    assert rows == [[identity_id, f"[{arity.get(identity_id, 'vector-N')}]"]
                    for identity_id in IDENTITY_IDS]


def test_cli_verify_pass(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = cli_main(["verify", "--identity", "theta-lemma", "--n", "3",
                     "--trials", "2", "--seed", "7", "--p", "0.1",
                     "--out", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["verdict"] == "pass"


def test_cli_verify_negative_control(capsys):
    code = cli_main(["verify", "--identity", "frenkel-turaev", "--N", "2",
                     "--trials", "1", "--seed", "7", "--p", "0.1",
                     "--tol", "0", "--format", "table"])
    assert code == 1


def test_cli_verify_counts_a_dependent_past_the_double_range_as_magnitude(capsys):
    # q = 1e-300 underflows gr-sum's constraint monomial to 0: every draw is
    # rejected, and the report says so instead of a traceback
    code = cli_main(["verify", "--identity", "gr-sum", "--n", "2", "--N", "3",
                     "--p", "0", "--trials", "1", "--q-range", "1e-300,1e-300"])
    assert code == 1
    trial, = json.loads(capsys.readouterr().out)["trials"]
    assert trial["status"] == "resample-exhausted"
    assert trial["rejections"]["magnitude"] == 200


@pytest.mark.parametrize("command", [
    ["verify", "--identity", "frenkel-turaev", "--N", "1000", "--p", "0", "--trials", "1"],
    ["bench", "--identity", "frenkel-turaev", "--N", "1000", "--p", "0"],
])
def test_cli_N_past_the_product_limit_exits_2(command, capsys):
    # seed 0 draws a q with |q|^1001 in the magnitude window, so a plan is built
    assert cli_main(command) == 2
    err = capsys.readouterr().err
    assert "runs over 1000 theta values, limit 1000; take a smaller N" in err
    assert "frenkel-turaev at N=1000: " in err and "n=None" not in err  # no n to name


def test_cli_trigonometric_bailey_at_N_84_passes(capsys):
    assert cli_main(["verify", "--identity", "elliptic-bailey", "--N", "84", "--p", "0",
                     "--trials", "2"]) == 0


def test_cli_rejects_negative_N(capsys):
    assert cli_main(["verify", "--identity", "gr-sum", "--N", "-1"]) == 2


def test_cli_rejects_unknown_identity(capsys):
    assert cli_main(["verify", "--identity", "gr-summ"]) == 2


def test_cli_rejects_large_p(capsys):
    assert cli_main(["verify", "--identity", "gr-sum", "--p", "1.5"]) == 2


def test_cli_accepts_complex_p(capsys):
    code = cli_main(["verify", "--identity", "theta-lemma", "--n", "2",
                     "--trials", "1", "--seed", "3", "--p", "0.1+0.05i",
                     "--format", "table"])
    assert code == 0
    assert "0.1+0.05i" in capsys.readouterr().out


def test_cli_usage_error_exit_code(capsys):
    assert cli_main(["verify", "--bad-flag"]) == 2
    assert cli_main([]) == 2


def test_cli_config_file(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text(
        "# sample config\n"
        "identities = theta-lemma\n"
        "n = 2\n"
        "trials = 2\n"
        "seed = 9\n"
        "p = 0.1\n"
        "format = table\n")
    assert cli_main(["verify", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "theta-lemma" in out
    # CLI flags override the file
    assert cli_main(["verify", "--config", str(config), "--identity",
                     "frenkel-turaev", "--N", "0", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "frenkel-turaev" in out
    assert "theta-lemma" not in out


def test_cli_bad_config_file(tmp_path):
    config = tmp_path / "job.cfg"
    config.write_text("identities theta-lemma\n")
    assert cli_main(["verify", "--config", str(config)]) == 2
    assert cli_main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2


class _Built(Exception):
    pass


def _built_job(monkeypatch, argv):
    """The job `ellsum verify` builds from argv, caught before it runs."""
    def capture(job, jobs=None):
        raise _Built(job)
    monkeypatch.setattr(cli_module, "run_job", capture)
    monkeypatch.delenv("ELLSUM_JOBS", raising=False)
    with pytest.raises(_Built) as built:
        cli_main(["verify", *argv])
    return built.value.args[0]


def test_cli_verify_defaults_are_the_job_defaults(monkeypatch):
    assert _built_job(monkeypatch, []) == VerificationJob("all")


def test_cli_config_keys_set_their_fields(tmp_path, monkeypatch):
    config = tmp_path / "job.cfg"
    config.write_text(
        "identity = gr-sum\nn = 2,3\nN = 1\ntrials = 4\nseed = 9\ntolerance = 1e-9\n"
        "p = 0.1+0.05i\nq-range = 0.3,1.2\nmodulus-range = 0.4,1.1\npole-floor = 1e-3\n"
        "condition-cap = 1e5\nmax-resamples = 50\nmin-z-separation = 0.1\n"
        "format = table\n")
    config_fields = dict(
        seed=9, p_values=(0.1 + 0.05j,), q_range=(0.3, 1.2), modulus_range=(0.4, 1.1),
        pole_floor=1e-3, condition_cap=1e5, max_resamples=50, min_z_separation=0.1)
    assert _built_job(monkeypatch, ["--config", str(config)]) == VerificationJob(
        ("gr-sum",), n_values=(2, 3), N_values=(1,), trials=4, tolerance=1e-9,
        config=SampleConfig(**config_fields), output_format="table")


def test_cli_selftest_small(capsys):
    code = cli_main(["selftest", "--seed", "1", "--theta-samples", "50",
                     "--kernel-samples", "20"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9


def test_cli_bench_runs(capsys):
    code = cli_main(["bench", "--identity", "gr-sum", "--n", "3", "--N", "2,4",
                     "--seed", "1", "--p", "0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "terms/s" in out and "us/eval" in out


def test_cli_bench_takes_one_p(capsys):
    # bench samples at one p: a list exits 2 instead of timing its first value
    assert cli_main(["bench", "--identity", "gr-sum", "--n", "2", "--N", "1",
                     "--p", "0,0.2"]) == 2
    out = capsys.readouterr().out
    assert "us/eval" not in out


def test_cli_version(capsys):
    assert cli_main(["--version"]) == 0


def test_every_exported_name_resolves_once():
    assert len(ellsum.__all__) == len(set(ellsum.__all__))
    for name in ellsum.__all__:
        getattr(ellsum, name)  # AttributeError for a name the package lost


def _config_report(tmp_path, text):
    config, out = tmp_path / "job.cfg", tmp_path / "report.json"
    config.write_text("identities = gr-sum\ntrials = 1\np = 0\n" + text)
    assert cli_main(["verify", "--config", str(config), "--out", str(out)]) == 0
    return json.loads(out.read_text())["job"]


def test_cli_config_keys_are_case_sensitive(tmp_path):
    job = _config_report(tmp_path, "n = 1\nN = 0\n")
    assert (job["n_values"], job["N_values"]) == ([1], [0])
    job = _config_report(tmp_path, "n = 1,2\nN = 1\n")
    assert (job["n_values"], job["N_values"]) == ([1, 2], [1])


def test_cli_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text("identities = gr-sum\ntolerence = 0\n")
    assert cli_main(["verify", "--config", str(config)]) == 2
    assert "tolerence" in capsys.readouterr().err


def test_cli_bad_worker_count_exits_2(monkeypatch, capsys):
    args = ["verify", "--identity", "theta-lemma", "--n", "1", "--trials", "1"]
    assert cli_main([*args, "--jobs", "0"]) == 2
    monkeypatch.setenv("ELLSUM_JOBS", "abc")
    assert cli_main(args) == 2
    assert "ELLSUM_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [1.5, 2.9, 0.5])
def test_non_integral_worker_count_rejected(jobs):
    with pytest.raises(ValueError, match="integer >= 1"):
        verify_module.worker_count(jobs)
    with pytest.raises(ValueError, match="integer >= 1"):
        run_job(small_job(), jobs=jobs)


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_selftest_rejects_empty_suites(samples, capsys):
    assert cli_main(["selftest", "--theta-samples", samples]) == 2
    assert "PASS" not in capsys.readouterr().out


_BENCH_UNPARSABLE = [["--p", "abc"], ["--N", "x"], ["--N", "1,y"], ["--n", "z"]]


@pytest.mark.parametrize("flags", [["--n", "0"], ["--N", "-1"], ["--p", "1.5"],
                                   ["--identity", "gr-summ"], *_BENCH_UNPARSABLE])
def test_cli_bench_bad_input_exits_2(flags, capsys):
    assert cli_main(["bench", "--N", "1", *flags]) == 2
    # argparse names a value it cannot parse by its flag; the library names
    # a value it refuses by its field
    flag, value = flags
    named = f"argument {flag}: invalid" if flags in _BENCH_UNPARSABLE else flag.lstrip("-")
    err = capsys.readouterr().err
    assert named in err and value in err
    assert "parse_complex_literal" not in err  # "invalid complex value: 'abc'"


def test_cli_bench_without_an_acceptable_draw_exits_1(capsys):
    # at p = 0.9 every draw of gr-sum at n 4 fails a gate: a mathematical
    # failure, not a usage error
    assert cli_main(["bench", "--identity", "gr-sum", "--n", "4", "--N", "1",
                     "--p", "0.9"]) == 1
    assert capsys.readouterr().err.startswith(
        "ellsum: gr-sum: no acceptable instance in 200 attempts")


@pytest.mark.parametrize("field, value", [
    ("tolerance", float("nan")), ("tolerance", -1e-8), ("n_values", ()), ("N_values", ()),
    ("n_values", (1.5,)), ("N_values", (0.7,)), ("N_values", (float("nan"),)),
    ("trials", 2.5), ("trials", float("inf")), ("tolerance", float("inf"))])
def test_job_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError):
        small_job(**{field: value})


@pytest.mark.parametrize("flags, line", [
    (["--tol", "nan"], ""), ([], "condition-cap = -1"), ([], "condition-cap = nan"),
    ([], "min-z-separation = nan"), ([], "pole-floor = nan"), ([], "q-range = nan,1.5"),
    ([], "modulus-range = 0.2,nan"), (["--p", "nan"], ""), (["--tol", "inf"], ""),
    ([], "tolerance = inf"),
])
def test_cli_bad_numbers_exit_2(flags, line, tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text(f"identities = gr-sum\nn = 1\nN = 0\ntrials = 1\n{line}\n")
    assert cli_main(["verify", "--config", str(config), *flags]) == 2
    assert "ellsum:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, line, message", [
    (["--trials", "abc"], "", "bad value for trials: 'abc'"),
    ([], "seed = x", "bad value for seed: 'x'"),
    (["--out", "missing/report.json"], "", "i/o error writing report"),
])
def test_cli_verify_usage_errors_exit_2(flags, line, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the directory "missing" does not exist
    Path("job.cfg").write_text(f"identities = gr-sum\nn = 1\nN = 0\ntrials = 1\n{line}\n")
    assert cli_main(["verify", "--config", "job.cfg", *flags]) == 2
    assert message in capsys.readouterr().err


def test_cli_p_near_one_exits_2_with_truncation_message(capsys):
    code = cli_main(["verify", "--identity", "gr-sum", "--n", "2", "--N", "1",
                     "--p", "0.97"])
    assert code == 2
    assert "theta product needs more than 1000 factors" in capsys.readouterr().err
