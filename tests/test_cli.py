"""Command-line interface tests."""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameport import channel as ch
from frameport import cli
from frameport import groups
from qmat_reference import linear_purity_with_error, mean_result

SAMPLES = ["--samples", "40000"]


def run(argv):
    return cli.main(argv)


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_scheme(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--scheme", "u1-tight", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"].values())


def test_verify_scheme_takes_an_alias_and_rejects_the_conventional(capsys):
    # An alias is checked, and reported, under its canonical name, as
    # channel and simulate accept it.
    assert run(["verify", "--scheme", "su2-boct-tight"]) == 0
    alias = json.loads(capsys.readouterr().out)
    assert run(["verify", "--scheme", "su2-matched-tight"]) == 0
    assert json.loads(capsys.readouterr().out) == alias
    assert list(alias["checks"]) == ["compatibility:su2-matched-tight",
                                     "finite-subgroup:su2-matched-tight"]
    # A scheme with no encoding has no scheme checks.
    for name in ("su2-conventional", "u1-conventional", "su3-tight"):
        assert run(["verify", "--scheme", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert name in lines[0]


def test_verify_all_does_not_import_scipy(tmp_path):
    # scipy is a test-only dependency, and no exact integral in the package
    # needs numpy.polynomial: every one is a closed-form fourth moment.  A
    # fresh process shows what the package itself imports, here for verify,
    # every quadrature channel path (the SU(2) conventional and perfect ones
    # by channel's default method), the exact table and both optimize
    # groups.
    src = str(Path(cli.__file__).resolve().parents[1])
    out = str(tmp_path / "v.json")
    code = ("import sys\nfrom frameport import cli\n"
            f"assert cli.main(['verify', '--all', '--out', {out!r}]) == 0\n")
    quadrature = ["--method", "quadrature"]
    for argv in (["channel", "--scheme", "u1-conventional"],
                 ["channel", "--scheme", "u1-tight"] + quadrature,
                 ["channel", "--scheme", "su2-conventional"],
                 ["channel", "--scheme", "su2-btet-perfect"],
                 ["channel", "--scheme", "su2-matched-tight"] + quadrature,
                 ["channel", "--scheme", "su2-rod-tight"] + quadrature,
                 ["table1"],
                 ["optimize", "--group", "u1"],
                 ["optimize", "--group", "su2"]):
        code += f"assert cli.main({argv + ['--out', out]!r}) == 0\n"
    code += ("assert 'scipy' not in sys.modules\n"
             "assert 'numpy.polynomial' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=os.environ | {"PYTHONPATH": src})


def test_import_loads_only_what_every_command_needs(tmp_path):
    # Start-up is most of a fresh command, so `import frameport.cli` loads
    # no module that only some commands use (numpy.random for a draw, csv
    # for CSV output, frameport.optimize), nor hashlib or dataclasses,
    # beyond what a bare `import numpy` loads.  An exact channel draws
    # nothing, so it does not load numpy.random, and neither does verify,
    # whose checks are exact; a Monte Carlo channel after them loads it and
    # runs.
    src = str(Path(cli.__file__).resolve().parents[1])
    out = str(tmp_path / "c.json")
    channel = ["channel", "--scheme", "su2-matched-tight", "--out", out]
    verify = ["verify", "--all", "--out", out]
    mc = channel + ["--method", "mc", "--samples", "1000"]
    code = (
        "import sys\nimport numpy\nbase = set(sys.modules)\n"
        "def loaded():\n"
        "    return [m for m in ('numpy.random', 'csv', 'hashlib',\n"
        "                        'dataclasses', 'frameport.optimize')\n"
        "            if m in sys.modules and m not in base]\n"
        "from frameport import cli\n"
        "assert loaded() == [], loaded()\n"
        f"assert cli.main({channel!r}) == 0\n"
        "assert 'numpy.random' not in loaded(), loaded()\n"
        f"assert cli.main({verify!r}) == 0\n"
        "assert 'numpy.random' not in loaded(), loaded()\n"
        f"assert cli.main({mc!r}) == 0\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=os.environ | {"PYTHONPATH": src})


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_verify_all_honours_seed(tmp_path, seed):
    # --seed is accepted across its range, and has no effect: the scheme
    # checks are exact and draw nothing.
    out, default = tmp_path / "v.json", tmp_path / "d.json"
    assert run(["verify", "--all", "--seed", str(seed), "--out", str(out)]) \
        == 0
    assert run(["verify", "--all", "--out", str(default)]) == 0
    payload = read_json(out)
    assert payload["ok"] is True and payload["meta"]["seed"] is None
    assert payload["meta"]["samples"] == 0
    assert strip_timing(out.read_text()) == strip_timing(default.read_text())


def test_verify_subgroup_and_ueb(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--subgroup", "boct", "--ueb", "pauli",
                "--out", str(out)]) == 0
    assert read_json(out)["ok"] is True


def test_verify_ueb_defaults_to_its_own_subgroup(tmp_path):
    # With no --subgroup, a UEB is checked against the subgroup it is
    # equivariant for: BOct for the Pauli basis, BTet for the tetrahedral
    # one (which is not BOct-equivariant).
    out = tmp_path / "v.json"
    for ueb, sub in (("pauli", "boct"), ("tetrahedral", "btet")):
        assert run(["verify", "--ueb", ueb, "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["ok"] is True
        assert f"equivariance:{ueb}/{sub}" in payload["checks"]


def _verify_json(capsys, argv) -> tuple[int, dict]:
    """Exit code of verify and the one JSON line it prints."""
    code = run(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1, lines
    return code, json.loads(lines[0])


def test_verify_reports_a_subgroup_that_fails_to_build(capsys, monkeypatch):
    # An open subset of Tet fails its closure check when it is built.
    def broken():
        return groups._build_subgroup("tet", "so3",
                                      groups.tetrahedral().payloads[:5])

    monkeypatch.setitem(groups.SUBGROUPS, "tet", broken)
    code, payload = _verify_json(capsys, ["--all"])
    assert code == 1 and payload["ok"] is False
    row = payload["checks"]["group:tet"]
    assert row["ok"] is False and "not in element list" in row["error"]
    assert payload["checks"]["group:boct"]["ok"] is True


def test_verify_reports_a_ueb_that_fails_to_build(capsys, monkeypatch):
    from frameport import ueb as ueb_mod
    monkeypatch.setitem(cli._UEBS, "tetrahedral",
                        lambda: ueb_mod.UnitaryErrorBasis(2 * np.eye(4)))
    code, payload = _verify_json(capsys, ["--all"])
    assert code == 1 and payload["ok"] is False
    row = payload["checks"]["ueb:tetrahedral"]
    assert row["ok"] is False and "not a unitary error basis" in row["error"]
    assert payload["checks"]["ueb:pauli"]["ok"] is True


def test_verify_reports_an_equivariance_pair_that_fails_to_build(
        capsys, monkeypatch):
    def broken():
        return groups._build_subgroup("z4", "so3",
                                      groups.z4_reduced().payloads[:3])

    monkeypatch.setitem(groups.SUBGROUPS, "z4", broken)
    code, payload = _verify_json(capsys, ["--ueb", "pauli", "--subgroup",
                                          "z4"])
    assert code == 1 and payload["ok"] is False
    row = payload["checks"]["equivariance:pauli/z4"]
    assert row["ok"] is False and "not in element list" in row["error"]


def test_verify_reports_a_scheme_that_fails_to_build(capsys, monkeypatch):
    # Schemes are cached per process, so this one is built afresh.
    def broken():
        return groups._build_subgroup("btet", "su2",
                                      groups.binary_tetrahedral().payloads[:5])

    monkeypatch.setattr(cli, "_build_scheme", cli._build_scheme.__wrapped__)
    monkeypatch.setitem(groups.SUBGROUPS, "btet", broken)
    code, payload = _verify_json(capsys, ["--scheme", "su2-btet-perfect"])
    assert code == 1 and payload["ok"] is False
    for key in ("compatibility", "finite-subgroup"):
        row = payload["checks"][f"{key}:su2-btet-perfect"]
        assert row["ok"] is False and "not in element list" in row["error"]


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_channel_u1_tight_quadrature_values(tmp_path):
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "u1-tight", "--method", "quadrature",
                "--out", str(out)]) == 0
    payload = read_json(out)
    mat = np.array([[complex(a, b) for a, b in row]
                    for row in payload["superoperator"]])
    target = 2 / np.pi ** 2 + 0.5
    assert mat[1, 1].real == pytest.approx(target, abs=1e-12)
    assert payload["pre_norm_deviation"] <= 1e-12
    assert payload["map_purity"] == pytest.approx(0.696738, abs=1e-4)
    assert payload["mean_result_purity"] == pytest.approx(0.780491, abs=1e-4)


def test_every_scheme_has_a_quadrature_channel(tmp_path):
    # Every builtin scheme has an exact path, and channel takes it unless
    # --method mc asks for sampling: its default output, JSON or CSV, is the
    # quadrature output, which draws nothing, so it reports no samples, no
    # error bar and no seed.  Both runs share one build, so they differ only
    # in their wall times.  The SU(2) tight schemes give their exact
    # mean-result purities.
    def untimed(text):
        # The JSON seconds field, and the last (seconds) column of CSV rows.
        return re.sub(r'"seconds": [0-9.e+-]+|,[0-9.]+$', "", text,
                      flags=re.M)

    a, b = tmp_path / "a", tmp_path / "b"
    mean = {}
    for name in cli.SCHEME_NAMES:
        for fmt in ("json", "csv"):
            argv = ["channel", "--scheme", name, "--format", fmt]
            assert run(argv + ["--out", str(a)]) == 0
            assert run(argv + ["--method", "quadrature",
                               "--out", str(b)]) == 0
            assert untimed(a.read_text()) == untimed(b.read_text()), \
                (name, fmt)
            if fmt == "json":
                payload = read_json(b)
                assert (payload["method"], payload["samples"],
                        payload["map_purity_stderr"],
                        payload["meta"]["seed"]) == ("quadrature", 0, 0.0,
                                                     None)
                mean[name] = payload.get("mean_result_purity")
            else:
                assert all((r["samples"], r["seed"]) == ("0", "")
                           for r in read_csv_rows(b))
    assert mean["su2-matched-tight"] == pytest.approx(0.450648886777,
                                                      abs=1e-12)
    assert mean["su2-rod-tight"] == pytest.approx(0.4523925057222, abs=1e-12)


def test_channel_result_specific(tmp_path):
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "su2-conventional", "--result", "0",
                "--method", "mc", *SAMPLES, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["interpretation"] == "result-0"
    assert payload["map_purity"] == pytest.approx(1.0, abs=1e-9)


def test_channel_su2_conventional_quadrature(tmp_path):
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "su2-conventional", "--method",
                "quadrature", "--result", "1", "--out", str(out)]) == 0
    payload = read_json(out)
    spectrum = sorted(payload["choi_spectrum"], reverse=True)
    assert np.allclose(spectrum, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    assert payload["map_purity_stderr"] == 0.0


CSV_HEADER = ("scheme,interpretation,purity,stderr,linear_purity,samples,"
              "seed,seconds")


def test_channel_csv_header_and_rows(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["channel", "--scheme", "u1-conventional", "--method",
                "quadrature", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    # A quadrature channel draws no stream, so the header has no seed.
    assert re.fullmatch(r"# build [0-9a-f]{12} seed null", lines[0])
    assert lines[1] == CSV_HEADER
    assert lines[2].startswith("u1-conventional,result-averaged,")
    # table1 writes the same header over its 6 table rows and the 3
    # mean-result rows of the tight schemes.
    assert run(["table1", "--format", "csv", "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()[1:]
    assert header == CSV_HEADER
    assert len(rows) == 9
    interpretations = [row.split(",")[1] for row in rows]
    assert interpretations.count("mean-result-purity") == 3


def read_csv_rows(path):
    header, *lines = path.read_text().strip().splitlines()[1:]
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


@pytest.mark.parametrize("method, seed", [("quadrature", ""), ("mc", "5")])
def test_channel_csv_row_seed_is_the_drawn_stream(tmp_path, method, seed):
    # An exact row drew nothing, so it carries no seed; an MC row carries
    # the seed of the stream it drew.
    out = tmp_path / "c.csv"
    assert run(["channel", "--scheme", "su2-rod-tight", "--method", method,
                *SAMPLES, "--seed", "5", "--format", "csv",
                "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert [r["interpretation"] for r in rows] == ["result-averaged",
                                                   "mean-result-purity"]
    assert all(r["seed"] == seed for r in rows)


def test_scheme_alias_matches_canonical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["channel", "--method", "mc", *SAMPLES, "--result", "1"]
    assert run(args + ["--scheme", "su2-matched-tight", "--out", str(a)]) == 0
    assert run(args + ["--scheme", "su2-boct-tight", "--out", str(b)]) == 0
    assert read_json(a)["map_purity"] == read_json(b)["map_purity"]


def test_mean_result_row_reports_mean_linear_purity(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["channel", "--scheme", "su2-matched-tight", "--method", "mc",
                "--samples", "20000", "--seed", "0", "--format", "csv",
                "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()[1:]
    rows = {r["interpretation"]: r
            for r in (dict(zip(header.split(","), line.split(",")))
                      for line in rows)}
    per_result = ch.result_estimates(cli.builtin_scheme("su2-matched-tight"),
                                     range(4), "mc", 20000, 0)
    mean = np.mean([linear_purity_with_error(e)[0]
                    for e in per_result.values()])
    linear = float(rows["mean-result-purity"]["linear_purity"])
    assert linear == pytest.approx(mean, abs=5e-7)
    assert abs(linear - float(rows["result-averaged"]["linear_purity"])) > 0.01


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_rows_and_exact_su2_conventional(tmp_path, monkeypatch):
    # The JSON rows print six decimals; capture the full-precision figures
    # each row is formatted from.
    values = {}
    real_rows = cli._purity_rows

    def capture(name, *rest):
        figures, rows = real_rows(name, *rest)
        for interpretation, *figure in figures:
            values[(name, interpretation)] = figure
        return figures, rows

    monkeypatch.setattr(cli, "_purity_rows", capture)
    out = tmp_path / "t.json"
    assert run(["table1", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["meta"]["samples"] == 0 and payload["meta"]["seed"] is None
    rows = payload["table"]
    assert [(r["scheme"], r["interpretation"]) for r in rows] == [
        ("u1-conventional", "result-averaged"),
        ("u1-tight", "result-averaged"),
        ("u1-tight", "mean-result-purity"),
        ("su2-conventional", "result-1"),
        ("su2-conventional", "result-averaged"),
        ("su2-matched-tight", "result-averaged"),
        ("su2-matched-tight", "mean-result-purity"),
        ("su2-rod-tight", "result-averaged"),
        ("su2-rod-tight", "mean-result-purity"),
    ]
    # Every row is exact.
    assert all((r["samples"], r["stderr"], r["seed"]) == (0, "0.000000", None)
               for r in rows)
    averaged = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])
    u1_tight = cli.builtin_scheme("u1-tight")
    expected = {
        ("su2-conventional", "result-1"): 1 - np.log(3) / np.log(4),
        ("su2-conventional", "result-averaged"):
            1 + np.sum(averaged * np.log(averaged)) / np.log(4),
        ("su2-matched-tight", "mean-result-purity"): 0.450648886777,
        ("su2-rod-tight", "mean-result-purity"): 0.4523925057222,
        ("u1-tight", "mean-result-purity"): mean_result(
            ch.result_estimates(u1_tight, range(4), "quadrature"))[0],
    }
    for key, purity in expected.items():
        got, err, _ = values[key]
        assert abs(got - purity) <= 1e-12, key
        assert err == 0.0
    # Linear purity is convex in the channel, so the mean over the distinct
    # per-result channels exceeds that of their mix.
    for name in ("su2-matched-tight", "su2-rod-tight"):
        assert (values[(name, "mean-result-purity")][2]
                > values[(name, "result-averaged")][2] + 0.01)


def test_table1_rows_are_quadrature_channel_rows(tmp_path):
    # Each table row is the channel command's exact row, field by field
    # apart from the wall time.
    table = tmp_path / "t.csv"
    assert run(["table1", "--format", "csv", "--out", str(table)]) == 0
    rows = read_csv_rows(table)
    channel_rows = []
    for name, result in cli._TABLE1_ROWS:
        out = tmp_path / "c.csv"
        assert run(["channel", "--scheme", name, "--result", str(result),
                    "--method", "quadrature", "--format", "csv",
                    "--out", str(out)]) == 0
        channel_rows += read_csv_rows(out)
    assert len(rows) == len(channel_rows) == 9
    for row, expected in zip(rows, channel_rows):
        del row["seconds"], expected["seconds"]
        assert row == expected


# ---------------------------------------------------------------------------
# simulate / optimize
# ---------------------------------------------------------------------------

def test_simulate_perfect_scheme(tmp_path):
    out = tmp_path / "s.json"
    assert run(["simulate", "--scheme", "su2-btet-perfect", "--shots", "400",
                "--input", "1", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["input_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert sum(payload["result_counts"].values()) == 400


def test_optimize_u1(tmp_path):
    out = tmp_path / "o.json"
    assert run(["optimize", "--group", "u1", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["baseline"]["linear_purity"] == pytest.approx(0.625,
                                                                 abs=1e-9)
    assert payload["pauli_is_optimal"] is True


@pytest.mark.parametrize("group, extremes", [("u1", (5 / 8, 9 / 32)),
                                             ("su2", (1 / 3, 1 / 4))])
def test_optimize_reports_exact_extremes(tmp_path, group, extremes):
    out = tmp_path / "o.json"
    assert run(["optimize", "--group", group, "--out", str(out)]) == 0
    rows = read_json(out)["rows"]
    assert [r["label"] for r in rows] == ["pauli", "minimum"]
    for row, value in zip(rows, extremes):
        assert abs(row["linear_purity"] - value) <= 1e-15
        assert row["stderr"] == 0.0
    csv_out = tmp_path / "o.csv"
    assert run(["optimize", "--group", group, "--format", "csv",
                "--out", str(csv_out)]) == 0
    header, columns, *lines = csv_out.read_text().splitlines()
    assert header.endswith(" seed null")
    assert columns == "label,params,linear_purity,stderr" and len(lines) == 2


# ---------------------------------------------------------------------------
# meta: the samples drawn, and the seed of their stream where one was drawn
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, samples", [
    # Scheme checks are exact.
    (["verify", "--scheme", "u1-tight"], 0),
    (["verify", "--ueb", "pauli"], 0),
    (["channel", "--scheme", "u1-conventional"], 0),
    (["channel", "--scheme", "su2-rod-tight", "--method", "quadrature"], 0),
    (["channel", "--scheme", "su2-rod-tight", "--method", "mc"], 40000),
    # Every row is exact.
    (["table1"], 0),
    (["simulate", "--scheme", "u1-tight", "--shots", "300"], 300),
    (["optimize", "--group", "su2"], 0),
    # An averaged conventional channel draws one stream per result.
    (["channel", "--scheme", "su2-conventional", "--method", "mc"], 160000),
])
def test_meta_reports_what_ran(tmp_path, argv, samples):
    out = tmp_path / "m.json"
    assert run(argv + SAMPLES + ["--seed", "5", "--out", str(out)]) == 0
    meta = read_json(out)["meta"]
    assert meta["samples"] == samples
    assert meta["seed"] == (5 if samples else None)


# ---------------------------------------------------------------------------
# determinism and errors
# ---------------------------------------------------------------------------

# The pattern of a JSON seconds value, which strip_timing here and the
# determinism check of perfbench/worker.py both remove.
SECONDS = r'"seconds": [0-9.e+-]+'


def strip_timing(text):
    return re.sub(SECONDS, '"seconds": 0', text)


def test_repeated_runs_are_identical_up_to_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["channel", "--scheme", "su2-rod-tight", "--method", "mc",
            *SAMPLES, "--seed", "7", "--result", "1"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())


def test_table1_runs_are_identical_up_to_timing(tmp_path):
    # A table row's JSON seconds is a number, like every JSON seconds, so
    # strip_timing removes it; the CSV rows keep three decimals.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["table1", "--out", str(a)]) == 0
    assert run(["table1", "--out", str(b)]) == 0
    assert all(isinstance(row["seconds"], float)
               for row in read_json(a)["table"])
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
    csv_out = tmp_path / "t.csv"
    assert run(["table1", "--format", "csv", "--out", str(csv_out)]) == 0
    assert all(re.fullmatch(r"[0-9]+\.[0-9]{3}", row["seconds"])
               for row in read_csv_rows(csv_out))


# ---------------------------------------------------------------------------
# per-process caches: parser, build id, schemes, fourth moments
# ---------------------------------------------------------------------------

def test_schemes_are_built_once():
    assert (cli.builtin_scheme("su2-boct-tight")
            is cli.builtin_scheme("su2-matched-tight"))
    for name in cli.SCHEME_NAMES:
        assert cli.builtin_scheme(name) is cli.builtin_scheme(name)
    # A failed lookup is not cached: every call raises again.
    for _ in range(2):
        with pytest.raises(cli.ConfigError, match="unknown scheme"):
            cli.builtin_scheme("su3-tight")


def test_build_id_is_the_hash_of_the_sources():
    assert cli.build_id() == cli.build_id.__wrapped__()


def test_build_id_follows_the_sources(tmp_path, monkeypatch):
    # The id hashes the sources' names and bytes, wherever they are: a
    # copy of the package has the id of the original, and one changed byte
    # of one module changes it.
    package = tmp_path / "frameport"
    shutil.copytree(Path(cli.__file__).resolve().parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
    before = cli.build_id.__wrapped__()
    module = package / "channel.py"
    data = bytearray(module.read_bytes())
    data[len(data) // 2] ^= 1
    module.write_bytes(bytes(data))
    after = cli.build_id.__wrapped__()
    assert before == cli.build_id()
    assert after != before
    for build in (before, after):
        assert re.fullmatch("[0-9a-f]{12}", build), build


def test_cached_tight_quadrature_keeps_its_pinned_values():
    # The first call computes each scheme's pair moment and later calls
    # reuse it; both give the exact mean-result purities.
    for name, mean in (("su2-matched-tight", 0.450648886777),
                       ("su2-rod-tight", 0.4523925057222)):
        scheme = cli.builtin_scheme(name)
        for _ in range(2):
            ests = ch.result_estimates(scheme, range(4), "quadrature")
            assert abs(mean_result(ests)[0] - mean) <= 1e-12
        assert scheme.pair_moment is scheme.pair_moment


def test_verify_runs_every_scheme_check_on_each_call(tmp_path, monkeypatch):
    from frameport import encoding as enc
    calls = []
    real = enc.check_scheme

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(enc, "check_scheme", counted)
    out = tmp_path / "v.json"
    for _ in range(2):
        assert run(["verify", "--all", "--out", str(out)]) == 0
    assert len(calls) == 2 * len(cli.ENCODED_SCHEMES)


# Every command, with the schemes' default paths and some MC ones.
_EVERY_COMMAND = (
    ["verify", "--all"],
    ["verify", "--scheme", "su2-rod-tight"],
    ["verify", "--ueb", "tetrahedral"],
    ["table1"],
    *(["channel", "--scheme", name] for name in cli.SCHEME_NAMES),
    ["channel", "--scheme", "su2-boct-tight", "--result", "2"],
    ["channel", "--scheme", "su2-rod-tight", "--method", "mc", *SAMPLES],
    ["channel", "--scheme", "su2-btet-perfect", "--method", "mc", *SAMPLES],
    *(["simulate", "--scheme", name, "--shots", "300"]
      for name in cli.SCHEME_NAMES),
    ["optimize", "--group", "u1"],
    ["optimize", "--group", "su2"],
)


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


def _arrays(obj, path: str):
    """(path, array) of every array under obj's record fields, dicts,
    tuples and lists.  The fields of a record are those of a NamedTuple's
    _asdict(), or the attributes of a frameport object less its cached
    properties, which a fresh build has not filled yet."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif hasattr(obj, "_asdict") or type(obj).__module__.startswith(
            "frameport."):
        fields = obj._asdict() if hasattr(obj, "_asdict") else {
            name: value for name, value in vars(obj).items()
            if not isinstance(getattr(type(obj), name, None),
                              functools.cached_property)}
        for name, value in fields.items():
            yield from _arrays(value, f"{path}.{name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _arrays(value, f"{path}[{key}]")
    elif isinstance(obj, (tuple, list)):
        for key, value in enumerate(obj):
            yield from _arrays(value, f"{path}[{key}]")


def _assert_same_arrays(got, want, path: str) -> list[str]:
    """Check that got and want hold equal arrays at the same paths, and
    return those paths."""
    got, want = dict(_arrays(got, path)), dict(_arrays(want, path))
    assert got.keys() == want.keys()
    for key, array in got.items():
        np.testing.assert_array_equal(array, want[key], err_msg=key)
    return list(got)


def test_cached_builds_survive_every_command():
    # No command changes what the process built once: after every command
    # has run, each cached scheme, subgroup and fourth moment equals a fresh
    # build, and a second run of each command prints what the first did.
    first = {" ".join(argv): strip_timing(_stdout(argv))
             for argv in _EVERY_COMMAND}
    for name in cli.SCHEME_NAMES:
        cached = cli.builtin_scheme(name)
        fresh = cli._build_scheme.__wrapped__(name)
        paths = _assert_same_arrays(cached, fresh, name)
        # The walk reaches into the scheme, so the check is not empty.
        assert f"{name}.basis.quats" in paths, name
        if cached.indices:
            assert any(p.startswith(f"{name}.eq.") for p in paths), name
        if cached.kind == "tight":
            np.testing.assert_array_equal(
                cached.pair_moment,
                groups.pair_fourth_moment(fresh.moment_fn()))
    for name, build in groups.SUBGROUPS.items():
        _assert_same_arrays(build(), build.__wrapped__(), name)
    for group in ("u1", "su2"):
        np.testing.assert_array_equal(
            groups.haar_fourth_moment(group),
            groups.haar_fourth_moment.__wrapped__(group))
    for argv in _EVERY_COMMAND:
        assert strip_timing(_stdout(argv)) == first[" ".join(argv)], argv


def _seconds_values(obj):
    """Every value under a "seconds" key of a parsed payload."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "seconds":
                yield value
            else:
                yield from _seconds_values(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _seconds_values(value)


def test_json_output_is_one_line_with_matchable_seconds():
    # JSON output is compact: one line, which json.loads reads back and
    # json.dumps writes again exactly, and every seconds value in it is a
    # number that the SECONDS pattern matches.
    for argv in _EVERY_COMMAND:
        text = _stdout(argv)
        assert text.endswith("\n") and text.count("\n") == 1, argv
        payload = json.loads(text)
        assert json.dumps(payload) + "\n" == text, argv
        seconds = list(_seconds_values(payload))
        assert all(isinstance(s, float) for s in seconds), argv
        matched = re.findall(SECONDS, text)
        assert [float(m.split(": ")[1]) for m in matched] == seconds, argv
    assert len(list(_seconds_values(json.loads(_stdout(["table1"]))))) == 9


def test_shared_parser_parses_after_a_config_error():
    assert cli._parser() is cli._parser()
    argv = ["channel", "--scheme", "u1-tight"]
    before = strip_timing(_stdout(argv))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        # A bad value, an unknown option and an unknown scheme.
        for bad in (argv + ["--samples", "10"], argv + ["--bogus"],
                    ["channel", "--scheme", "su3-tight"]):
            assert run(bad) == 2
            assert strip_timing(_stdout(argv)) == before


def test_unknown_scheme_is_config_error(capsys):
    assert run(["channel", "--scheme", "su3-tight"]) == 2
    assert "scheme" in capsys.readouterr().err


def test_tiny_sample_budget_is_config_error():
    assert run(["channel", "--scheme", "su2-conventional",
                "--samples", "10"]) == 2


def test_channel_reports_pre_norm_deviation(tmp_path):
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "su2-rod-tight", "--method", "mc",
                *SAMPLES, "--out", str(out)]) == 0
    # |I_k| N_acc / N of the tight estimator, before TP rescaling.
    assert 0.0 < read_json(out)["pre_norm_deviation"] < 0.05
    # The exact default is trace preserving up to rounding.
    assert run(["channel", "--scheme", "su2-rod-tight", "--out", str(out)]) \
        == 0
    assert read_json(out)["pre_norm_deviation"] < 1e-12
    assert run(["channel", "--scheme", "su2-conventional", "--method", "mc",
                *SAMPLES, "--out", str(out)]) == 0
    assert read_json(out)["pre_norm_deviation"] == 0.0


def test_perfect_scheme_mc_outside_orbit_is_identity(tmp_path):
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "u1-perfect", "--method", "mc",
                *SAMPLES, "--out", str(out)]) == 0
    assert read_json(out)["map_purity"] == pytest.approx(1.0, abs=1e-9)


def test_perfect_scheme_default_result_is_labelled_result_0(tmp_path):
    # A perfect scheme's channel is computed for result 0 unless another
    # result is asked for, and the output says so in JSON and CSV.  For
    # u1-perfect, result 0 lies outside the orbit: an exact identity.
    out = tmp_path / "c.json"
    assert run(["channel", "--scheme", "su2-btet-perfect", "--method", "mc",
                *SAMPLES, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["interpretation"] == "result-0"
    assert (payload["method"], payload["samples"]) == ("monte-carlo", 40000)
    assert run(["channel", "--scheme", "u1-perfect", "--method", "mc",
                *SAMPLES, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["interpretation"] == "result-0"
    assert (payload["method"], payload["samples"]) == ("quadrature", 0)
    csv_out = tmp_path / "c.csv"
    assert run(["channel", "--scheme", "u1-perfect", "--format", "csv",
                "--out", str(csv_out)]) == 0
    assert csv_out.read_text().splitlines()[2].startswith(
        "u1-perfect,result-0,")


_NEGATIVE = st.integers(max_value=-1)
_WORDS = st.text("abcxyz._", min_size=1, max_size=4)


def _cases():
    seed = st.one_of(_NEGATIVE, st.integers(min_value=2 ** 64)).map(
        lambda v: ["channel", "--scheme", "u1-conventional", "--seed", str(v)])
    result = st.tuples(
        st.sampled_from(cli.SCHEME_NAMES),
        st.one_of(_NEGATIVE, st.integers(min_value=4), _WORDS)).map(
        lambda c: ["channel", "--scheme", c[0], "--result", str(c[1])])
    inputs = st.tuples(
        st.sampled_from(cli.SCHEME_NAMES),
        st.one_of(_NEGATIVE, st.integers(min_value=2))).map(
        lambda c: ["simulate", "--scheme", c[0], "--input", str(c[1])])
    shots = st.integers(max_value=0).map(
        lambda v: ["simulate", "--scheme", "u1-tight", "--shots", str(v)])
    unknown_method = st.tuples(st.sampled_from(cli.SCHEME_NAMES), _WORDS).map(
        lambda c: ["channel", "--scheme", c[0], "--method", c[1]])
    samples = st.integers(max_value=999).map(
        lambda v: ["channel", "--scheme", "u1-conventional",
                   "--samples", str(v)])
    threads = st.integers(max_value=0).map(
        lambda v: ["optimize", "--group", "u1", "--threads", str(v)])
    scheme = _WORDS.map(lambda w: ["channel", "--scheme", w])
    # --method belongs to channel alone.
    method = st.tuples(
        st.sampled_from([["verify"], ["table1"],
                         ["simulate", "--scheme", "u1-tight"],
                         ["optimize", "--group", "u1"]]),
        st.sampled_from(["mc", "quadrature"])).map(
        lambda c: c[0] + ["--method", c[1]])
    # verify takes one selector: --all, --scheme, or --ueb with --subgroup.
    selectors = st.sampled_from([
        ["verify", "--all", "--scheme", "u1-tight"],
        ["verify", "--all", "--ueb", "pauli"],
        ["verify", "--all", "--subgroup", "z4"],
        ["verify", "--scheme", "u1-tight", "--ueb", "pauli"],
        ["verify", "--scheme", "u1-tight", "--ueb", "tetrahedral",
         "--subgroup", "z4"],
    ])
    return st.one_of(seed, result, inputs, shots, unknown_method, samples,
                     threads, scheme, method, selectors)


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_invalid_arguments_exit_2_with_one_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    # Force a check to fail and confirm exit code 1 (not 2).
    from frameport import encoding as enc
    real = enc.check_scheme
    monkeypatch.setattr(enc, "check_scheme",
                        lambda *a, **k: ((False, {"reason": "forced"}),
                                         (True, {})))
    out = tmp_path / "v.json"
    assert run(["verify", "--scheme", "u1-tight", "--out", str(out)]) == 1
    assert read_json(out)["ok"] is False
    monkeypatch.setattr(enc, "check_scheme", real)
