import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blab
from blab import BoundReport, cli, parse_zero_line
from test_regions import _reference_sample_zeros


@pytest.fixture(autouse=True)
def clean_threads_env(monkeypatch):
    monkeypatch.delenv("BLAB_THREADS", raising=False)


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def lemma_cfg(samples=2000, seed=7, **extra):
    cfg = {
        "region": {
            "model": {"kind": "linear"},
            "K": 1.0,
            "set": {"points": [0.0]},
        },
        "samples": samples,
        "seed": seed,
    }
    cfg.update(extra)
    return cfg


PAIR_ZEROS = "0.5 0.0\n-0.5 0.0\n"


# per field: the subcommand, a config with "BIG" where the number goes, its path
NON_FINITE = {
    "K": ("region-boundary",
          {"model": {"kind": "linear"}, "K": "BIG", "resolution": 4}, "config.K"),
    "vertex_angle": ("region-boundary",
                     {"model": {"kind": "linear"}, "K": 1.0, "resolution": 8,
                      "vertex_angle": "BIG"}, "config.vertex_angle"),
    "rho": ("critical-sum",
            {"zeros": "pair.txt", "set": {"points": [0.0]}, "rho": "BIG", "beta": 1.0,
             "eps": 0.5}, "config.rho"),
    "p_list": ("means-trend",
               {"family": {"kind": "radial_geometric"}, "p_list": ["BIG"], "truncations": [3]},
               "config.p_list[0]"),
}


REGION_BOUNDARY = {"model": {"kind": "linear"}, "K": 1.0, "resolution": 8}
CRITICAL_SUM = {"zeros": "pair.txt", "set": {"points": [0.0]}, "rho": 1.0, "beta": 1.0,
                "eps": 0.5}
MEANS_TREND = {"family": {"kind": "radial_geometric"}, "p_list": [1.0], "truncations": [3]}
# per case: the subcommand, its config, and the error it must print
TYPE_ERRORS = {
    "object": ("region-boundary", dict(REGION_BOUNDARY, model=5),
               "config.model: expected an object"),
    "number": ("region-boundary", dict(REGION_BOUNDARY, vertex_angle="0"),
               "config.vertex_angle: expected a number"),
    "positive": ("region-boundary", dict(REGION_BOUNDARY, K=-1.0),
                 "config.K: must be positive"),
    "integer": ("region-boundary", dict(REGION_BOUNDARY, resolution=8.5),
                "config.resolution: expected an integer"),
    "string": ("critical-points", {"zeros": 5}, "config.zeros: expected a non-empty string"),
    "array": ("means-trend", dict(MEANS_TREND, p_list=1.0),
              "config.p_list: expected a non-empty array of numbers"),
    "constructor": ("region-boundary",
                    dict(REGION_BOUNDARY, model={"kind": "power", "gamma": 0.5}),
                    "config.model: power variant needs finite gamma >= 1, got 0.5"),
    "boundary-file": ("critical-sum", dict(CRITICAL_SUM, set="missing.json"),
                      "config.set: cannot read "),
    "boundary-kind": ("critical-sum", dict(CRITICAL_SUM, set=5),
                      "config.set: expected a file path or an inline boundary object"),
    "radial-ratio": ("means-trend",
                     dict(MEANS_TREND, family={"kind": "radial_geometric", "ratio": 1.5}),
                     "config.family.ratio: must lie in (0, 1)"),
}


class TestConfigRejection:
    @pytest.mark.parametrize("case", sorted(TYPE_ERRORS))
    def test_type_errors_name_their_path(self, case, tmp_path, capsys):
        command, payload, message = TYPE_ERRORS[case]
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        cfg = write_cfg(tmp_path, payload)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    def test_unknown_top_level_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lemma_cfg(bogus=1))
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.bogus: unknown field" in capsys.readouterr().err

    def test_nested_unknown_field_path(self, tmp_path, capsys):
        payload = lemma_cfg()
        payload["region"]["model"]["zzz"] = 1
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.region.model.zzz: unknown field" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        payload = lemma_cfg()
        del payload["samples"]
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.samples: required field missing" in capsys.readouterr().err
        payload = lemma_cfg()
        payload["region"]["model"] = {"kind": "power"}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.region.model.gamma: required field missing" in capsys.readouterr().err

    def test_invalid_json_carries_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "region": }\n')
        code = cli.main(["verify-lemma", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json:2:13: invalid JSON" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["verify-lemma", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{}")
        code = cli.main(["verify-lemma", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert f"config error: cannot read config {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_non_finite_constant_in_config(self, tmp_path, capsys):
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        path = tmp_path / "sum.json"
        path.write_text('{"zeros": "pair.txt", "set": {"points": [0.0]},'
                        ' "rho": 1.0, "beta": NaN, "eps": 0.5}')
        code = cli.main(["critical-sum", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: invalid JSON: NaN is not a JSON number" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_constant_in_inline_set(self, tmp_path, capsys):
        path = tmp_path / "beta.json"
        path.write_text('{"set": {"points": [-Infinity]}}')
        assert cli.main(["beta-estimate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{path}: invalid JSON: -Infinity is not a JSON number" in capsys.readouterr().err

    def test_non_finite_constant_in_boundary_file(self, tmp_path, capsys):
        (tmp_path / "set.json").write_text('{"points": [NaN]}')
        cfg = write_cfg(tmp_path, {"set": "set.json"})
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config.set: bad boundary file {tmp_path / 'set.json'}: NaN is not" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lemma_cfg())
        code = cli.main(["verify-lemma", "--config", cfg, "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "config error: --seed: must be at least 0" in capsys.readouterr().err

    def test_seed_required_for_randomized(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lemma_cfg(seed=None))
        payload = json.loads((tmp_path / "cfg.json").read_text())
        del payload["seed"]
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.seed: required" in capsys.readouterr().err

    def test_seed_rejected_for_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0,
                                   "resolution": 8, "seed": 4})
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_seed_flag_rejected_for_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0,
                                   "resolution": 8})
        code = cli.main(["region-boundary", "--config", cfg, "--seed", "4",
                         "--out", str(tmp_path)])
        assert code == 2

    def test_bad_model_kind(self, tmp_path, capsys):
        payload = lemma_cfg()
        payload["region"]["model"] = {"kind": "cubic"}
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "model.kind" in capsys.readouterr().err

    def test_degree_window_ordering(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0,
                       "set": {"points": [0.0]}},
            "products": {"count": 1, "min_degree": 9, "max_degree": 3},
            "grid_points": 10,
            "seed": 1,
        })
        assert cli.main(["verify-theorem1", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "min_degree exceeds max_degree" in capsys.readouterr().err

    def test_envelope_source_exclusivity(self, tmp_path, capsys):
        (tmp_path / "z.txt").write_text(PAIR_ZEROS)
        both = write_cfg(tmp_path, {
            "rho": 1.0,
            "zeros": "z.txt",
            "set": {"points": [0.0]},
            "sampling": {"region": {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                                    "set": {"points": [0.0]}},
                         "law": {"kind": "power", "exponent": 2.0}, "count": 5},
            "seed": 3,
        }, name="both.json")
        assert cli.main(["envelope-fit", "--config", both, "--out", str(tmp_path)]) == 2
        assert "exactly one of zeros | sampling" in capsys.readouterr().err
        neither = write_cfg(tmp_path, {"rho": 1.0}, name="neither.json")
        assert cli.main(["envelope-fit", "--config", neither, "--out", str(tmp_path)]) == 2

    def test_envelope_zeros_need_set(self, tmp_path, capsys):
        (tmp_path / "z.txt").write_text(PAIR_ZEROS)
        cfg = write_cfg(tmp_path, {"rho": 1.0, "zeros": "z.txt"})
        assert cli.main(["envelope-fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.set: required" in capsys.readouterr().err

    def test_out_allows_only_known_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, lemma_cfg(out={"bogus": "x.json"}))
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.out.bogus: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_non_finite_number(self, field, literal, tmp_path, capsys):
        # json reads an overflowing literal as +-inf, past parse_constant
        command, payload, path = NON_FINITE[field]
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload).replace('"BIG"', literal))
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: expected a finite number\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,name", [("report", "sub/x.json"), ("report", "."),
                                          ("report", ".."), ("csv", "../c.csv")])
    def test_out_names_are_plain_file_names(self, key, name, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0, "resolution": 4,
                                   "out": {key: name}})
        out = tmp_path / "out"
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(out)]) == 2
        assert (f"config.out.{key}: expected a plain file name, got {name!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_out_dir_that_cannot_be_made(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0, "resolution": 4})
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            assert cli.main(["region-boundary", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: cannot create output directory {out}: ")
        assert blocker.read_text() == ""

    def test_out_names_that_collide(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0, "resolution": 4,
                                   "out": {"report": "a.csv", "csv": "a.csv"}})
        out = tmp_path / "out"
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.out: report and csv both name 'a.csv'\n")
        assert not out.exists()

    def test_out_name_that_collides_with_a_default(self, tmp_path, capsys):
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        cfg = write_cfg(tmp_path, {"zeros": "pair.txt",
                                   "out": {"points": "critical_points_residuals.json"}})
        out = tmp_path / "out"
        assert cli.main(["critical-points", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: config.out: points and residuals "
                                           "both name 'critical_points_residuals.json'\n")
        assert not out.exists()

    @pytest.mark.parametrize("out_names, name", [({"report": "d"}, "d"),
                                                 ({}, "region_boundary.csv")],
                             ids=["given", "default"])
    def test_out_name_that_is_a_directory(self, out_names, name, tmp_path, capsys):
        key = "report" if out_names else "csv"
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0, "resolution": 4,
                                   "out": out_names})
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config.out.{key}: {name!r} is a directory in {out}\n")
        assert [p.name for p in out.rglob("*")] == [name]

    def test_threads_env_validated(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, lemma_cfg(samples=10))
        monkeypatch.setenv("BLAB_THREADS", "abc")
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "BLAB_THREADS" in capsys.readouterr().err
        monkeypatch.setenv("BLAB_THREADS", "0")
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 2


def small_config(command, tmp_path):
    """A quick config for each subcommand; zeros files land in tmp_path."""
    (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
    vertex = {"points": [0.0]}
    return {
        "verify-lemma": lemma_cfg(samples=50),
        "verify-theorem1": {
            "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0, "set": vertex},
            "products": {"count": 1, "min_degree": 2, "max_degree": 3},
            "grid_points": 20, "seed": 1,
        },
        "critical-points": {"zeros": "pair.txt"},
        "critical-sum": {"zeros": "pair.txt", "set": vertex,
                         "rho": 1.0, "beta": 1.0, "eps": 0.5},
        "beta-estimate": {"set": vertex},
        "means-trend": {"family": {"kind": "radial_geometric"}, "p_list": [1.0],
                        "truncations": [3], "r_grid": [0.5]},
        "envelope-fit": {"rho": 1.0, "zeros": "pair.txt", "set": vertex,
                         "grid": {"depth": 4, "rays": 2, "ring": 8}},
        "region-boundary": {"model": {"kind": "linear"}, "K": 1.0, "resolution": 4},
    }[command]


class TestReportPath:
    @pytest.mark.parametrize("command", sorted(cli._RUNNERS))
    def test_report_name_experiment_and_threads(self, command, tmp_path, monkeypatch):
        payload = small_config(command, tmp_path)
        monkeypatch.setenv("BLAB_THREADS", "3")
        default_out = tmp_path / "default"
        assert cli.main([command, "--config", write_cfg(tmp_path, payload),
                         "--out", str(default_out)]) == 0
        rep = json.loads((default_out / f"{command}.json").read_text())
        assert rep["experiment"] == command
        assert rep["config"]["threads"] == 3

        monkeypatch.delenv("BLAB_THREADS")
        payload["out"] = {"report": "named.json"}
        named_out = tmp_path / "named"
        assert cli.main([command, "--config", write_cfg(tmp_path, payload, "named.json"),
                         "--out", str(named_out)]) == 0
        rep = json.loads((named_out / "named.json").read_text())
        assert not (named_out / f"{command}.json").exists()
        assert rep["experiment"] == command
        assert rep["config"]["threads"] is None


VERTEX = {"points": [0.0]}
EXP_REGION = {"model": {"kind": "exp", "rho": 1.0}, "K": 2, "set": VERTEX}
EXP_MODEL = {"kind": "exp", "param": 1.0}
POWER_LAW = {"kind": "power", "exponent": 2.0, "scale": 0.5}

# (command, config, extra argv, BLAB_THREADS, the report's config) per case;
# the configs leave out every optional field with a default, so the echo
# shows the defaults filled in, and the regions spread into their parent
CONFIG_ECHO = {
    "verify-lemma": (
        "verify-lemma",
        {"region": EXP_REGION, "samples": 5, "seed": 1, "out": {"csv": "w.csv"}},
        ["--seed", "4"], "2",
        {"model": EXP_MODEL, "K": 2.0, "set": VERTEX, "samples": 5, "seed": 4,
         "threads": 2}),
    "verify-theorem1": (
        "verify-theorem1",
        {"region": EXP_REGION, "products": {"count": 1, "min_degree": 2, "max_degree": 3},
         "grid_points": 5, "seed": 3},
        [], None,
        {"model": EXP_MODEL, "K": 2.0, "set": VERTEX,
         "products": {"count": 1, "min_degree": 2, "max_degree": 3}, "grid_points": 5,
         "law": {"kind": "geometric", "ratio": 0.5}, "seed": 3, "threads": None}),
    "critical-points": (
        "critical-points", {"zeros": "pair.txt", "out": {"points": "p.txt"}}, [], None,
        {"zeros": "pair.txt", "threads": None}),
    "critical-sum": (
        "critical-sum",
        {"zeros": "pair.txt", "set": {"arcs": [[0, 1]]}, "rho": 1, "beta": -1,
         "eps": 0.5},
        [], "1",
        {"zeros": "pair.txt", "set": {"arcs": [[0.0, 1.0]]}, "rho": 1.0, "beta": -1.0,
         "eps": 0.5, "threads": 1}),
    "beta-estimate": (
        "beta-estimate", {"set": VERTEX}, [], None,
        {"set": VERTEX, "k_min": 4, "k_max": 14, "threads": None}),
    "means-trend/radial": (
        "means-trend",
        {"family": {"kind": "radial_geometric"}, "p_list": [1], "truncations": [2]},
        [], None,
        {"family": {"kind": "radial_geometric", "ratio": 0.5}, "p_list": [1.0],
         "truncations": [2], "r_grid": [0.9, 0.99, 0.999], "seed": None,
         "threads": None}),
    "means-trend/sampled": (
        "means-trend",
        {"family": {"kind": "region_sampled", "region": EXP_REGION, "law": POWER_LAW},
         "p_list": [0.5], "truncations": [2], "r_grid": [0.5], "seed": 6},
        [], None,
        {"family": {"kind": "region_sampled", "model": EXP_MODEL, "K": 2.0, "set": VERTEX,
                    "law": POWER_LAW},
         "p_list": [0.5], "truncations": [2], "r_grid": [0.5], "seed": 6,
         "threads": None}),
    "envelope-fit/zeros": (
        "envelope-fit", {"rho": 1, "zeros": "pair.txt", "set": VERTEX}, [], None,
        {"zeros": "pair.txt", "set": VERTEX, "rho": 1.0,
         "grid": {"depth": 14, "rays": 12, "ring": 64}, "seed": None, "threads": None}),
    "envelope-fit/sampling": (
        "envelope-fit",
        {"rho": 1.0, "sampling": {"region": EXP_REGION, "law": {"kind": "geometric"},
                                  "count": 3},
         "grid": {"rays": 2, "ring": 8, "depth": 4}, "seed": 8},
        [], None,
        {"sampling": {"model": EXP_MODEL, "K": 2.0, "set": VERTEX,
                      "law": {"kind": "geometric", "ratio": 0.5}, "count": 3},
         "set": VERTEX, "rho": 1.0, "grid": {"depth": 4, "rays": 2, "ring": 8},
         "seed": 8, "threads": None}),
    "region-boundary": (
        "region-boundary", {"model": {"kind": "power", "gamma": 2}, "K": 1, "resolution": 3},
        [], None,
        {"model": {"kind": "power", "param": 2.0}, "K": 1.0, "vertex_angle": 0.0,
         "resolution": 3, "threads": None}),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ECHO))
def test_report_config_echo(case, tmp_path, monkeypatch):
    """The report's `config` is the parsed config with its defaults filled in."""
    command, payload, argv, threads, expected = CONFIG_ECHO[case]
    (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
    if threads is not None:
        monkeypatch.setenv("BLAB_THREADS", threads)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_cfg(tmp_path, payload), *argv,
                     "--out", str(out)]) == 0
    rep = json.loads((out / f"{command}.json").read_text())
    # compared as text, so that an integer written for a float shows
    assert json.dumps(rep["config"], sort_keys=True) == json.dumps(expected, sort_keys=True)


class TestVerifyLemma:
    def test_clean_run_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, lemma_cfg(out={"report": "rep.json", "csv": "wit.csv"}))
        out = tmp_path / "out"
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "rep.json").read_text())
        assert rep["experiment"] == "verify-lemma"
        assert rep["inequality"] == cli.LEMMA_TAG
        assert rep["results"]["violations"] == 0
        assert rep["results"]["samples"] == 2000
        assert rep["results"]["bound"] == 3.0
        assert rep["config"]["threads"] is None
        csv_lines = (out / "wit.csv").read_text().splitlines()
        assert csv_lines[0] == "rank,ratio,z_re,z_im,t_re,t_im,lambda_re,lambda_im"
        assert len(csv_lines) == 11

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, lemma_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "verify-lemma.json").read_bytes() == (out2 / "verify-lemma.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, lemma_cfg(seed=5))
        out = tmp_path / "out"
        assert cli.main(["verify-lemma", "--config", cfg, "--seed", "9",
                         "--out", str(out)]) == 0
        rep = json.loads((out / "verify-lemma.json").read_text())
        assert rep["config"]["seed"] == 9

    def test_threads_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BLAB_THREADS", "4")
        cfg = write_cfg(tmp_path, lemma_cfg(samples=50))
        out = tmp_path / "out"
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "verify-lemma.json").read_text())
        assert rep["config"]["threads"] == 4

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        # the inequality itself cannot fail, so fake one report to pin the
        # driver's exit-code contract
        fake = BoundReport(samples=1, violations=1, worst_ratio=2.0,
                           worst_witness={"ratio": 2.0, "z": 0j, "t": 1 + 0j,
                                          "lambda": 0j})
        monkeypatch.setattr(cli, "lemma_check", lambda *a, **k: fake)
        cfg = write_cfg(tmp_path, lemma_cfg(samples=1))
        assert cli.main(["verify-lemma", "--config", cfg, "--out", str(tmp_path)]) == 1


class TestVerifyTheorem1:
    def test_clean_run(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0,
                       "set": {"points": [0.0]}},
            "products": {"count": 3, "min_degree": 2, "max_degree": 6},
            "grid_points": 200,
            "law": {"kind": "power", "exponent": 2.0, "scale": 0.5},
            "seed": 11,
            "out": {"report": "thm.json", "csv": "rows.csv"},
        })
        out = tmp_path / "out"
        assert cli.main(["verify-theorem1", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "thm.json").read_text())
        assert rep["inequality"] == cli.THEOREM_TAG
        assert rep["results"]["violations"] == 0
        assert rep["results"]["samples"] == 600
        assert rep["results"]["worst_witness"]["lhs"] <= rep["results"]["worst_witness"]["rhs"]
        rows = (out / "rows.csv").read_text().splitlines()
        assert rows[0] == "product,degree,worst_ratio,violations"
        assert len(rows) == 4


class TestCriticalPoints:
    def test_artifacts(self, tmp_path):
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        cfg = write_cfg(tmp_path, {"zeros": "pair.txt"})
        out = tmp_path / "out"
        assert cli.main(["critical-points", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "critical-points.json").read_text())
        assert rep["results"]["degree"] == 2
        assert rep["results"]["count"] == 1
        assert rep["results"]["max_residual"] < 1e-10
        body = [parse_zero_line(ln) for ln in
                (out / "critical_points.txt").read_text().splitlines()]
        pts = [z for z in body if z is not None]
        assert len(pts) == 1 and abs(pts[0]) < 1e-10
        res = json.loads((out / "critical_points_residuals.json").read_text())
        assert len(res["residuals"]) == 1

    def test_missing_zeros_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"zeros": "absent.txt"})
        assert cli.main(["critical-points", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.zeros: cannot read" in capsys.readouterr().err

    def test_zeros_file_not_utf8(self, tmp_path, capsys):
        (tmp_path / "latin.txt").write_bytes(b"\xff\xfe0.5 0.0\n")
        cfg = write_cfg(tmp_path, {"zeros": "latin.txt"})
        assert cli.main(["critical-points", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config.zeros: cannot read {tmp_path / 'latin.txt'}: 'utf-8' codec" in err

    def test_nan_zero_is_config_error(self, tmp_path, capsys):
        (tmp_path / "nan.txt").write_text("0.5 0.0\nnan 0\n")
        cfg = write_cfg(tmp_path, {"zeros": "nan.txt"})
        assert cli.main(["critical-points", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: config.zeros: zero #1 " in capsys.readouterr().err

    def test_unresolvable_cluster_is_numerical_failure(self, tmp_path, capsys):
        zs = 1.0 - 0.5 ** np.arange(1, 31)
        (tmp_path / "deep.txt").write_text("".join(f"{float(z)!r} 0.0\n" for z in zs))
        cfg = write_cfg(tmp_path, {"zeros": "deep.txt"})
        assert cli.main(["critical-points", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure (RootFindingError)" in capsys.readouterr().err


class TestCriticalSum:
    def test_pair_totals(self, tmp_path):
        (tmp_path / "pair.txt").write_text(PAIR_ZEROS)
        cfg = write_cfg(tmp_path, {
            "zeros": "pair.txt",
            "set": {"points": [0.0]},
            "rho": 1.0, "beta": 1.0, "eps": 0.5,
            "out": {"csv": "series.csv"},
        })
        out = tmp_path / "out"
        assert cli.main(["critical-sum", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "critical-sum.json").read_text())
        res = rep["results"]
        # single critical point at the origin: gap 1, distance 1
        assert res["critical_count"] == 1
        assert res["weighted_total"] == pytest.approx(1.0, abs=1e-9)
        assert res["log_weighted_total"] == pytest.approx(1.0, abs=1e-9)
        assert res["unweighted_total"] == pytest.approx(1.0, abs=1e-9)
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "index,term,partial_sum" and len(lines) == 2


class TestBetaEstimate:
    def test_point_set(self, tmp_path):
        cfg = write_cfg(tmp_path, {"set": {"points": [0.0]}})
        out = tmp_path / "out"
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "beta-estimate.json").read_text())
        assert rep["results"]["beta"] == pytest.approx(1.0, abs=0.01)
        assert len(rep["results"]["x_grid"]) == 11
        assert len(rep["results"]["neighborhood_measures"]) == 11

    def test_measures_computed_once_and_report_unchanged(self, tmp_path, monkeypatch):
        # the slope and the reported measures share one pass over the grid;
        # the report must be the one of fitting and measuring separately
        cfg = write_cfg(tmp_path, {"set": {"cantor": {
            "base": [0.0, 6.283185307179586], "ratio": 0.3333333333333333, "depth": 14}}})
        shared, separate = tmp_path / "shared", tmp_path / "separate"
        calls = []
        measure = blab.BoundarySet.neighborhood_measure

        def counted(self, x):
            calls.append(x)
            return measure(self, x)

        monkeypatch.setattr(blab.BoundarySet, "neighborhood_measure", counted)
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(shared)]) == 0
        assert len(calls) == 11

        def fit_then_measure(boundary_set, grid):
            return (blab.type_beta(boundary_set, grid),
                    np.asarray([boundary_set.neighborhood_measure(float(x)) for x in grid]))

        monkeypatch.setattr(cli, "_type_beta", fit_then_measure)
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(separate)]) == 0
        assert len(calls) == 33
        assert ((shared / "beta-estimate.json").read_bytes()
                == (separate / "beta-estimate.json").read_bytes())

    def test_shallow_cantor_fails_at_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "set": {"cantor": {"base": [0.0, 1.0], "ratio": 0.3333333333333333,
                               "depth": 6}},
        })
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure (DomainError)" in capsys.readouterr().err

    def test_scale_window_validated(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"set": {"points": [0.0]}, "k_min": 4, "k_max": 5})
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "k_max" in capsys.readouterr().err

    @pytest.mark.parametrize("boundary", [
        {"cantor": 5},
        {"arcs": 5},
        {"points": [None]},
        {"cantor": {"base": 1, "ratio": 0.3, "depth": 3}},
        {"cantor": {"base": [0.0, 1.0], "ratio": 0.3, "depth": 2.5}},
    ])
    def test_malformed_set_is_config_error(self, boundary, tmp_path, capsys):
        with pytest.raises(blab.DomainError):
            blab.BoundarySet.from_payload(boundary)
        cfg = write_cfg(tmp_path, {"set": boundary})
        assert cli.main(["beta-estimate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: config.set: " in capsys.readouterr().err


class TestMeansTrend:
    def test_radial_family_is_deterministic(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "family": {"kind": "radial_geometric", "ratio": 0.5},
            "p_list": [1.0],
            "truncations": [3, 5],
            "r_grid": [0.0, 0.5],
            "out": {"report": "mt.json", "csv": "mt.csv"},
        })
        out = tmp_path / "out"
        assert cli.main(["means-trend", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "mt.json").read_text())
        assert set(rep["results"]["sup_over_r"]) == {"N=3,p=1.0", "N=5,p=1.0"}
        lines = (out / "mt.csv").read_text().splitlines()
        assert lines[0] == "N,p,r,value" and len(lines) == 5
        # a seed on a deterministic family is a config error
        with_seed = write_cfg(tmp_path, {
            "family": {"kind": "radial_geometric"},
            "p_list": [1.0], "truncations": [3], "seed": 1,
        }, name="seeded.json")
        assert cli.main(["means-trend", "--config", with_seed, "--out", str(out)]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_region_sampled_needs_seed(self, tmp_path, capsys):
        payload = {
            "family": {"kind": "region_sampled",
                       "region": {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                                  "set": {"points": [0.0]}},
                       "law": {"kind": "power", "exponent": 2.0}},
            "p_list": [0.5],
            "truncations": [4],
            "r_grid": [0.5],
        }
        cfg = write_cfg(tmp_path, payload)
        assert cli.main(["means-trend", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.seed: required" in capsys.readouterr().err
        payload["seed"] = 6
        cfg = write_cfg(tmp_path, payload, name="ok.json")
        out = tmp_path / "out"
        assert cli.main(["means-trend", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "means-trend.json").read_text())
        assert rep["config"]["family"]["kind"] == "region_sampled"
        assert rep["results"]["sup_over_r"]["N=4,p=0.5"] > 0.0

    def test_unrepresentable_truncation_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "family": {"kind": "radial_geometric", "ratio": 0.5},
            "p_list": [0.5], "truncations": [54], "r_grid": [0.5],
        })
        assert cli.main(["means-trend", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure (InvalidZeroError)" in capsys.readouterr().err

    def test_r_grid_domain(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "family": {"kind": "radial_geometric"},
            "p_list": [1.0], "truncations": [3], "r_grid": [0.5, 1.0],
        })
        assert cli.main(["means-trend", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "r_grid" in capsys.readouterr().err


class TestEnvelopeFit:
    def test_zeros_file_branch(self, tmp_path):
        (tmp_path / "z.txt").write_text("0.9 0.0\n0.95 0.0\n-0.25 0.1\n")
        cfg = write_cfg(tmp_path, {
            "rho": 1.0,
            "zeros": "z.txt",
            "set": {"points": [0.0]},
            "grid": {"depth": 8, "rays": 6, "ring": 16},
        })
        out = tmp_path / "out"
        assert cli.main(["envelope-fit", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "envelope-fit.json").read_text())
        assert rep["inequality"] == cli.ENVELOPE_TAG
        assert rep["results"]["c1"] > 0.0
        assert rep["results"]["c2"] >= 0.0
        assert rep["config"]["grid"] == {"depth": 8, "rays": 6, "ring": 16}
        assert rep["config"]["seed"] is None

    def test_partial_grid_reports_the_grid_used(self, tmp_path):
        (tmp_path / "z.txt").write_text("0.9 0.0\n0.95 0.0\n-0.25 0.1\n")
        boundary = {"arcs": [[0.0, 0.5]], "points": [2.0]}
        cfg = write_cfg(tmp_path, {"rho": 1.0, "zeros": "z.txt", "set": boundary,
                                   "grid": {"depth": 6}})
        out = tmp_path / "out"
        assert cli.main(["envelope-fit", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "envelope-fit.json").read_text())
        assert rep["config"]["grid"] == {"depth": 6, "rays": 12, "ring": 64}
        grid = blab.envelope_grid(blab.BoundarySet.from_payload(boundary),
                                  **rep["config"]["grid"])
        assert rep["results"]["grid_size"] == len(grid)

    def test_sampling_branch_defaults_set_to_region_boundary(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "rho": 1.0,
            "sampling": {
                "region": {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                           "set": {"points": [0.0]}},
                "law": {"kind": "power", "exponent": 2.0, "scale": 0.5},
                "count": 12,
            },
            "grid": {"depth": 8, "rays": 6, "ring": 16},
            "seed": 5,
        })
        out = tmp_path / "out"
        assert cli.main(["envelope-fit", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "envelope-fit.json").read_text())
        assert rep["config"]["sampling"]["count"] == 12
        assert rep["config"]["set"] == {"points": [0.0]}

    def test_empty_region_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "rho": 1.0,
            "sampling": {
                "region": {"model": {"kind": "linear"}, "K": 0.5,
                           "set": {"points": [0.0]}},
                "law": {"kind": "geometric"}, "count": 4,
            },
            "seed": 2,
        })
        assert cli.main(["envelope-fit", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "numerical failure (EmptyRegionError)" in capsys.readouterr().err


class TestRegionBoundary:
    def test_csv_and_report(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                                   "resolution": 16, "vertex_angle": 0.5})
        out = tmp_path / "out"
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "region-boundary.json").read_text())
        assert rep["results"]["points"] == 16
        assert rep["results"]["csv_file"] == "region_boundary.csv"
        lines = (out / "region_boundary.csv").read_text().splitlines()
        assert lines[0] == "re,im" and len(lines) == 17

    def test_empty_region_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 0.5,
                                   "resolution": 8})
        assert cli.main(["region-boundary", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "EmptyRegionError" in capsys.readouterr().err


class TestEntryPoints:
    def test_entry_raises_system_exit(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0,
                                   "resolution": 4})
        monkeypatch.setattr(sys, "argv", ["blab", "region-boundary", "--config", cfg,
                                          "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as info:
            cli.entry()
        assert info.value.code == 0

    def test_console_script(self, tmp_path):
        # Checks the `blab` entry of [project.scripts] from the source tree: a
        # launcher of the form installers generate is written for the declared
        # target and run by name, so no install is needed and no `blab` from
        # another checkout can stand in for this one.
        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = pytest.importorskip("tomli")
        root = Path(blab.__file__).resolve().parents[2]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["blab"]
        module, _, attr = target.partition(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "blab"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        for var, first in (("PATH", bindir), ("PYTHONPATH", root / "src")):
            env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))

        cfg = write_cfg(tmp_path, {"model": {"kind": "linear"}, "K": 1.0,
                                   "resolution": 4})
        proc = subprocess.run(
            ["blab", "region-boundary", "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "region-boundary.json").exists()


SAMPLED_CONFIGS = {
    "verify-theorem1": {
        "region": {"model": {"kind": "power", "gamma": 2.0}, "K": 1.0,
                   "set": {"arcs": [[0.0, 0.785]]}},
        "products": {"count": 4, "min_degree": 2, "max_degree": 40},
        "grid_points": 200,
        "law": {"kind": "power", "exponent": 2.0, "scale": 0.5},
        "seed": 11,
        "out": {"report": "thm.json", "csv": "rows.csv"},
    },
    "envelope-fit": {
        "rho": 1.0,
        "sampling": {
            "region": {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                       "set": {"cantor": {"base": [0.0, 6.283185307179586],
                                          "ratio": 0.3333333333333333, "depth": 10}}},
            "law": {"kind": "power", "exponent": 2.0, "scale": 0.5},
            "count": 30,
        },
        "grid": {"depth": 8, "rays": 4, "ring": 16},
        "seed": 2,
    },
    "means-trend": {
        "family": {"kind": "region_sampled",
                   "region": {"model": {"kind": "exp", "rho": 1.0}, "K": 1.0,
                              "set": {"points": [0.0]}},
                   "law": {"kind": "power", "exponent": 2.0, "scale": 0.5}},
        "p_list": [0.4, 0.6], "truncations": [4, 8], "r_grid": [0.5, 0.9],
        "seed": 6, "out": {"report": "rep.json", "csv": "means.csv"},
    },
}


@pytest.mark.parametrize("command", sorted(SAMPLED_CONFIGS))
def test_sampled_outputs_match_reference_sampler_bytewise(command, tmp_path, monkeypatch):
    """Every file the sampling subcommands write is the same with the per-index sampler."""
    cfg = write_cfg(tmp_path, SAMPLED_CONFIGS[command])
    batched, reference = tmp_path / "batched", tmp_path / "reference"
    assert cli.main([command, "--config", cfg, "--out", str(batched)]) == 0
    calls = []

    def reference_sampler(*args, **kwargs):
        calls.append(args[1])
        return _reference_sample_zeros(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_zeros", reference_sampler)
    assert cli.main([command, "--config", cfg, "--out", str(reference)]) == 0
    assert calls
    names = sorted(p.name for p in batched.iterdir())
    assert names and names == sorted(p.name for p in reference.iterdir())
    for name in names:
        assert (batched / name).read_bytes() == (reference / name).read_bytes(), name
