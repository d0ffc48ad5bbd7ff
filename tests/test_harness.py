import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlab import cli, harness
from cmlab.cli import main
from cmlab.harness import (ConfigError, emit, fit_loglog, h_sweep_one_step,
                           ou_tv_bound_check, read_config, render_csv,
                           render_json, run_experiment)
from cmlab.distributions import MixtureParams


class TestFitLoglog:
    def test_exact_power_laws(self):
        xs = [0.4, 0.2, 0.1, 0.05]
        for p in (0.5, 1.0, 2.0):
            fit = fit_loglog(xs, [3.0 * x**p for x in xs])
            assert fit["slope"] == pytest.approx(p, abs=1e-10)
            assert fit["r_squared"] == pytest.approx(1.0)

    def test_constant_ys_slope_zero(self):
        fit = fit_loglog([1.0, 2.0, 4.0], [5.0, 5.0, 5.0])
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
        assert fit["r_squared"] == 1.0

    def test_rejects_too_few_or_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])


class TestExperimentConfig:
    """A config object is checked before its core runs."""

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "h-sweep", "bogus": 1})

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "nope"})

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"kind": "h-sweep", "h_list": []})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            read_config(str(path))

    def test_u64_seed_is_accepted_and_reported(self):
        raw = {"kind": "grid", "seed": 2**64 - 1}
        assert run_experiment(raw)["seed"] == 2**64 - 1
        assert run_experiment(raw, seed=5)["seed"] == 5

    def test_round_trip(self):
        raw = {"kind": "h-sweep", "h_list": [0.2, 0.1, 0.05], "n": 500}
        kind, params, args = harness._parse(raw)
        assert kind == "h-sweep"
        assert params == {"h_list": [0.2, 0.1, 0.05], "n": 500}
        assert args == params


class TestRunExperiment:
    def test_h_sweep_shape(self):
        raw = {"kind": "h-sweep", "h_list": [0.2, 0.1, 0.05],
               "floor_h": 0.0125, "n": 2000}
        rep = run_experiment(raw, seed=3)
        rows = rep["result"]["rows"]
        assert [r["h"] for r in rows] == [0.2, 0.1, 0.05]
        assert all("w2" in r and "w2_excess" in r for r in rows)
        assert rep["seed"] == 3
        assert rep["config"] == {k: v for k, v in raw.items() if k != "kind"}

    def test_invalid_params_become_config_error(self):
        raw = {"kind": "h-sweep", "delta": 0.5, "T": 0.2, "h_list": [0.1],
               "n": 100}
        with pytest.raises(ConfigError):
            run_experiment(raw, seed=0)

    def test_ou_tv_has_no_violations(self):
        assert ou_tv_bound_check()["violations"] == 0

    @pytest.mark.parametrize("m, tau", [(1e100, 1e-300), (1e200, 1.0)])
    def test_ou_tv_of_far_apart_means_is_one(self, tmp_path, capsys, m, tau):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"kind": "ou-tv", "m_list": [m], "tau_list": [tau]}))
        assert main(["sweep", "--config", str(path)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert row["tv"] == 1.0
        assert row["ok"] is True

    def test_deterministic_bytes(self):
        raw = {"kind": "h-sweep", "h_list": [0.2, 0.1, 0.05],
               "floor_h": 0.0125, "n": 1000}
        a = render_json(run_experiment(raw, seed=7))
        b = render_json(run_experiment(raw, seed=7))
        assert a == b

    def test_crn_floor_is_h_independent_limit(self):
        dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
        rep = h_sweep_one_step(dist, 0.01, 2.0, [0.1, 0.05], 0.0125,
                               5000, 11)
        # Richardson extrapolation leaves a floor below both measured errors
        assert rep["floor"] < min(r["w2"] for r in rep["rows"])
        assert all(r["w2_excess"] > 0 for r in rep["rows"])


class TestRendering:
    def _report(self):
        return {"kind": "demo", "seed": 1,
                "result": {"rows": [{"h": np.float64(0.1),
                                     "w2": np.float64(0.5),
                                     "ok": np.True_},
                                    {"h": 0.05, "w2": 0.25, "ok": True}]}}

    def test_json_is_canonical_and_parses(self):
        text = render_json(self._report())
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["result"]["rows"][0]["ok"] is True
        assert render_json(self._report()) == text

    def test_csv_fixed_columns_lf(self):
        text = render_csv(self._report())
        lines = text.split("\n")
        assert lines[0] == "h,ok,w2"
        assert len(lines) == 4 and lines[-1] == ""
        assert "\r" not in text

    def test_emit_round_trip(self, tmp_path):
        path = emit(self._report(), str(tmp_path), "json", stem="r")
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["kind"] == "demo"
        with pytest.raises(ConfigError):
            emit(self._report(), str(tmp_path), "yaml")


class TestCli:
    def test_grid_exit_zero(self, tmp_path, capsys):
        assert main(["grid", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip()
        with open(out, encoding="utf-8") as fh:
            rep = json.load(fh)
        assert rep["result"]["rows"][0]["t"] == rep["result"]["points"][0]

    def test_sample_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "sampler": "one-step"}))
        assert main(["sample", "--config", str(cfg), "--seed", "5",
                     "--out", str(tmp_path), "--format", "csv"]) == 0
        path = capsys.readouterr().out.strip()
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "x0,x1"
        assert len(lines) == 21

    def test_sweep_runs_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kind": "ou-tv"}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["result"]["violations"] == 0

    def test_sweep_without_config_is_error(self, capsys):
        assert main(["sweep"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "h-sweep", "bogus": 1}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_value_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"kind": "h-sweep", "n": NaN}')
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sample_unknown_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"nn": 5}))
        assert main(["sample", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_gradcheck_prints_slope(self, tmp_path, capsys):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"dt_list": [0.2, 0.1, 0.05],
                                   "n_mc": 2000}))
        assert main(["gradcheck", "--config", str(cfg), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fitted slope:" in out

    @pytest.mark.parametrize("argv", [["sample", "--format", "xml"],
                                      ["grid", "--bogus"], []],
                             ids=["format-xml", "unknown-flag",
                                  "no-subcommand"])
    def test_usage_error_exits_one(self, capsys, argv):
        # exit 2 means a red acceptance gate, so misuse must not give it
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["grid", "-h"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_verify_takes_no_config(self, monkeypatch, capsys):
        # the gate runs its pinned configs; a stub stands in for it, so
        # that an accepted --config ends at once instead of running it
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: {"criteria": [], "all_passed": True})
        assert main(["verify", "--config", "x.json"]) == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err


_MIXTURE = {"weights": [0.5, 0.5], "means": [[-1.0], [1.0]],
            "vars": [[0.1], [0.1]]}
# any JSON value, and values near the valid ones so that many draws pass
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["weights", "means", "vars", "x"]), inner,
        max_size=3), max_leaves=8)
_NEAR = (st.integers(-1, 12) | st.floats(-0.1, 3.0)
         | st.lists(st.floats(-0.1, 3.0), max_size=3)
         | st.sampled_from([None, True, False, "one-step", "multistep",
                            _MIXTURE, {**_MIXTURE, "weights": [1.0]}]))


def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v) and v >= 0


def _fits(value, annotation: str) -> bool:
    """The contract a checked value meets, read from the core's annotation."""
    if value is None:
        return annotation.startswith("Optional")
    if annotation == "int":
        return type(value) is int and 0 <= value < 2**64
    if "Sequence" in annotation:
        return isinstance(value, list) and len(value) > 0 \
            and all(_number(v) for v in value)
    if "float" in annotation:
        return _number(value)
    if annotation == "MixtureParams":
        return isinstance(value, dict)
    return value in ("one-step", "multistep", "one-step+ou", "one-step+ulmc")


class TestConfigSchema:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_loader_names_the_field_or_accepts(self, data):
        kind = data.draw(st.sampled_from(sorted(harness._KINDS)))
        keys = st.sampled_from(sorted(harness._fields(kind)))
        raw = data.draw(st.dictionaries(keys, st.one_of(_NEAR, _NEAR, _JSON),
                                        max_size=2))
        raw.update(data.draw(st.sampled_from(
            [{}, {}, {"kind": kind}, {"kind": "hessian"}, {"x": 0}])))
        try:
            _, given, _ = harness._parse(raw, kind)
        except ConfigError as exc:
            assert str(exc).startswith(
                tuple(f"{k}: " for k in raw) + ("unknown config keys",))
            return
        # annotations as written, e.g. "Optional[float]"; seed is an int
        params = inspect.signature(harness._KINDS[kind]).parameters
        for key, value in given.items():
            written = params[key].annotation if key in params else "int"
            assert _fits(value, written), (key, value)

    def test_keys_are_the_core_parameters(self):
        assert sorted(harness._fields("hessian")) == ["seed"]
        assert sorted(harness._fields("eps-sc-sweep")) == [
            "T", "delta", "distribution", "eps_list", "h", "n", "seed"]
        assert sum(len(harness._fields(k)) for k in harness._KINDS) == 59


class TestCliRejects:
    """Each malformed input exits 1 with `error: <field>` on stderr."""

    @pytest.mark.parametrize("command, config, message", [
        ("sweep", {"kind": "h-sweep", "n": "abc"}, "n: expected an integer"),
        ("sweep", {"kind": "ulmc-correction", "n": 1},
         "n: expected an integer"),
        ("sample", {"n": 5, "h_list": [0.1], "eps_cm": 3},
         "unknown config keys: ['eps_cm', 'h_list']"),
        ("sweep", {"kind": "hessian", "gamma": 5},
         "unknown config keys: ['gamma']"),
        ("sample", {"distribution": {**_MIXTURE, "weights": {"a": 1}}},
         "distribution: "),
        ("sweep", {"kind": "h-sweep", "n": True}, "n: expected an integer"),
        ("sweep", {"kind": "h-sweep", "seed": 1.5},
         "seed: expected an integer"),
        ("sample", {"sampler": "two-step"}, "sampler: expected one of"),
        ("grid", {"h": None}, "h: expected a number > 0"),
        ("sample", {"sampler": "multistep", "times": [5.0, 1.0]},
         "config rejected by sample: times must lie in [delta, T]"),
        ("sample", {"sampler": "multistep", "h": 0.1, "times": [5.0, 1.0]},
         "config rejected by sample: times must lie in [delta, T]"),
        ("sweep", {"kind": "ou-tv", "m_list": [1e300], "tau_list": [1e-300]},
         "config rejected by ou-tv: m=1e+300, tau=1e-300: "),
        ("sweep", {"kind": "ou-tv", "m_list": [1e154], "tau_list": [1e-310]},
         "config rejected by ou-tv: m=1e+154, tau=1e-310: "),
        # one step of length 1e300 leaves a batch near 1e299, whose
        # fitted covariance overflows and is rejected by the fit
        ("sweep", {"kind": "ulmc-correction", "tau": 1e300, "n_steps": 1,
                   "n": 10}, "config rejected by ulmc-correction: "),
        # the score overflows to NaN, on which RK45 would step forever
        pytest.param(
            "sample", {"distribution": {"weights": [1.0], "means": [[1e200]],
                                        "vars": [[1.0]]}, "n": 3},
            "config rejected by sample: non-finite field value at t = ",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["n-text", "n-one", "sample-foreign-keys", "hessian-foreign-key",
            "weights-object", "n-bool", "seed-float", "sampler", "grid-null",
            "times-beyond-T", "times-beyond-T-grid", "ou-tv-square-overflow",
            "ou-tv-bound-overflow", "ulmc-tv-overflow",
            "reference-field-overflow"])
    def test_malformed_config(self, tmp_path, capsys, command, config,
                              message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("seed", ["-1", "1.5", str(2**64)])
    @pytest.mark.parametrize(
        "command", ["grid", "sample", "sweep", "verify", "gradcheck"])
    def test_bad_seed(self, tmp_path, capsys, command, seed):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "ou-tv"}))
        config = ["--config", str(path)] if command == "sweep" else []
        assert main([command, *config, f"--seed={seed}"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: seed: expected an integer in [0, 2**64), got ")
