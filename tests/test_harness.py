import inspect
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlab import cli, distributions, harness, models
from cmlab.cli import main
from cmlab.harness import (ConfigError, emit, fit_loglog, h_sweep_one_step,
                           ou_tv_bound_check, read_config, render_csv,
                           render_json, run_experiment)
from cmlab.distributions import MixtureParams, marginal_at, score
from cmlab.metrics import w2_fit_pair, w2_gaussian_fit
from cmlab.models import (discretized_cm, exact_score_model,
                          measure_cm_error, perturb_cm)
from cmlab.rng import derive_seed
from cmlab.samplers import one_step
from cmlab.schedule import uniform_grid
from reference_kernel import _mixture_score

SRC = Path(__file__).resolve().parents[1] / "src"


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
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                fit_loglog([1.0, 2.0, 3.0], [1.0, bad, 2.0])
            with pytest.raises(ValueError, match="finite"):
                fit_loglog([1.0, bad, 3.0], [1.0, 2.0, 2.0])


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

    @pytest.mark.parametrize("core", [
        h_sweep_one_step,
        lambda n: harness.eps_sweep_one_step(inject="cm", n=n)],
        ids=["h-sweep", "eps-cm-sweep"])
    def test_closed_form_score_leaves_report_bytes(self, monkeypatch, core):
        # the one-component closed form in `score` against the general
        # kernel it replaces on these single-Gaussian sweeps
        fast = render_json(core(n=2000))
        monkeypatch.setattr(models, "score", _mixture_score)
        assert render_json(core(n=2000)) == fast

    def test_crn_floor_is_h_independent_limit(self):
        dist = MixtureParams.gaussian([0.0, 0.0], [4.0, 4.0])
        rep = h_sweep_one_step(dist, 0.01, 2.0, [0.1, 0.05], 0.0125,
                               5000, 11)
        # Richardson extrapolation leaves a floor below both measured errors
        assert rep["floor"] < min(r["w2"] for r in rep["rows"])
        assert all(r["w2_excess"] > 0 for r in rep["rows"])


class TestHSweepPool:
    """The h-sweep draws its input once and its steps split their rows
    (`distributions.split_rows`, here from 16 rows); its report is that
    of the serial loop of one_step marches, and the split's one worker
    thread is kept across sweeps."""

    @pytest.fixture(autouse=True)
    def split_from_16_rows(self, monkeypatch):
        monkeypatch.setattr(distributions, "_SPLIT_ROWS", 16)

    @staticmethod
    def serial(dist, delta, T, h_list, floor_h, n, seed):
        # the sweep as one one_step march after another, each fitted in
        # turn
        sm = exact_score_model(dist)
        p_delta = marginal_at(dist, delta)

        def err_at(grid):
            batch = one_step(discretized_cm(sm, grid), T, n, seed)
            return w2_gaussian_fit(batch, p_delta).value

        rows = [{"h": float(h), "w2": err_at(harness._grid_for(delta, h, T))}
                for h in h_list]
        e_floor = err_at(uniform_grid(delta, floor_h, T))
        e_floor2 = err_at(uniform_grid(delta, 2.0 * floor_h, T))
        floor = 2.0 * e_floor - e_floor2
        for r in rows:
            r["w2_excess"] = r["w2"] - floor
        return {"rows": rows, "floor": floor, "floor_h": floor_h,
                "w2_at_floor_h": e_floor, "w2_at_2floor_h": e_floor2}

    @pytest.mark.parametrize("seed", [3, 21057])
    def test_equals_the_serial_loop(self, seed):
        dist = MixtureParams.gaussian([1.0, -0.5], [4.0, 0.25])
        args = (dist, 0.01, 2.0, [0.2, 0.1, 0.05, 0.025], 0.0125, 3000,
                seed)
        assert render_json(h_sweep_one_step(*args)) == render_json(
            self.serial(*args))

    def test_a_second_sweep_starts_no_thread(self):
        h_sweep_one_step(n=200)
        after_one = threading.active_count()
        h_sweep_one_step(n=200)
        assert threading.active_count() == after_one

    def test_the_split_runs_after_a_march_raises(self, monkeypatch):
        # the score fails at its 20th call, mid-march, after the worker
        # has taken rows of the earlier steps
        calls = []

        def failing(dist):
            exact = exact_score_model(dist)

            def fn(x, t):
                calls.append(t)
                if len(calls) == 20:
                    raise RuntimeError("march failed")
                return exact(x, t)

            return models.ScoreModel(fn=fn, dim=exact.dim)

        monkeypatch.setattr(harness, "exact_score_model", failing)
        with pytest.raises(RuntimeError, match="march failed"):
            h_sweep_one_step(n=200)
        parts = distributions.split_rows(
            lambda a: threading.get_ident(), np.empty((32, 2)))
        assert len(set(parts)) == 2


class TestEpsCmSweep:
    # the eps-cm sweep marches its base map once and draws the pairs of
    # measure_cm_error once, for all of its eps
    N = 2000

    @staticmethod
    def per_eps(n):
        """eps_sweep_one_step(inject="cm", n=n) at its defaults, as one
        independent perturbed map, error measurement and one-step run
        per eps."""
        distribution, delta, T, seed = harness._GAUSS_4I, 0.01, 2.0, 0
        grid = harness._grid_for(delta, 0.025, T)
        exact = exact_score_model(distribution)
        p_delta = marginal_at(distribution, delta)
        base_cm = discretized_cm(exact, grid)
        base_batch = one_step(base_cm, T, n, seed)
        base_err = w2_gaussian_fit(base_batch, p_delta).value
        pert_seed = derive_seed(seed, "inject-seed")
        rows = []
        for eps in (0.2, 0.1, 0.05):
            cm = perturb_cm(base_cm, eps, pert_seed)
            eps_hat, = measure_cm_error([cm], exact, distribution, grid, 400,
                                        seed)
            batch = one_step(cm, T, n, seed)
            rows.append({"eps_target": eps, "eps_hat": float(eps_hat),
                         "w2": w2_gaussian_fit(batch, p_delta).value,
                         "w2_excess": w2_fit_pair(batch, base_batch).value})
        return {"rows": rows, "baseline_w2": base_err, "inject": "cm"}

    def test_shared_sweep_renders_the_per_eps_bytes(self, monkeypatch):
        calls = []

        def counted_score(dist, t, x):
            calls.append(x.shape[0])
            return score(dist, t, x)

        monkeypatch.setattr(models, "score", counted_score)
        shared = render_json(harness.eps_sweep_one_step(inject="cm",
                                                        n=self.N))
        steps = harness._grid_for(0.01, 0.025, 2.0).n_points - 1
        # one_step of the base, then one draw's xhat steps and two walks
        assert len(calls) == steps + steps + steps + (steps - 1) == 323
        calls.clear()
        assert render_json(self.per_eps(self.N)) == shared
        assert len(calls) == steps + 3 * (4 * steps - 1) == 1050

    def test_no_state_survives_a_sweep(self):
        # `other` draws the same one-step noise as `first` (same seed, n
        # and dimension) from a different law, so images kept from one
        # sweep would show in the next
        first = {"kind": "eps-cm-sweep", "n": self.N}
        other = {**first, "h": 0.1, "distribution": {
            "weights": [1.0], "means": [[1.0, -1.0]], "vars": [[0.5, 2.0]]}}
        runs = [render_json(run_experiment(raw, seed=3))
                for raw in (first, other, first)]
        assert runs[2] == runs[0] != runs[1]
        code = ("import json, sys\nfrom cmlab import harness\n"
                "sys.stdout.write(harness.render_json(harness.run_experiment("
                "json.loads(sys.argv[1]), seed=3)))")
        for raw, hash_seed, want in ((first, "0", runs[0]),
                                     (first, "1", runs[0]),
                                     (other, "0", runs[1])):
            env = {**os.environ, "PYTHONPATH": str(SRC),
                   "PYTHONHASHSEED": hash_seed}
            fresh = subprocess.run(
                [sys.executable, "-c", code, json.dumps(raw)], check=True,
                capture_output=True, text=True, env=env).stdout
            assert fresh == want, (raw, hash_seed)


class TestRendering:
    def _report(self):
        return {"kind": "demo", "seed": 1,
                "result": {"rows": [{"h": np.float64(0.1),
                                     "w2": np.float64(0.5),
                                     "ok": np.True_},
                                    {"h": 0.05, "w2": 0.25, "ok": True}],
                           "n": np.int64(3),
                           "cov": np.array([[1.0, 0.5], [0.5, 2.0]]),
                           "span": (0.1, np.float64(1 / 3))}}

    def test_json_is_canonical_and_parses(self):
        text = render_json(self._report())
        assert text == (
            '{"kind":"demo","result":{"cov":[[1.0,0.5],[0.5,2.0]],"n":3,'
            '"rows":[{"h":0.1,"ok":true,"w2":0.5},'
            '{"h":0.05,"ok":true,"w2":0.25}],'
            '"span":[0.1,0.3333333333333333]},"seed":1}\n')
        assert json.loads(text)["result"]["rows"][0]["ok"] is True
        assert render_json(self._report()) == text

    def test_json_rejects_what_it_cannot_write(self):
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            render_json({"points": {1.0}})

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

    def test_ulmc_defaults_give_the_same_points(self, tmp_path, capsys):
        # a null gamma and n_steps are 1.0 and 100 inside the ulmc branch
        cfg = tmp_path / "cfg.json"
        out = []
        for extra in ({}, {"gamma": 1.0, "n_steps": 100}):
            cfg.write_text(json.dumps({"sampler": "one-step+ulmc", "n": 5,
                                       **extra}))
            assert main(["sample", "--config", str(cfg), "--seed", "3"]) == 0
            out.append(capsys.readouterr().out)
        given = out[1].replace('"gamma":1.0,', "").replace(
            ',"n_steps":100', "")
        assert given != out[1]
        assert given == out[0]

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
    if annotation in ("int", "Optional[int]"):
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
        ("sample", {"sampler": "one-step", "times": [2.0, 1.0], "tau": 0.3,
                    "n": 3},
         "config rejected by sample: times is not read by the 'one-step' "
         "sampler"),
        ("sample", {"sampler": "multistep", "tau": 0.3, "n": 3},
         "config rejected by sample: tau is not read by the 'multistep' "
         "sampler"),
        ("sample", {"sampler": "one-step", "gamma": 5, "n_steps": 7, "n": 2},
         "config rejected by sample: gamma is not read by the 'one-step' "
         "sampler"),
        ("sample", {"sampler": "one-step+ou", "n_steps": 7, "n": 2},
         "config rejected by sample: n_steps is not read by the "
         "'one-step+ou' sampler"),
        ("sweep", {"kind": "ou-tv", "m_list": [1e300], "tau_list": [1e-300]},
         "config rejected by ou-tv: m=1e+300, tau=1e-300: "),
        ("sweep", {"kind": "ou-tv", "m_list": [1e154], "tau_list": [1e-310]},
         "config rejected by ou-tv: m=1e+154, tau=1e-310: "),
        # one step of length 1e300 leaves a batch near 1e299, whose
        # fitted covariance overflows and is rejected by the fit
        ("sweep", {"kind": "ulmc-correction", "tau": 1e300, "n_steps": 1,
                   "n": 10}, "config rejected by ulmc-correction: "),
        # the score overflows to NaN, on which RK45 would step forever
        ("sample", {"distribution": {"weights": [1.0], "means": [[1e200]],
                                     "vars": [[1.0]]}, "n": 3},
         "config rejected by sample: non-finite field value at t = "),
        # 1 - e^{-2t} rounds to 0 at t = 1e-20: p_t is still a point mass
        ("sample", {"distribution": {"weights": [1.0], "means": [[0.0]],
                                     "vars": [[0.0]]}, "delta": 1e-20,
                    "n": 3},
         "config rejected by sample: density is degenerate at t="),
        # e^dt overflows in the exponential-integrator step
        ("gradcheck", {"dt_list": [1000, 900, 800]},
         "config rejected by gradcheck: grad_gap at dt=1000.0: "),
        ("sweep", {"kind": "gradcheck", "dt_list": [1000, 900, 800]},
         "config rejected by gradcheck: grad_gap at dt=1000.0: "),
        # tau**2 overflows in the ballistic (gamma = 0) corrector step
        ("sample", {"sampler": "one-step+ulmc", "gamma": 0, "tau": 1e200,
                    "n": 3},
         "config rejected by sample: batch contains NaN/Inf entries"),
        # tau**3 overflows in the small gamma * tau series
        ("sample", {"sampler": "one-step+ulmc", "gamma": 1e-300,
                    "tau": 1e200, "n": 3},
         "config rejected by sample: batch contains NaN/Inf entries"),
        # e^dt x + (e^dt - 1) s(x) cancels: a finite target, all noise
        ("gradcheck", {"dt_list": [700, 600, 500], "n_mc": 1000},
         "config rejected by gradcheck: grad_gap at dt=700.0: the CD "
         "target lost more than half its digits"),
        # numpy refuses a batch this large at once, allocating nothing
        ("sample", {"kind": "sample", "n": 1_000_000_000_000},
         "config rejected by sample: Unable to allocate 14.6 TiB"),
        ("sweep", {"kind": "h-sweep", "n": 100_000_000_000},
         "config rejected by h-sweep: Unable to allocate 1.46 TiB"),
    ], ids=["n-text", "n-one", "sample-foreign-keys", "hessian-foreign-key",
            "weights-object", "n-bool", "seed-float", "sampler", "grid-null",
            "times-beyond-T", "times-beyond-T-grid", "times-unread",
            "tau-unread", "gamma-unread", "n-steps-unread",
            "ou-tv-square-overflow",
            "ou-tv-bound-overflow", "ulmc-tv-overflow",
            "reference-field-overflow", "point-mass-tiny-t",
            "gradcheck-step-overflow", "sweep-gradcheck-step-overflow",
            "ulmc-ballistic-overflow", "ulmc-series-overflow",
            "gradcheck-target-cancels", "sample-too-large",
            "h-sweep-too-large"])
    def test_malformed_config(self, tmp_path, capsys, recwarn, command,
                              config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        # the error line is the whole report: no numpy warning before it
        assert not [w for w in recwarn if w.category is RuntimeWarning]

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
