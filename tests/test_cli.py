import dataclasses
import json
import math

import numpy as np
import pytest

from kernsense.cli import build_parser, main
from kernsense.model import (NoiseModel, instance_from_json, instance_to_json,
                             make_instance, prob_norm_bound)
from kernsense.sweep import SWEEP_CSV_HEADER, SweepConfig, run_sweep, sweep_csv


@pytest.fixture()
def tmp(tmp_path):
    return tmp_path


def test_gen_is_deterministic_and_regenerable(tmp):
    out1 = tmp / "a.json"
    out2 = tmp / "b.json"
    args = ["gen", "--n", "3", "--rank", "3", "--m", "12",
            "--spectrum", "1,1,1", "--noise", "gaussian",
            "--noise-params", "sigma=0", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = instance_from_json(out1.read_text())
    assert np.allclose(inst.truth.matrix, np.eye(3), atol=1e-12)


def test_solve_truth_init_noiseless(tmp):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0", "--seed", "3",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--loss", "kernel",
                 "--h", "1.0", "--eta", "0.1", "--init",
                 "ground_truth_perturbed", "--init-scale", "0",
                 "--out", str(tmp / "run")])
    assert code == 0
    summary = json.loads((tmp / "run_summary.json").read_text())
    assert summary["iterations_run"] == 0
    assert summary["termination"] == "grad_tol"
    assert summary["final_error"] < 1e-12
    loss_lines = (tmp / "run_loss.csv").read_text().splitlines()
    assert loss_lines[0] == "iteration,loss"
    assert len(loss_lines) == 2


def test_solve_divergence_exit_code(tmp):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "4",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--loss", "mse",
                 "--eta", "1e6", "--max-iters", "100",
                 "--out", str(tmp / "div")])
    assert code == 3
    summary = json.loads((tmp / "div_summary.json").read_text())
    assert summary["termination"] == "non_finite"
    # partial trace retained
    assert len((tmp / "div_loss.csv").read_text().splitlines()) >= 2


def test_bad_arguments_exit_two(tmp):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--loss", "huber", "--instance", "x", "--out", "y"])
    assert exc.value.code == 2
    # eps grid must be strictly increasing -> ValueError -> exit 2
    code = main(["sweep", "--eps", "0.9,0.5", "--n", "6", "--rank", "2",
                 "--trials", "1"])
    assert code == 2


def test_non_finite_bandwidth_exit_two(tmp, capsys):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--loss", "kernel",
                 "--h", "nan", "--out", str(tmp / "run")])
    assert code == 2
    assert "bandwidth" in capsys.readouterr().err
    assert not (tmp / "run_summary.json").exists()


@pytest.mark.parametrize("flag,value", [("--h", "nan"), ("--h", "inf"),
                                        ("--eps", "nan"), ("--eps", "inf")])
def test_bounds_non_finite_input_exit_two(tmp, capsys, flag, value):
    code = main(["bounds", "--delta", "0.2", "--eps", "0.5", "--h", "1.0",
                 flag, value, "--out", str(tmp / "rep.json")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp / "rep.json").exists()


@pytest.mark.parametrize("flag,value", [("--grad-tol", "nan"),
                                        ("--grad-tol", "inf"),
                                        ("--init-scale", "nan"),
                                        ("--init-scale", "inf")])
def test_solve_non_finite_setting_exit_two(tmp, capsys, flag, value):
    # Each would run silently: a NaN grad_tol never stops the loop, an
    # infinite one stops it at once as converged, and a non-finite
    # init_scale reads as a diverged solve (exit 3).
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--init",
                 "ground_truth_perturbed", "--max-iters", "5", flag, value,
                 "--out", str(tmp / "run")])
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp / "run_summary.json").exists()


@pytest.mark.parametrize("key", ["h", "lambda_mix", "init_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sweep_config_rejects_non_finite(key, value):
    # Checked whatever losses are swept, here the MSE alone.
    with pytest.raises(ValueError, match=key):
        SweepConfig(losses=("mse",), **{key: value})


@pytest.mark.parametrize("loss", ["mse", "kernel"])
@pytest.mark.parametrize("key,value", [("h", -1.0), ("h", 0.0),
                                       ("lambda_mix", 7.0),
                                       ("lambda_mix", -0.1)])
def test_sweep_out_of_range_parameter_exit_two(tmp, capsys, loss, key, value):
    # Rejected when the config is built, whatever the losses, so no
    # instance or RIP probe is made first.
    with pytest.raises(ValueError, match=f"{key} must"):
        SweepConfig(losses=(loss,), **{key: value})
    out = tmp / "s.csv"
    code = main(["sweep", "--n", "6", "--rank", "1", "--m", "60", "--trials",
                 "1", "--eps", "0.5", "--loss", loss,
                 "--" + key.replace("_", "-"), str(value), "--out", str(out)])
    assert code == 2
    assert f"{key} must" in capsys.readouterr().err
    assert not out.exists()


def test_solve_explicit_init_needs_init_file(tmp, capsys):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--init", "explicit",
                 "--out", str(tmp / "run")])
    assert code == 2
    assert "--init-file" in capsys.readouterr().err
    assert not (tmp / "run_summary.json").exists()


@pytest.mark.parametrize("flag,value,init", [
    ("--init-file", "/nonexistent.json", "--init explicit"),
    ("--init-scale", "5", "--init ground_truth_perturbed")])
def test_solve_flag_of_another_init_exit_two(tmp, capsys, flag, value, init):
    # Each flag is read by one init only; with any other it would be
    # ignored, so it is refused before the instance is read.
    code = main(["solve", "--instance", str(tmp / "missing.json"), "--init",
                 "spectral", flag, value, "--out", str(tmp / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{flag} needs {init}" in err and "missing.json" not in err
    assert not (tmp / "run_summary.json").exists()


def test_solve_init_scale_defaults_to_a_tenth(tmp):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    args = ["solve", "--instance", str(inst_file), "--max-iters", "5",
            "--init", "ground_truth_perturbed", "--seed", "2"]
    assert main(args + ["--out", str(tmp / "a")]) == 0
    assert main(args + ["--init-scale", "0.1", "--out", str(tmp / "b")]) == 0
    assert ((tmp / "a_summary.json").read_bytes()
            == (tmp / "b_summary.json").read_bytes())


@pytest.mark.parametrize("doc,why", [
    ('{"x": [[1, 2]]}', "2-D array"), ("[[1, 2], [3]]", "2-D array"),
    ('[["a", "b"]]', "2-D array"), ("[1, 2, 3, 4, 5, 6]", "2-D array"),
    (json.dumps([[]] * 6), "at least one column"),
    (json.dumps([[math.nan, 1.0]] * 6), "finite"),
    ("[[1, 2], [3, 4]]", "6 rows")])
def test_solve_bad_init_file_exit_two(tmp, capsys, doc, why):
    # Each gave a traceback, ran as a divergence (exit 3), converged at once
    # (no columns) or named neither the flag nor the file.
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    init_file = tmp / "x0.json"
    init_file.write_text(doc)
    code = main(["solve", "--instance", str(inst_file), "--init", "explicit",
                 "--init-file", str(init_file), "--out", str(tmp / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"--init-file {init_file}" in err and "init_X0" in err
    assert why in err
    assert not (tmp / "run_summary.json").exists()


def test_solve_good_init_file_is_the_start(tmp):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0", "--seed", "3",
          "--out", str(inst_file)])
    init_file = tmp / "x0.json"
    init_file.write_text(json.dumps(
        instance_from_json(inst_file.read_text()).truth.factor.tolist()))
    code = main(["solve", "--instance", str(inst_file), "--init", "explicit",
                 "--init-file", str(init_file), "--out", str(tmp / "run")])
    assert code == 0
    summary = json.loads((tmp / "run_summary.json").read_text())
    assert summary["final_error"] < 1e-12


@pytest.mark.parametrize("loss", ["mse", "kernel", "combined"])
@pytest.mark.parametrize("flags,key", [
    (["--h", "-3", "--lambda-mix", "9"], "h"), (["--h", "0"], "h"),
    (["--lambda-mix", "9"], "lambda_mix"),
    (["--lambda-mix", "nan"], "lambda_mix")])
def test_solve_out_of_range_parameter_exit_two(tmp, capsys, loss, flags, key):
    # Checked whatever the loss, as sweep checks them, and before the
    # instance is read: this one does not exist.
    code = main(["solve", "--instance", str(tmp / "missing.json"), "--loss",
                 loss, *flags, "--out", str(tmp / "run")])
    assert code == 2
    assert f"{key} must" in capsys.readouterr().err
    assert not (tmp / "run_summary.json").exists()


def test_solve_instance_directory_exit_two(tmp, capsys):
    code = main(["solve", "--instance", str(tmp), "--out", str(tmp / "run")])
    assert code == 2
    assert str(tmp) in capsys.readouterr().err


def test_gen_bad_rip_trials_writes_nothing(tmp, capsys):
    out = tmp / "g.json"
    code = main(["gen", "--n", "6", "--rank", "2", "--m", "40",
                 "--spectrum", "2,1", "--rip-trials", "0", "--out", str(out)])
    assert code == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spectrum,rank", [("nan", "1"), ("inf", "1"),
                                           ("1,nan", "2")])
def test_gen_non_finite_spectrum_writes_nothing(tmp, capsys, spectrum, rank):
    # NaN passed the s <= 0 test and was written as a NaN ground truth.
    out = tmp / "g.json"
    code = main(["gen", "--n", "6", "--rank", rank, "--m", "40",
                 "--spectrum", spectrum, "--out", str(out)])
    assert code == 2
    assert "spectrum entries must be finite" in capsys.readouterr().err
    assert not out.exists()


_DELETE = object()
_MALFORMED_INSTANCES = [
    (("noise",), _DELETE, "'noise'"),
    (("noise", "params"), _DELETE, "'noise.params'"),
    (("noise", "kind"), _DELETE, "'noise.kind'"),
    (("noise", "centered"), _DELETE, "'noise.centered'"),
    (("seed",), _DELETE, "'seed'"),
    (("seed",), 1.5, "'seed'"),
    (("seed",), "1", "'seed'"),
    (("r",), "1", "'r'"),
    (("n",), True, "'n'"),
    (("noise",), 3, "'noise'"),
    (("noise", "params"), [0.1], "'noise.params'"),
    (("noise", "centered"), 0, "'noise.centered'"),
    (("spectrum",), ["2", 1], "'spectrum'"),
    (("spectrum",), 2.0, "'spectrum'"),
    ((), [1, 2], "not a kernsense instance document"),
    (("seed",), -1, "'seed' must be >= 0"),
    (("noise", "params", "sigma"), True, "noise parameter sigma"),
]


@pytest.mark.parametrize("path,value,named", _MALFORMED_INSTANCES, ids=[
    ".".join(path or ["document"]) + "-" + (
        "missing" if value is _DELETE else type(value).__name__)
    for path, value, _ in _MALFORMED_INSTANCES])
def test_solve_malformed_instance_writes_nothing(tmp, capsys, path, value,
                                                 named):
    # Each case raised KeyError, TypeError or AttributeError (exit 1),
    # named no key (a negative seed) or loaded (a bool sigma, as 1.0).
    doc = json.loads(instance_to_json(make_instance(
        6, 2, 40, (2, 1), NoiseModel.gaussian(0.1), seed=3)))
    if path:
        *parents, key = path
        holder = doc
        for k in parents:
            holder = holder[k]
        if value is _DELETE:
            del holder[key]
        else:
            holder[key] = value
    else:
        doc = value
    inst_file = tmp / "inst.json"
    inst_file.write_text(json.dumps(doc))
    code = main(["solve", "--instance", str(inst_file), "--loss", "mse",
                 "--max-iters", "2", "--out", str(tmp / "run" / "o")])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp / "run").exists()


def test_sweep_workers_below_one_exit_two(tmp, capsys):
    code = main(["sweep", "--n", "6", "--rank", "2", "--trials", "1",
                 "--workers", "-3", "--out", str(tmp / "s.csv")])
    assert code == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp / "s.csv").exists()
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(workers=0)


def test_solve_summary_reports_final_grad_norm(tmp):
    from kernsense.losses import LossSpec, grad_X
    from kernsense.optimize import SolverConfig, gradient_descent
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    code = main(["solve", "--instance", str(inst_file), "--loss", "kernel",
                 "--h", "1.0", "--eta", "0.05", "--max-iters", "30",
                 "--init", "ground_truth_perturbed", "--init-scale", "0.1",
                 "--seed", "2", "--out", str(tmp / "run")])
    assert code == 0
    summary = json.loads((tmp / "run_summary.json").read_text())
    assert summary["termination"] == "max_iters"
    inst = instance_from_json(inst_file.read_text())
    spec = LossSpec.kernel(1.0)
    res = gradient_descent(inst, spec, SolverConfig(
        eta=0.05, max_iters=30, grad_tol=1e-10,
        init="ground_truth_perturbed", init_scale=0.1, seed=2))
    expected = np.linalg.norm(grad_X(spec, inst.op, inst.measurements,
                                     res.X_hat))
    assert expected > 0
    assert res.grad_norm == pytest.approx(expected, rel=1e-12)
    assert summary["final_grad_norm"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("noise,params", [("laplace", "sigma=0.1"),
                                          ("gaussian", "sigma=nan"),
                                          ("student_t", "dof=inf,scale=1"),
                                          ("gaussian", "sigma=0.1,sgima=0.5"),
                                          ("gaussian", "sigma"),
                                          ("gaussian", "sigma=")])
def test_bad_noise_params_exit_two(tmp, capsys, noise, params):
    code = main(["gen", "--n", "5", "--rank", "1", "--m", "20", "--spectrum",
                 "1", "--noise", noise, "--noise-params", params,
                 "--out", str(tmp / "x.json")])
    assert code == 2
    assert "noise" in capsys.readouterr().err
    assert not (tmp / "x.json").exists()


@pytest.mark.parametrize("flag,value,item", [
    ("--noise-params", "sigma", "sigma"),
    ("--noise-params", "sigma=0.1,sigma=", "sigma="),
    ("--spectrum", "1,x", "x"),
    ("--spectrum", "1,", ""),
])
def test_gen_malformed_item_names_flag_and_item(tmp, capsys, flag, value,
                                                item):
    # These ended in "could not convert string to float: ''", which named
    # neither the flag nor the item.
    argv = {"--spectrum": "1", "--noise-params": "sigma=0.1", flag: value}
    code = main(["gen", "--n", "5", "--rank", "1", "--m", "20",
                 *[a for kv in argv.items() for a in kv],
                 "--out", str(tmp / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and repr(item) in err
    assert not (tmp / "x.json").exists()


def test_tampered_fingerprint_exit_two(tmp, capsys):
    inst_file = tmp / "inst.json"
    main(["gen", "--n", "6", "--rank", "2", "--m", "40", "--spectrum", "2,1",
          "--noise", "gaussian", "--noise-params", "sigma=0.1", "--seed", "3",
          "--out", str(inst_file)])
    doc = json.loads(inst_file.read_text())
    doc["measurements_sha256"] = "0" * 64
    inst_file.write_text(json.dumps(doc))
    code = main(["solve", "--instance", str(inst_file), "--loss", "mse",
                 "--out", str(tmp / "run")])
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err
    assert not (tmp / "run_summary.json").exists()


def test_sweep_csv_schema_and_determinism(tmp):
    cfg = dict(n=8, r=2, losses=["mse"], eps_grid=[0.4, 0.8], trials=1,
               max_iters=60, base_seed=9, out=str(tmp / "sweep.csv"))
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(cfg_file)]) == 0
    text1 = (tmp / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg_file)]) == 0
    assert (tmp / "sweep.csv").read_bytes() == text1
    lines = text1.decode().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == "loss,epsilon,real_error,bound_error,lipschitz_L,hessian_H,flags"
    assert len(lines) == 3
    assert "\r" not in text1.decode()


def test_sweep_rows_ordered_and_mse_bound_increasing():
    cfg = SweepConfig(n=8, r=2, losses=("mse",), eps_grid=(0.3, 0.6, 0.9),
                      trials=2, max_iters=60, base_seed=2)
    rows = run_sweep(cfg)
    assert [r.epsilon for r in rows] == [0.3, 0.6, 0.9]
    bounds = [r.bound_error for r in rows]
    assert bounds[0] < bounds[1] < bounds[2]
    text = sweep_csv(rows)
    assert text.count("\n") == 4


@pytest.mark.parametrize("kind,params,sigma", [
    ("student_t", {"dof": 2.0, "scale": 1.0}, None),
    ("sub_gaussian_scaled", {"sigma0": 0.01}, 0.01),
    # Entries of standard deviation sigma: the vector's scale is sigma sqrt(m).
    ("gaussian", {"sigma": 0.001}, 0.001 * math.sqrt(120)),
])
def test_sweep_probability_labels_need_a_sub_gaussian_scale(tmp, capsys, kind,
                                                            params, sigma):
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps(dict(
        n=6, r=2, losses=["mse"], eps_grid=[0.4, 0.8], trials=1,
        max_iters=20, base_seed=3, noise_kind=kind, noise_params=params)))
    assert main(["sweep", "--config", str(cfg_file)]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("#")]
    if sigma is None:
        assert notes == [f"# no prob_lower_bound: {kind} noise has no "
                         "sub-Gaussian scale"]
    else:
        m = 10 * 6 * 2
        labels = [prob_norm_bound(e, m, sigma) for e in (0.4, 0.8)]
        assert 0 < labels[1] < 1
        assert notes == [f"# mse eps={e:g} prob_lower_bound={p:.6f}"
                         for e, p in zip((0.4, 0.8), labels)]


def test_bounds_command_zero_noise(tmp, capsys):
    code = main(["bounds", "--delta", "0.2", "--eps", "0", "--h", "1.0",
                 "--lambda-min", "1.5", "--b-max", "1.0", "--l-smooth", "5.0",
                 "--out", str(tmp / "rep.json")])
    assert code == 0
    doc = json.loads((tmp / "rep.json").read_text())
    assert doc["values"]["mse_error_upper"] == 0.0
    assert doc["values"]["noise_sensitivity_mse"] == 0.0
    # constant term only for the kernel landscape entry
    assert doc["values"]["kernel_error_upper"] == pytest.approx(
        math.sqrt(2 / 1.5))
    out = capsys.readouterr().out
    assert "kernel" in out and "mse" in out


def test_bounds_command_turning_point_delegation(tmp):
    from kernsense.bounds import turning_point
    main(["bounds", "--delta", "0.2", "--eps", "0.5", "--h", "0.3",
          "--lambda-min", "1.0", "--out", str(tmp / "rep.json")])
    doc = json.loads((tmp / "rep.json").read_text())
    assert doc["values"]["turning_point_eps_star"] == pytest.approx(
        turning_point(0.3).eps_star)


def test_verify_command(tmp, capsys):
    code = main(["verify", "--seed", "0", "--out", str(tmp / "verify.json")])
    assert code == 0
    out = capsys.readouterr().out
    passes = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(passes) >= 12
    doc = json.loads((tmp / "verify.json").read_text())
    assert all(v["pass"] for v in doc.values())


def test_gen_reports_moderate_delta(tmp, capsys):
    code = main(["gen", "--n", "8", "--rank", "2", "--m", "2000",
                 "--spectrum", "4,1", "--noise", "gaussian",
                 "--noise-params", "sigma=0.05", "--seed", "7",
                 "--rip-trials", "100", "--out", str(tmp / "g.json")])
    assert code == 0
    out = capsys.readouterr().out
    delta = float(out.strip().rsplit(" ", 1)[-1])
    assert 0.0 <= delta < 0.5


def test_parser_exposes_documented_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("gen", "solve", "sweep", "bounds", "verify"):
        assert sub in text


@pytest.mark.parametrize("command,doc,key", [
    ("sweep", {"n": 6, "bogus": 1}, "bogus"),
    # Fields removed from the config dataclasses are unknown keys too.
    ("sweep", {"kernel_lambda_min": "floor"}, "kernel_lambda_min"),
    ("bounds", {"delta": 0.2, "bogus": 1}, "bogus"),
    ("bounds", {"tau": 0.5}, "tau"),
])
def test_config_unknown_key_exit_two(tmp, capsys, command, doc, key):
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg_file),
                 "--out", str(tmp / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and key in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("doc,key", [
    ({"trials": "3"}, "trials"),
    ({"trials": True}, "trials"),
    ({"n": 6.5}, "n"),
    ({"h": "0.5"}, "h"),
    ({"losses": "mse"}, "losses"),
    ({"eps_grid": 0.5}, "eps_grid"),
    ({"eps_grid": [0.4, "0.8"]}, "eps_grid"),
    ({"noise_kind": ["gaussian"]}, "noise_kind"),
    ({"noise_params": [1.0]}, "noise_params"),
    ({"eta": [0.1]}, "eta"),
])
def test_sweep_config_wrong_type_exit_two(tmp, capsys, doc, key):
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 6, "r": 2, "trials": 1, **doc}))
    code = main(["sweep", "--config", str(cfg_file),
                 "--out", str(tmp / "out.csv")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp / "out.csv").exists()


@pytest.mark.parametrize("doc,key", [
    ({"eps_grid": []}, "eps_grid"),
    ({"losses": []}, "losses"),
    ({"losses": ["mse", "kernel", "mse"]}, "losses"),
    ({"noise_params": {"sigma0": 0.05, "sgima0": 0.5}}, "sgima0"),
    ({"max_iters": 0}, "max_iters"),
    ({"const_samples": 0}, "const_samples"),
])
def test_sweep_config_bad_axis_or_noise_exit_two(tmp, capsys, doc, key):
    # An empty eps_grid crashed, an empty losses wrote a header-only CSV,
    # and a repeated loss or a misspelt noise parameter ran silently; a
    # zero const_samples failed only after every solve, without its key.
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 6, "r": 2, "trials": 1,
                                    "max_iters": 5, **doc}))
    code = main(["sweep", "--config", str(cfg_file),
                 "--out", str(tmp / "out.csv")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp / "out.csv").exists()


@pytest.mark.parametrize("n_meas", [0, -3])
@pytest.mark.parametrize("from_config", [False, True])
def test_bounds_n_meas_below_one_exit_two(tmp, capsys, n_meas, from_config):
    # 0 divided by zero in combined_bound; a negative count was rejected
    # only by the noise-sensitivity order, with a message about m.
    args = ["--delta", "0.2", "--eps", "0.5", "--h", "1.0"]
    if from_config:
        cfg_file = tmp / "cfg.json"
        cfg_file.write_text(json.dumps({"n_meas": n_meas}))
        args += ["--config", str(cfg_file)]
    else:
        args += ["--n-meas", str(n_meas)]
    code = main(["bounds", *args, "--out", str(tmp / "rep.json")])
    assert code == 2
    assert "n_meas" in capsys.readouterr().err
    assert not (tmp / "rep.json").exists()


@pytest.mark.parametrize("doc,key", [
    ({"delta": "0.2"}, "delta"),
    ({"eps": True}, "eps"),
    ({"n_meas": 3.0}, "n_meas"),
    ({"l1": "2"}, "l1"),
    ({"rank": 1.5}, "rank"),
    ({"lambda_rstar": "1", "norm_q": 1.0, "gamma_min": 1.0,
      "u_min_sq": 0.0}, "lambda_rstar"),
])
def test_bounds_config_wrong_type_exit_two(tmp, capsys, doc, key):
    # {"delta": "0.2"} ended in a TypeError traceback with exit 1, and a
    # bool or a float count was taken as a number.
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    code = main(["bounds", "--config", str(cfg_file),
                 "--out", str(tmp / "rep.json")])
    assert code == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp / "rep.json").exists()


def test_bounds_noise_aware_small_bandwidth_flagged(tmp):
    # exp(eps^2/h^2) overflowed here, ending the report in a traceback.
    code = main(["bounds", "--delta", "0.2", "--eps", "0.5", "--h", "0.015",
                 "--out", str(tmp / "rep.json")])
    assert code == 0
    doc = json.loads((tmp / "rep.json").read_text())
    assert doc["values"]["delta_condition_noise_aware"] == -1.0
    assert "infeasible" in doc["flags"]["delta_condition_noise_aware"]


@pytest.mark.parametrize("given", [("norm_q", "lambda_rstar"), ("gamma_min",)])
def test_bounds_partial_high_delta_inputs_exit_two(tmp, capsys, given):
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps({"delta": 0.2, **{k: 1.0 for k in given}}))
    code = main(["bounds", "--config", str(cfg_file),
                 "--out", str(tmp / "rep.json")])
    assert code == 2
    err = capsys.readouterr().err
    missing = [k for k in ("lambda_rstar", "norm_q", "gamma_min", "u_min_sq")
               if k not in given]
    assert all(k in err for k in missing)
    assert not any(k in err.split("missing")[-1] for k in given)
    assert not (tmp / "rep.json").exists()


def test_bounds_full_high_delta_inputs(tmp):
    cfg_file = tmp / "cfg.json"
    cfg_file.write_text(json.dumps({
        "delta": 0.6, "eps": 0.3, "zeta2": 1.0, "lambda_rstar": 0.5,
        "norm_q": 1.0, "gamma_min": 1.0, "u_min_sq": 0.0}))
    assert main(["bounds", "--config", str(cfg_file),
                 "--out", str(tmp / "rep.json")]) == 0
    values = json.loads((tmp / "rep.json").read_text())["values"]
    assert math.isfinite(values["high_delta_upper"])
    assert "high_delta_order" not in values


@pytest.mark.parametrize("grid", ["0.4,nan", "0.4,inf", "-0.4,0.8"])
def test_sweep_bad_eps_grid_exit_two(tmp, capsys, grid):
    code = main(["sweep", f"--eps={grid}", "--n", "6", "--rank", "2",
                 "--trials", "1", "--out", str(tmp / "out.csv")])
    assert code == 2
    assert "eps_grid values must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "x.json", "--out", "run"],
    ["sweep", "--n", "6", "--rank", "2", "--trials", "1"],
])
def test_unknown_eta_selector_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--eta", "autox"])
    assert exc.value.code == 2
    assert "auto_rho" in capsys.readouterr().err


def test_sweep_diverging_cell_is_flagged_not_warned():
    # pytest turns every RuntimeWarning into an error (pyproject.toml), so
    # an overflow while scoring the diverged iterate would fail this test.
    rows = run_sweep(SweepConfig(n=6, r=2, losses=("mse",),
                                 eps_grid=(0.5, 0.9), trials=1, eta=1e3,
                                 max_iters=200))
    assert [r.flags for r in rows] == ["non_finite", "non_finite"]
    assert all(r.real_error == math.inf for r in rows)


def test_sweep_bound_that_is_not_finite_reads_nan():
    # A diverged combined cell's bound is computed from an infinite loss;
    # the CSV reads nan for it, not inf.
    rows = run_sweep(SweepConfig(n=6, r=2, losses=("combined",),
                                 eps_grid=(0.5,), trials=1, eta=1e3,
                                 max_iters=200))
    assert sweep_csv(rows).splitlines()[1].split(",")[3] == "nan"


def test_sweep_flags_name_a_budget_stop():
    # A row reads ok only when every trial's solve reached grad_tol.
    rows = run_sweep(SweepConfig(n=6, r=2, m=60, eps_grid=(0.3, 0.9),
                                 trials=2, max_iters=2))
    assert len(rows) == 6
    assert all("max_iters" in r.flags.split(";") for r in rows)


# The two commands that write an --out file, each with the engine that does
# their work.
OUT_COMMANDS = pytest.mark.parametrize("argv,engine", [
    (["sweep", "--n", "6", "--rank", "2", "--trials", "1"], "run_sweep"),
    (["verify"], "run_verification"),
])


@OUT_COMMANDS
def test_out_into_a_missing_directory_exit_two_before_any_work(
        tmp, capsys, monkeypatch, argv, engine):
    import kernsense.cli as cli

    def never(*args, **kwargs):
        raise AssertionError(f"{engine} ran")

    monkeypatch.setattr(cli, engine, never)
    out = tmp / "nodir" / "out.txt"
    assert main(argv + ["--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert not out.parent.exists()


@OUT_COMMANDS
def test_out_naming_a_directory_exit_two_before_any_work(
        tmp, capsys, monkeypatch, argv, engine):
    import kernsense.cli as cli

    def never(*args, **kwargs):
        raise AssertionError(f"{engine} ran")

    monkeypatch.setattr(cli, engine, never)
    out = tmp / "adir"
    out.mkdir()
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {out}: it is a directory" in captured.err
    assert not any(out.iterdir())


def test_sweep_threads_do_not_change_the_csv():
    # run_sweep promises that the thread count cannot change the result.
    cfg = SweepConfig(n=8, r=2, m=300, eps_grid=(0.5, 0.9), trials=2,
                      max_iters=60, base_seed=4)
    one = sweep_csv(run_sweep(cfg))
    two = sweep_csv(run_sweep(dataclasses.replace(cfg, workers=2)))
    assert two == one
    assert one.count("\n") == 1 + 3 * len(cfg.eps_grid)


def test_sweep_stacked_solves_match_bare_solves(monkeypatch):
    # A trial solves all its cells in one stacked call; a sweep that solves
    # each cell alone differs only in the operator products' rounding.
    import kernsense.sweep as sweep
    cfg = SweepConfig(n=6, r=2, m=301, h=0.4, lambda_mix=0.3,
                      eps_grid=(0.3, 0.6, 0.9), trials=2, max_iters=40,
                      noise_kind="student_t",
                      noise_params={"dof": 2.0, "scale": 1.0}, base_seed=3)
    rows = run_sweep(cfg)
    stacked = sweep.gradient_descent

    def one_at_a_time(insts, specs, configs):
        return tuple(stacked(*p) for p in zip(insts, specs, configs))

    monkeypatch.setattr(sweep, "gradient_descent", one_at_a_time)
    for row, ref in zip(rows, run_sweep(cfg), strict=True):
        assert (row.loss, row.epsilon, row.lipschitz_L, row.hessian_H,
                row.flags) == (ref.loss, ref.epsilon, ref.lipschitz_L,
                               ref.hessian_H, ref.flags)
        assert row.real_error == pytest.approx(ref.real_error, rel=1e-12)
        assert row.bound_error == pytest.approx(ref.bound_error, rel=1e-12)


def test_sweep_makes_one_rho_call_per_trial(monkeypatch):
    # rho's pairs depend on the trial's seed and ||M*|| alone, so one call
    # covers the whole epsilon grid of a trial.
    import kernsense.sweep as sweep
    calls = []
    real = sweep.estimate_rho

    def counted(spec, op, b, *args, **kwargs):
        calls.append(np.shape(b))
        return real(spec, op, b, *args, **kwargs)

    monkeypatch.setattr(sweep, "estimate_rho", counted)
    cfg = SweepConfig(n=6, r=2, m=60, eps_grid=(0.3, 0.6, 0.9), trials=2,
                      max_iters=5, eta=0.01)
    run_sweep(cfg)
    assert calls == [(3, 60)] * 2


def test_sweep_losses_share_samples_exactly():
    # All losses of a (trial, eps) share one estimator sample set; each
    # loss's rows are still exactly those of a sweep of that loss alone.
    cfg = SweepConfig(n=6, r=2, m=120, h=0.4, lambda_mix=0.3,
                      eps_grid=(0.3, 0.9), trials=2, max_iters=30,
                      noise_kind="student_t",
                      noise_params={"dof": 2.0, "scale": 1.0}, base_seed=5)
    rows = run_sweep(cfg)
    for loss in cfg.losses:
        alone = run_sweep(dataclasses.replace(cfg, losses=(loss,)))
        assert sweep_csv([r for r in rows if r.loss == loss]) == \
            sweep_csv(alone)
