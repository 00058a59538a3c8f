import json
import math
from pathlib import Path

import numpy as np
import pytest

from kernsense.cli import (SWEEP_CSV_HEADER, SweepConfig, build_parser, main,
                           run_sweep, sweep_csv)
from kernsense.model import instance_from_json, prob_norm_bound


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
                                          ("student_t", "dof=inf,scale=1")])
def test_bad_noise_params_exit_two(tmp, capsys, noise, params):
    code = main(["gen", "--n", "5", "--rank", "1", "--m", "20", "--spectrum",
                 "1", "--noise", noise, "--noise-params", params,
                 "--out", str(tmp / "x.json")])
    assert code == 2
    assert "noise" in capsys.readouterr().err
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
