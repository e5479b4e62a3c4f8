import json

import jsonschema
import numpy as np
import pytest

from varexp.cli import SUMMARY_SCHEMA, main, run

BASE_1D = {"shape": "interval", "bounds": [0, 1], "resolution": 256}
SQUARE = {"shape": "rectangle", "bounds": [[-1, 1], [-1, 1]], "resolution": 128}


def _run(tmp_path, config, name="cfg.json", extra_args=()):
    cfg_path = tmp_path / name
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    code = main(["--config", str(cfg_path), "--quiet", *extra_args])
    out_dir = config.get("out", "out")
    for arg, nxt in zip(extra_args, list(extra_args[1:]) + [""]):
        if arg == "--out":
            out_dir = nxt
    with open(f"{out_dir}/summary.json") as fh:
        summary = json.load(fh)
    return code, summary


def test_norm_constant_field(tmp_path):
    cfg = {"command": "norm", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=512), "p": "2", "u": "3"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["value"] == pytest.approx(3.0, rel=1e-10)
    jsonschema.validate(summary, SUMMARY_SCHEMA)


def test_modular_command(tmp_path):
    cfg = {"command": "modular", "seed": 0, "out": str(tmp_path / "o"),
           "domain": BASE_1D, "p": "2", "u": "x"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["value"] == pytest.approx(1 / 3, abs=1e-4)


def test_check_relations_command(tmp_path):
    cfg = {"command": "check-relations", "seed": 0, "out": str(tmp_path / "o"),
           "domain": BASE_1D, "p": "2 + x", "u": "1 + x^2"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True


def test_sobolev_min_eigenvalue(tmp_path):
    cfg = {"command": "sobolev-min", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=512), "p": "2", "q": "2"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["value"] == pytest.approx(np.pi, rel=0.02)
    jsonschema.validate(summary, SUMMARY_SCHEMA)


def test_talenti_command(tmp_path):
    cfg = {"command": "talenti", "out": str(tmp_path / "o"),
           "params": {"N": 3, "r": 2}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["value"] == pytest.approx(2.3405, abs=2e-4)


def test_localized_command(tmp_path):
    cfg = {"command": "localized", "seed": 0, "out": str(tmp_path / "o"),
           "domain": {"shape": "interval", "bounds": [-1, 1], "resolution": 256},
           "p": "2", "q": "2",
           "params": {"center": [0.0], "radii": [0.4, 0.3],
                      "cells_per_diameter": 64}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["extrapolated"] > 0
    assert summary["metrics"]["monotone"] is True


def test_scaling_command(tmp_path):
    cfg = {"command": "scaling", "seed": 0, "out": str(tmp_path / "o"),
           "domain": SQUARE, "p": "1.5", "q": "6",
           "params": {"center": [0.0, 0.0], "scales": [0.5, 0.35, 0.25]}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0


def test_continuity_command(tmp_path):
    cfg = {"command": "continuity", "seed": 0, "out": str(tmp_path / "o"),
           "domain": BASE_1D, "p": "2", "q": "2",
           "params": {"t_list": [0.2, 0.1, 0.05]}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True


def test_dilation_command(tmp_path):
    cfg = {"command": "dilation", "seed": 0, "out": str(tmp_path / "o"),
           "domain": {"shape": "ball", "center": [0, 0], "radius": 1.0,
                      "resolution": 64},
           "p": "1.5", "q": "6",
           "params": {"center": [0.0, 0.0], "eps_list": [0.5, 0.25],
                      "resolution": 64}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True


def test_thm61_command(tmp_path):
    cfg = {"command": "thm61", "seed": 0, "out": str(tmp_path / "o"),
           "domain": {"shape": "ball", "center": [0, 0], "radius": 1.0,
                      "resolution": 128},
           "p": "1.5", "q": "6",
           "params": {"center": [0.0, 0.0], "radii": [0.35, 0.25],
                      "cells_per_diameter": 64, "allow_degenerate": True,
                      "minimize": {"max_iters": 150}}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True


def test_subcritical_ball_command(tmp_path):
    cfg = {"command": "subcritical-ball", "seed": 0, "out": str(tmp_path / "o"),
           "domain": {"shape": "ball", "center": [0, 0], "radius": 50.0,
                      "resolution": 64},
           "p": "1.5", "q": "3",
           "params": {"center": [0.0, 0.0], "R_list": [2, 6, 12, 24],
                      "resolution": 96, "s_target": 2.5262}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True
    assert summary["metrics"]["smallest_passing_radius"] is not None


def test_cc_check_command(tmp_path):
    cfg = {"command": "cc-check", "seed": 0, "out": str(tmp_path / "o"),
           "domain": SQUARE, "p": "1.5", "q": "6",
           "params": {"center": [0.0, 0.0], "scales": [0.4, 0.3],
                      "delta_list": [0.5, 0.8]}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["verdict"] is True
    assert summary["metrics"]["s_bar_source"] == "talenti"


def test_cc_check_failing_verdict_exit_code(tmp_path):
    cfg = {"command": "cc-check", "seed": 0, "out": str(tmp_path / "o"),
           "domain": SQUARE, "p": "1.5", "q": "6",
           "params": {"center": [0.0, 0.0], "scales": [0.4],
                      "delta_list": [0.5], "s_bar": 100.0}}
    code, summary = _run(tmp_path, cfg)
    assert code == 1
    assert summary["verdict"] is False


def test_classify_command_kinds(tmp_path):
    base = {"seed": 0, "domain": SQUARE, "p": "1.5", "q": "6",
            "command": "classify"}
    h = 2.0 / 128
    cfg = dict(base, out=str(tmp_path / "a"),
               params={"kind": "bubbles", "center": [0.0, 0.0],
                       "scales": [0.5, 0.25, 0.125, 4 * h]})
    code, summary = _run(tmp_path, cfg, name="a.json")
    assert code == 0
    assert summary["metrics"]["classification"] == "single_atom"

    cfg = dict(base, out=str(tmp_path / "b"),
               params={"kind": "constant", "center": [0.0, 0.0], "scale": 0.4})
    code, summary = _run(tmp_path, cfg, name="b.json")
    assert summary["metrics"]["classification"] == "strongly_convergent"

    cfg = dict(base, out=str(tmp_path / "c"),
               params={"kind": "translating", "scale": 0.35,
                       "centers": [[-0.4, 0.0], [-0.1, 0.0], [0.2, 0.0], [0.5, 0.0]]})
    code, summary = _run(tmp_path, cfg, name="c.json")
    assert summary["metrics"]["classification"] == "inconclusive"


def test_unknown_command_exits_2(tmp_path, capsys):
    cfg = {"command": "bogus", "out": str(tmp_path / "o")}
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["--config", str(cfg_path)]) == 2
    assert "unknown command" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [
    {"command": "talenti", "params": {"N": 2, "r": [1.5]}},
    {"command": "norm", "domain": [1, 2], "p": "2", "u": "1"},
])
def test_malformed_config_value_exits_2(tmp_path, capsys, cfg):
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump(dict(cfg, out=str(tmp_path / "o")), fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_zero_starts_exits_2(tmp_path, capsys):
    cfg = {"command": "sobolev-min", "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=64), "p": "2", "q": "2",
           "params": {"starts": 0}}
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "starts" in err and "failed" not in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 2


def test_resolution_and_seed_overrides(tmp_path):
    cfg = {"command": "norm", "seed": 3, "out": str(tmp_path / "o"),
           "domain": BASE_1D, "p": "2", "u": "3"}
    code, summary = _run(tmp_path, cfg, extra_args=["--resolution", "64",
                                                    "--seed", "11"])
    assert code == 0
    assert summary["config"]["resolution_override"] == 64
    assert summary["config"]["seed"] == 11


def test_deterministic_csv_bytes(tmp_path):
    cfg = {"command": "sobolev-min", "seed": 7,
           "domain": dict(BASE_1D, resolution=128),
           "p": "2 + 0.5*x", "q": "2"}
    blobs = []
    for sub in ("d1", "d2"):
        c = dict(cfg, out=str(tmp_path / sub))
        cfg_path = tmp_path / f"{sub}.json"
        with open(cfg_path, "w") as fh:
            json.dump(c, fh)
        assert main(["--config", str(cfg_path), "--quiet"]) == 0
        with open(tmp_path / sub / "summary.json") as fh:
            art = json.load(fh)["artifacts"][0]
        with open(art, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_summary_schema_everywhere(tmp_path):
    cfg = {"command": "talenti", "out": str(tmp_path / "o"),
           "params": {"N": 3, "r_lo": 2.0, "r_hi": 2.5}}
    _, summary = _run(tmp_path, cfg)
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    assert summary["metrics"]["argmin"] == pytest.approx(2.5)


def test_exponent_order_warning_in_summary(tmp_path):
    cfg = {"command": "sobolev-min", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=64), "p": "3", "q": "2"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert any("sup p" in w for w in summary.get("warnings", []))
