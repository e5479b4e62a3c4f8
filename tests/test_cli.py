import csv
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import varexp.cli as cli_module
from varexp.cli import (COMMANDS, KINDS, MINIMIZE, PROFILES, READERS, SHAPES,
                        SUMMARY_SCHEMA, main, run)

from test_expressions import DEEP

BASE_1D = {"shape": "interval", "bounds": [0, 1], "resolution": 256}
SQUARE = {"shape": "rectangle", "bounds": [[-1, 1], [-1, 1]], "resolution": 128}
BALL_32 = {"shape": "ball", "center": [0, 0], "radius": 1.0, "resolution": 32}


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


def test_sobolev_min_keeps_the_earliest_of_tied_starts(tmp_path):
    # the three starts end within 2e-15 relative of each other; a later
    # start must undercut by more than sobolev.START_TIE to be the best
    cfg = {"command": "sobolev-min", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=512), "p": "2", "q": "2"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["best_start"] == 0


def test_talenti_command(tmp_path):
    cfg = {"command": "talenti", "out": str(tmp_path / "o"),
           "params": {"N": 3, "r": 2}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["value"] == pytest.approx(2.3405, abs=2e-4)


def test_talenti_command_large_dimension(tmp_path):
    cfg = {"command": "talenti", "out": str(tmp_path / "o"),
           "params": {"N": 200, "r_lo": 1.5, "r_hi": 150}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert np.isfinite(summary["metrics"]["value"]) and summary["metrics"]["value"] > 0


def test_sobolev_min_counts_iterations_run(tmp_path):
    # the trace holds the start's quotient too, so it is one longer than
    # the number of iterations
    cfg = {"command": "sobolev-min", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(SQUARE, resolution=24), "p": "1.5", "q": "6",
           "params": {"starts": 1, "max_iters": 4}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert summary["metrics"]["iterations"] == 4


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
                      "max_iters": 150}}
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


def test_overflowing_modular_exits_2(tmp_path, capsys):
    # |u|^p = 1e480 is past the float range: an error, not an infinite value
    cfg = {"command": "modular", "out": str(tmp_path / "o"),
           "domain": {"shape": "interval", "bounds": [0, 1], "resolution": 16},
           "p": "6", "u": "1e80"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
    assert not (tmp_path / "o" / "summary.json").exists()


def test_unknown_command_exits_2(tmp_path, capsys):
    for command in ("bogus", ["norm"]):
        cfg = {"command": command, "out": str(tmp_path / "o")}
        cfg_path = tmp_path / "bad.json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        assert main(["--config", str(cfg_path)]) == 2
        assert "unknown command" in capsys.readouterr().err


# each malformed config with the key its message must name (None: any message)
MALFORMED = [
    ({"command": "talenti", "params": {"N": 2, "r": [1.5]}}, None),
    ({"command": "norm", "domain": [1, 2], "p": "2", "u": "1"}, None),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"max_iter": 1}}, "max_iter"),
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"center": [0.0, 0.0], "scales": "0.4"}},
     "scales"),
    ({"command": "talenti", "params": {"N": 3, "r": 2}, "bogus": 1}, "bogus"),
    ({"command": "talenti", "params": {"N": 3, "r": 2, "rr": 5}}, "rr"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "constant", "delta_cells": "48"}},
     "delta_cells"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "translating", "centers": 5}},
     "centers"),
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"center": 0.0, "scales": [0.5, 0.4]}},
     "center"),
    ({"command": "norm", "domain": dict(SQUARE, resolution=32),
      "p": "2", "u": "r", "center": [0.5]}, "center"),
    ({"command": "thm61", "domain": BALL_32, "p": "1.5", "q": "6",
      "params": {"radii": [0.35, 0.25], "cells_per_diameter": 32,
                 "allow_degenerate": "false", "max_iters": 5}},
     "allow_degenerate"),
    ({"command": "dilation", "domain": BALL_32, "p": "1.5", "q": "6",
      "params": {"eps_list": [0.5, 0.25], "resolution": 40.7}}, "resolution"),
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"scales": [0.5, 0.4],
                                       "profile": {"name": "talenti", "n": 2.7,
                                                   "r": 1.5}}}, "profile"),
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"scales": [0.5, 0.4],
                                       "profile": {"name": "bump", "plateau": 0.3}}},
     "profile"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "bubbles", "scales": [0.5, 0.25],
                                       "count": 9}}, "count"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "translating", "scales": [0.5],
                                       "centers": [[0, 0], [0.2, 0]]}}, "scales"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "constant", "centers": [[0, 0]]}},
     "centers"),
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"scales": [0.5, 0.4],
                                       "profile": {"name": "talenti", "r": "1.5"}}},
     "r"),
    ({"command": "norm", "domain": dict(BASE_1D, resolution=32, radius=5, center=[3]),
      "p": "2", "u": "1"}, "radius"),
    ({"command": "norm", "domain": dict(BALL_32, bounds=[0, 1]), "p": "2", "u": "1"},
     "bounds"),
    ({"command": "norm", "domain": dict(BALL_32, radius="1"), "p": "2", "u": "1"},
     "radius"),
    ({"command": "norm", "domain": dict(BASE_1D, resolution=32, bounds=[0, "1"]),
      "p": "2", "u": "1"}, "bounds"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "translating",
                                       "centers": [[5, 0], [0, 0]]}}, "centers"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "translating", "scale": 0.01,
                                       "centers": [[-0.2, 0], [0.2, 0]]}}, "scale"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"concentration_guard": [3, -1]}},
     "concentration_guard"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"smoothing": 1e-6}}, "smoothing"),
    ({"command": "norm", "domain": dict(BASE_1D, resolution=32), "p": "2", "u": "1",
      "tol_modular": 1e-12}, "tol_modular"),
    ({"command": "classify", "domain": dict(BASE_1D, resolution=128),
      "p": "2", "q": "2", "params": {"kind": "translating", "scale": 0.2,
                                     "centers": [[0.3], [0.6]]}}, "centers"),
    ({"command": "localized", "domain": BALL_32, "p": "1.5", "q": "6",
      "params": {"cells_per_diameter": 32}}, "radii"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "translating"}}, "centers"),
    ({"command": "talenti", "params": {"N": 3, "r": 2, "r_lo": 1.5}}, "r_lo"),
    ({"command": "norm", "domain": dict(BASE_1D, shape="hexagon"), "p": "2", "u": "1"},
     None),
    ({"command": "talenti", "params": {"N": 3, "r": 2}, "resolution_override": 64},
     "resolution_override"),
    # Python's json reads the non-standard NaN and Infinity tokens
    ({"command": "scaling", "domain": dict(SQUARE, resolution=32), "p": "1.5", "q": "6",
      "params": {"scales": [0.5, 0.4], "rel_tol": float("nan")}}, "rel_tol"),
    ({"command": "cc-check", "domain": SQUARE, "p": "1.5", "q": "6",
      "params": {"center": [0.0, 0.0], "scales": [0.4], "delta_list": [0.5],
                 "s_bar": 100.0, "slack": float("inf")}}, "slack"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"tol_opt": float("nan")}}, "tol_opt"),
    # descent options are flat in params; the nested object is gone
    ({"command": "thm61", "domain": BALL_32, "p": "1.5", "q": "6",
      "params": {"radii": [0.35, 0.25], "cells_per_diameter": 32,
                 "minimize": {"max_iters": 5}}}, "minimize"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"max_iters": -3}}, "max_iters"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"patience": 0}}, "patience"),
    ({"command": "sobolev-min", "domain": dict(BASE_1D, resolution=64),
      "p": "2", "q": "2", "params": {"tol_opt": -1}}, "tol_opt"),
    ({"command": "talenti", "seed": -1, "params": {"N": 3, "r": 2}}, "seed"),
    # stopping rules and verdict thresholds are constants, not keys
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "constant", "atom_threshold": 0.5}},
     "atom_threshold"),
    ({"command": "classify", "domain": dict(SQUARE, resolution=32),
      "p": "1.5", "q": "6", "params": {"kind": "constant", "conv_tol": 0.01}}, "conv_tol"),
    ({"command": "localized", "domain": dict(BASE_1D, bounds=[-1, 1], resolution=64),
      "p": "2", "q": "2", "params": {"center": [0.0], "radii": [0.4, 0.3],
                                     "cells_per_diameter": 16, "max_iters": 5,
                                     "concentration_guard": None}}, "concentration_guard"),
    ({"command": "thm61", "domain": BALL_32, "p": "1.5", "q": "6",
      "params": {"radii": [0.35, 0.25], "cells_per_diameter": 32,
                 "allow_degenerate": True, "max_iters": 5, "rel_tol": 1.0}}, "rel_tol"),
    ({"command": "subcritical-ball",
      "domain": {"shape": "ball", "center": [0, 0], "radius": 50.0, "resolution": 64},
      "p": "1.5", "q": "3", "params": {"R_list": [2, 6]}}, "s_target"),
    # an expression too deep to parse names its field
    *[({"command": "norm", "domain": dict(BASE_1D, resolution=32), "p": source,
        "u": "1"}, "p") for source in DEEP.values()],
]


@pytest.mark.parametrize("cfg, key", MALFORMED,
                         ids=[f"cfg{i}" for i in range(len(MALFORMED))])
def test_malformed_config_value_exits_2(tmp_path, capsys, cfg, key):
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump(dict(cfg, out=str(tmp_path / "o")), fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if key is not None:
        assert repr(key) in err


def test_seed_override_is_read_like_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "talenti", "out": str(tmp_path / "o"),
                                    "params": {"N": 3, "r": 2}}))
    assert main(["--config", str(cfg_path), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'seed'" in err


@pytest.mark.parametrize("exc", [MemoryError, KeyError("x")], ids=["memory", "key"])
def test_unexpected_exception_exits_2(tmp_path, capsys, monkeypatch, exc):
    # a crash is an error, never a failed verdict (exit 1) or a traceback
    def crash(c, **params):
        raise exc
    monkeypatch.setitem(COMMANDS, "talenti", COMMANDS["talenti"]._replace(run=crash))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"command": "talenti", "out": str(tmp_path / "o"),
                                    "params": {"N": 3, "r": 2}}))
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _cap_address_space():
    # the allocation below then fails at once whatever the overcommit policy
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30 if hard == resource.RLIM_INFINITY else min(64 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def test_module_run_exits_2_on_memory_error(tmp_path):
    # the process a user starts: a 10^6 x 10^6 rectangle asks numpy for
    # 7.28 TiB, which it refuses before committing any memory
    cfg = {"command": "norm", "out": str(tmp_path / "o"),
           "domain": dict(SQUARE, resolution=1000000), "p": "2", "u": "1"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "varexp.cli", "--config", str(cfg_path)],
                          capture_output=True, text=True, env=env, timeout=120,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_every_named_key_has_one_reader():
    # a key without a reader would raise KeyError, which main does not catch
    lists = [spec.needs + " " + spec.takes for spec in COMMANDS.values()]
    lists += [keys for table in (SHAPES, PROFILES) for keys, _ in table.values()]
    lists += [needs + " " + takes for needs, takes, _ in KINDS.values()]
    named = set(" ".join([*lists, MINIMIZE]).split())
    assert named - set(READERS) == set()      # every named key has a reader
    assert set(READERS) - named == set()      # and every reader a key


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unknown_params_key_exits_2(tmp_path, capsys, command):
    cfg = {"command": command, "out": str(tmp_path / "o"),
           "params": {"no_such_key": 1}}
    if COMMANDS[command].fields:
        cfg.update(domain=dict(BASE_1D, resolution=16),
                   **dict.fromkeys(COMMANDS[command].fields, "2"))
    cfg_path = tmp_path / "bad.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'no_such_key'" in err


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


def test_out_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg = {"command": "talenti", "out": str(tmp_path / "file" / "o"),
           "params": {"N": 3, "r": 2}}
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'out'" in err and "Traceback" not in err


def test_out_not_a_string_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"command": "talenti", "out": 5, "params": {"N": 3, "r": 2}}
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'out'" in err and "Traceback" not in err


def test_non_object_config_with_overrides_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1]")
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_dilation_null_resolution_is_the_domains(tmp_path):
    # null and an absent key both mean the domain's own cells per axis
    blobs = []
    for sub, params in (("null", {"resolution": None}), ("absent", {}),
                        ("given", {"resolution": BALL_32["resolution"]})):
        cfg = {"command": "dilation", "seed": 0, "out": str(tmp_path / sub),
               "domain": BALL_32, "p": "1.5", "q": "6",
               "params": {"eps_list": [0.5, 0.25], **params}}
        code, summary = _run(tmp_path, cfg, name=f"{sub}.json")
        assert code == 0
        with open(summary["artifacts"][0], "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1] == blobs[2]


def test_subcritical_ball_absent_resolution_is_the_domains(tmp_path):
    # one CLI default for the key: absent means null, the domain's cells per
    # axis, and not the library's 192
    domain = {"shape": "ball", "center": [0, 0], "radius": 50.0, "resolution": 32}
    blobs = []
    for sub, params in (("null", {"resolution": None}), ("absent", {}),
                        ("given", {"resolution": domain["resolution"]})):
        cfg = {"command": "subcritical-ball", "seed": 0, "out": str(tmp_path / sub),
               "domain": domain, "p": "1.5", "q": "3",
               "params": {"R_list": [2, 6], "s_target": 2.5262, **params}}
        code, summary = _run(tmp_path, cfg, name=f"{sub}.json")
        assert code in (0, 1)
        with open(summary["artifacts"][0], "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1] == blobs[2]


def test_exponent_order_warning_in_summary(tmp_path):
    cfg = {"command": "sobolev-min", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(BASE_1D, resolution=64), "p": "3", "q": "2"}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert any("sup p" in w for w in summary.get("warnings", []))


def test_exponent_order_warning_without_descent(tmp_path):
    # every command that reads p and q checks their order, not only descents
    cfg = {"command": "dilation", "seed": 0, "out": str(tmp_path / "o"),
           "domain": BALL_32, "p": "3", "q": "2",
           "params": {"eps_list": [0.5, 0.25]}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    assert any("sup p" in w for w in summary.get("warnings", []))


@pytest.mark.filterwarnings("default::UserWarning")
def test_library_warnings_in_summary(tmp_path, capsys):
    # the 1.5 ball exits the square: each bubble's masses warn, and the
    # summary lists the message once; --quiet prints nothing, otherwise
    # stderr has one "warning:" line and no Python warning
    cfg = {"command": "cc-check", "seed": 0, "out": str(tmp_path / "o"),
           "domain": dict(SQUARE, resolution=64), "p": "1.5", "q": "6",
           "params": {"center": [0, 0], "scales": [0.4, 0.3], "delta_list": [0.5, 1.5]}}
    code, summary = _run(tmp_path, cfg)
    assert code == 0
    jsonschema.validate(summary, SUMMARY_SCHEMA)
    assert len(summary["warnings"]) == 1 and "radius 1.5" in summary["warnings"][0]
    assert capsys.readouterr().err == ""
    assert main(["--config", str(tmp_path / "cfg.json")]) == 0
    assert capsys.readouterr().err == f"warning: {summary['warnings'][0]}\n"


def test_other_warnings_are_shown_not_listed(tmp_path, monkeypatch):
    # a RuntimeWarning goes to the warning display, not to the summary
    def drifting(u, p):
        warnings.warn("drifted", RuntimeWarning)
        return 1.0

    monkeypatch.setattr(cli_module, "modular", drifting)
    cfg = {"command": "modular", "out": str(tmp_path / "o"),
           "domain": dict(SQUARE, resolution=8), "p": "2", "u": "1"}
    with pytest.warns(RuntimeWarning, match="drifted"):
        code, summary = _run(tmp_path, cfg)
    assert code == 0 and "warnings" not in summary


WARN_THEN_FAIL = """
import sys, warnings
import varexp.cli as cli
def failing(u, p):
    warnings.warn("half done")
    warnings.warn("drifted", RuntimeWarning)
    raise ValueError("gave up")
cli.modular = failing
sys.exit(cli.main(sys.argv[1:]))
"""


def test_warnings_before_an_error_reach_stderr(tmp_path):
    # the process a user starts, under Python's default filters: both
    # warnings print before the error line, and no summary is written
    cfg = {"command": "modular", "out": str(tmp_path / "o"),
           "domain": dict(SQUARE, resolution=8), "p": "2", "u": "1"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-c", WARN_THEN_FAIL, "--config", str(cfg_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert "UserWarning: half done" in proc.stderr
    assert "RuntimeWarning: drifted" in proc.stderr
    assert lines[-1] == "error: gave up"
    assert not (tmp_path / "o" / "summary.json").exists()


def _translated(a: float, b: float) -> dict:
    """A config per command that does no descent, with the domain, every
    point and the ``r``-written fields moved by (a, b)."""
    c = [a, b]
    square = {"shape": "rectangle", "bounds": [[a - 1, a + 1], [b - 1, b + 1]],
              "resolution": 64}
    return {
        "norm": {"command": "norm", "domain": square, "p": "2 + 0.5*r", "u": "1 + r^2"},
        "check-relations": {"command": "check-relations", "domain": square,
                            "p": "2 + r", "u": "1 + r^2"},
        "scaling": {"command": "scaling", "domain": square, "p": "1.5", "q": "6",
                    "params": {"center": c, "scales": [0.5, 0.35, 0.25]}},
        "dilation": {"command": "dilation",
                     "domain": {"shape": "ball", "center": c, "radius": 1.0,
                                "resolution": 32},
                     "p": "1.5 + 0.2*r^2", "q": "6 - r^2",
                     "params": {"center": c, "eps_list": [0.5, 0.25, 0.125]}},
        "subcritical-ball": {"command": "subcritical-ball",
                             "domain": {"shape": "ball", "center": c, "radius": 50.0,
                                        "resolution": 32},
                             "p": "1.5", "q": "3",
                             "params": {"center": c, "R_list": [2, 6, 12, 24],
                                        "resolution": 48, "s_target": 2.5262}},
        "cc-check": {"command": "cc-check", "domain": square, "p": "1.5", "q": "6",
                     "params": {"center": c, "scales": [0.4, 0.3],
                                "delta_list": [0.5, 0.8]}},
        # off the grid's symmetry point, so one node is the densest
        "classify-bubbles": {"command": "classify", "domain": square, "p": "1.5", "q": "6",
                             "params": {"kind": "bubbles", "center": [a + 0.01, b + 0.02],
                                        "scales": [0.5, 0.25, 0.18, 0.125]}},
        "classify-translating": {"command": "classify", "domain": square,
                                 "p": "1.5", "q": "6",
                                 "params": {"kind": "translating", "scale": 0.35,
                                            "centers": [[a + dx, b] for dx in
                                                        (-0.4, -0.1, 0.2, 0.5)]}},
    }


def _close(x, y) -> bool:
    return math.isclose(x, y, rel_tol=1e-9) if isinstance(x, float) else x == y


@pytest.mark.parametrize("name", sorted(_translated(0.0, 0.0)))
def test_non_descent_commands_are_translation_invariant(tmp_path, name):
    # the benchmark's seeds translate whole configurations and rely on this
    shift = (0.5, 0.3)
    runs = []
    for sub, cfg in (("base", _translated(0.0, 0.0)[name]),
                     ("moved", _translated(*shift)[name])):
        code, summary = _run(tmp_path, dict(cfg, out=str(tmp_path / sub)), name=f"{sub}.json")
        with open(summary["artifacts"][0], newline="") as fh:
            header, *rows = csv.reader(fh)
        runs.append((code, summary["verdict"], header, summary["metrics"],
                     [float(v) for row in rows for v in row]))
    (*base, metrics, table), (*moved, moved_metrics, moved_table) = runs
    assert base == moved   # exit code, verdict and CSV columns
    if metrics.get("center") is not None:   # classify reports a point of the domain
        moved_metrics["center"] = [x - s for x, s in zip(moved_metrics["center"], shift)]
    assert metrics.keys() == moved_metrics.keys()
    for key, value in metrics.items():
        other = moved_metrics[key]
        pairs = zip(value, other) if isinstance(value, list) else [(value, other)]
        assert all(_close(x, y) for x, y in pairs), key
    assert len(table) == len(moved_table)
    assert all(map(_close, table, moved_table))
