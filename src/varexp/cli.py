"""Command-line front end: config ingestion, dispatch, CSV/JSON output.

One command per invocation, configured by a single JSON document::

    {
      "command": "sobolev-min",
      "seed": 0,
      "out": "results",
      "domain": {"shape": "interval", "bounds": [0, 1], "resolution": 512},
      "p": "2", "q": "2",
      "params": {"starts": 3}
    }

Exponent and sample fields are expression strings (see
:mod:`varexp.expressions`); the ``r`` variable measures distance to the
config's ``center`` (domain center when omitted).  Every run writes one
CSV table named ``<command>-<timestamp>.csv`` plus ``summary.json`` into
the output directory.  With a fixed seed the CSV bytes are reproducible;
the summary's timing field is the one intentionally varying value.

The exit code carries the verdict: 0 for pass (or commands without a
verdict), 1 for fail, 2 for configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import concentration as cc
from . import experiments as ex
from .exponents import ExponentField, exponent_order_ok
from .expressions import ExpressionError, compile_on_domain
from .grid import GridDomain, GridFunction, make_domain
from .luxemburg import check_modular_norm_relations, luxemburg_norm, modular
from .sobolev import (inf_talenti_over_range, localized_constant,
                      minimize_sobolev)

__all__ = ["main", "run", "SUMMARY_SCHEMA", "COMMANDS"]

SUMMARY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "verdict", "metrics", "config", "artifacts",
                 "timing_seconds"],
    "properties": {
        "command": {"type": "string"},
        "verdict": {"type": ["boolean", "null"]},
        "metrics": {"type": "object"},
        "config": {"type": "object"},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "timing_seconds": {"type": "number"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


class ConfigError(ValueError):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _domain(cfg: dict) -> GridDomain:
    spec = _require(cfg, "domain")
    if not isinstance(spec, dict):
        raise ConfigError(f"'domain' must be a JSON object, got {spec!r}")
    spec = dict(spec)
    if "resolution_override" in cfg:
        spec["resolution"] = cfg["resolution_override"]
    try:
        return make_domain(spec)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad domain spec: {e}") from e


def _field(cfg: dict, key: str, domain: GridDomain) -> ExponentField:
    src = _require(cfg, key)
    func = compile_on_domain(str(src), domain, center=cfg.get("center"))
    try:
        return ExponentField.from_callable(func, domain)
    except ValueError as e:
        raise ConfigError(f"invalid exponent field {key!r}: {e}") from e


def _sample(cfg: dict, key: str, domain: GridDomain) -> GridFunction:
    src = _require(cfg, key)
    func = compile_on_domain(str(src), domain, center=cfg.get("center"))
    return GridFunction.from_callable(domain, func)


def _expr_callable(cfg: dict, key: str, domain: GridDomain):
    src = _require(cfg, key)
    return compile_on_domain(str(src), domain, center=cfg.get("center"))


def _single_row(name: str, inputs: dict, metrics: dict,
                verdict: bool | None = None) -> ex.ExperimentResult:
    cols = tuple(metrics)
    return ex.ExperimentResult(
        name=name, inputs=inputs, columns=cols,
        rows=(tuple(float(metrics[c]) for c in cols),),
        verdict=verdict, details=dict(metrics),
    )


def _order_warnings(p: ExponentField, q: ExponentField) -> list[str]:
    if not exponent_order_ok(p, q):
        return [
            "sup p > inf q on this domain; the embedding-theory hypotheses "
            "do not all apply, proceeding anyway"
        ]
    return []


# ---------------------------------------------------------------------------
# command handlers: cfg -> (ExperimentResult, metrics dict, warnings list)

def _cmd_norm(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    u = _sample(cfg, "u", dom)
    res = luxemburg_norm(u, p, tol_modular=float(cfg.get("tol_modular", 1e-10)))
    metrics = {"value": res.value, "iterations": res.iterations,
               "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1]}
    return _single_row("norm", {}, metrics), metrics, []


def _cmd_modular(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    u = _sample(cfg, "u", dom)
    metrics = {"value": modular(u, p)}
    return _single_row("modular", {}, metrics), metrics, []


def _cmd_check_relations(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    u = _sample(cfg, "u", dom)
    rep = check_modular_norm_relations(u, p,
                                       tol=float(cfg.get("tol_modular", 1e-10)))
    metrics = {
        "norm": rep.norm, "modular": rep.mod,
        "unit_modular": float(rep.unit_modular),
        "trichotomy": float(rep.trichotomy),
        "bound_above_one": float(rep.bound_above_one),
        "bound_below_one": float(rep.bound_below_one),
        "scaling_to_zero": float(rep.scaling_to_zero),
        "scaling_to_inf": float(rep.scaling_to_inf),
    }
    return (_single_row("check-relations", {}, metrics, verdict=rep.all_hold),
            metrics, [])


def _cmd_sobolev_min(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    est = minimize_sobolev(p, q, seed=int(cfg.get("seed", 0)), **_opt_args(params))
    rows = tuple((float(i), v) for i, v in enumerate(est.trace))
    result = ex.ExperimentResult(
        name="sobolev-min", inputs={"starts": est.starts},
        columns=("iteration", "quotient"), rows=rows, verdict=None,
        details={"value": est.value, "best_start": est.best_start},
    )
    metrics = {"value": est.value, "best_start": est.best_start,
               "iterations": len(est.trace), "concentrated": est.concentrated}
    return result, metrics, _order_warnings(p, q)


def _opt_args(params: dict) -> dict:
    out = {}
    for key in ("starts", "max_iters", "patience"):
        if key in params:
            out[key] = int(params[key])
    for key in ("tol_opt", "smoothing"):
        if key in params:
            out[key] = float(params[key])
    if "step_rule" in params:
        out["step_rule"] = str(params["step_rule"])
    if "concentration_guard" in params:
        g = params["concentration_guard"]
        out["concentration_guard"] = None if g is None else (float(g[0]), float(g[1]))
    return out


def _cmd_talenti(cfg):
    params = dict(cfg.get("params", {}))
    n = int(_require(params, "N"))
    if "r" in params:
        r_lo = r_hi = float(params["r"])
    else:
        r_lo, r_hi = float(_require(params, "r_lo")), float(_require(params, "r_hi"))
    value, argmin = inf_talenti_over_range(n, r_lo, r_hi)
    metrics = {"N": n, "r_lo": r_lo, "r_hi": r_hi, "value": value, "argmin": argmin}
    return _single_row("talenti", {}, metrics), metrics, []


def _cmd_localized(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    center = params.get("center", list(dom.center))
    radii = [float(r) for r in _require(params, "radii")]
    loc = localized_constant(
        tuple(center) if dom.dim == 2 else float(center[0]), p, q, radii,
        cells_per_diameter=int(params.get("cells_per_diameter", 128)),
        seed=int(cfg.get("seed", 0)),
        **_opt_args(params.get("minimize", {})),
    )
    rows = tuple((r, v) for r, v in zip(loc.radii, loc.values))
    result = ex.ExperimentResult(
        name="localized", inputs={"center": list(loc.center), "radii": radii},
        columns=("radius", "s_estimate"), rows=rows, verdict=None,
        details={"extrapolated": loc.extrapolated, "monotone": loc.monotone},
    )
    metrics = {"extrapolated": loc.extrapolated, "monotone": loc.monotone}
    return result, metrics, _order_warnings(p, q)


def _cmd_scaling(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    result = ex.scaling_limit_experiment(
        params.get("profile", "bump"),
        tuple(params.get("center", dom.center)) if dom.dim == 2
        else float(params.get("center", [dom.center[0]])[0]),
        [float(s) for s in _require(params, "scales")],
        p, q, dom,
        rel_tol=float(params.get("rel_tol", 0.10)),
        target_scale=float(params.get("target_scale", 1.0)),
    )
    metrics = {"target": result.details["target"]}
    return result, metrics, _order_warnings(p, q)


def _cmd_continuity(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    result = ex.continuity_experiment(
        p, q, [float(t) for t in _require(params, "t_list")], dom,
        rel_tol=float(params.get("rel_tol", 0.05)),
        seed=int(cfg.get("seed", 0)),
        **_opt_args(params.get("minimize", {})),
    )
    return result, {"s_base": result.details["s_base"]}, _order_warnings(p, q)


def _cmd_dilation(cfg):
    dom = _domain(cfg)
    params = dict(cfg.get("params", {}))
    p_fn = _expr_callable(cfg, "p", dom)
    q_fn = _expr_callable(cfg, "q", dom)
    center = params.get("center", list(dom.center))
    result = ex.dilation_check(
        params.get("profile", "bump"),
        [float(e) for e in _require(params, "eps_list")],
        p_fn, q_fn,
        center=tuple(center) if dom.dim == 2 else float(center[0]),
        resolution=int(params.get("resolution", dom.resolution[0])),
        rel_tol=float(params.get("rel_tol", 0.05)),
    )
    return result, {"a_fun": result.details["a_fun"],
                    "a_grad": result.details["a_grad"]}, []


def _cmd_thm61(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    center = params.get("center", list(dom.center))
    result = ex.theorem61_experiment(
        tuple(center) if dom.dim == 2 else float(center[0]), p, q,
        [float(r) for r in _require(params, "radii")],
        allow_degenerate=bool(params.get("allow_degenerate", False)),
        rel_tol=float(params.get("rel_tol", 0.15)),
        cells_per_diameter=int(params.get("cells_per_diameter", 96)),
        seed=int(cfg.get("seed", 0)),
        **_opt_args(params.get("minimize", {})),
    )
    metrics = {"extrapolated": result.details["extrapolated"],
               "talenti": result.details["talenti"]}
    return result, metrics, _order_warnings(p, q)


def _cmd_subcritical_ball(cfg):
    dom = _domain(cfg)
    params = dict(cfg.get("params", {}))
    p_fn = _expr_callable(cfg, "p", dom)
    q_fn = _expr_callable(cfg, "q", dom)
    center = params.get("center", list(dom.center))
    amplitude = float(params.get("amplitude", 0.6))
    base = cc.profile_from_spec(params.get("profile", "bump"))
    profile = lambda rho: amplitude * base(rho)  # noqa: E731
    result = ex.subcritical_ball_experiment(
        profile, [float(r) for r in _require(params, "R_list")], p_fn, q_fn,
        s_target=params.get("s_target"),
        center=tuple(center) if dom.dim == 2 else float(center[0]),
        resolution=int(params.get("resolution", 192)),
        critical_point=params.get("critical_point"),
    )
    metrics = {"smallest_passing_radius": result.details["smallest_passing_radius"],
               "s_target_source": result.details["s_target_source"]}
    return result, metrics, []


def _cmd_cc_check(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    center = params.get("center", list(dom.center))
    seq = cc.make_bubbles(
        params.get("profile", "bump"),
        tuple(center) if dom.dim == 2 else float(center[0]),
        [float(s) for s in _require(params, "scales")], p, q,
    )
    rep = cc.check_refined_inequality(
        seq, p, q, s_bar=params.get("s_bar"),
        delta_list=[float(d) for d in _require(params, "delta_list")],
        slack=float(params.get("slack", 0.05)),
    )
    rows = tuple(
        (r.scale, r.delta, r.nu, r.mu, r.residual, r.bound,
         1.0 if r.norm_ok else 0.0, 1.0 if r.ok else 0.0)
        for r in rep.rows
    )
    result = ex.ExperimentResult(
        name="cc-check",
        inputs={"center": list(seq.center), "scales": list(seq.scales)},
        columns=("scale", "delta", "nu", "mu", "residual", "bound",
                 "norm_ok", "ok"),
        rows=rows, verdict=rep.all_within,
        details={"s_bar": rep.s_bar, "s_bar_source": rep.s_bar_source},
    )
    metrics = {"s_bar": rep.s_bar, "s_bar_source": rep.s_bar_source,
               "normalization_violation": rep.normalization_violation}
    return result, metrics, []


def _cmd_classify(cfg):
    dom = _domain(cfg)
    p = _field(cfg, "p", dom)
    q = _field(cfg, "q", dom)
    params = dict(cfg.get("params", {}))
    kind = params.get("kind", "bubbles")
    center = params.get("center", list(dom.center))
    x0 = tuple(center) if dom.dim == 2 else float(center[0])
    profile = cc.profile_from_spec(params.get("profile", "bump"))
    if kind == "bubbles":
        seq = cc.make_bubbles(profile, x0, _require(params, "scales"), p, q)
        terms = list(seq.terms)
    elif kind == "constant":
        seq = cc.make_bubbles(profile, x0, [float(params.get("scale", 0.4))], p, q)
        terms = list(seq.terms) * int(params.get("count", 4))
    elif kind == "translating":
        terms = []
        for c in _require(params, "centers"):
            cpt = tuple(c) if dom.dim == 2 else float(c)
            rho = dom.distance_from(cpt)
            f = GridFunction(dom, profile(rho / float(params.get("scale", 0.3))),
                             dirichlet=True)
            nv = luxemburg_norm(f, q).value
            terms.append(f.with_values(f.values / nv))
    else:
        raise ConfigError(f"unknown sequence kind {kind!r}")
    verdict = cc.classify_dichotomy(
        terms, p, q,
        atom_threshold=float(params.get("atom_threshold", 0.9)),
        delta_cells=tuple(params.get("delta_cells", (4.0, 8.0))),
        conv_tol=float(params.get("conv_tol", 1e-3)),
    )
    rows = tuple(
        (float(i), d) for i, d in enumerate(verdict.diffs)
    )
    result = ex.ExperimentResult(
        name="classify", inputs={"kind": kind},
        columns=("step", "q_norm_difference"), rows=rows, verdict=None,
        details={"classification": verdict.kind,
                 "center": None if verdict.center is None else list(verdict.center)},
    )
    metrics = {"classification": verdict.kind,
               "center": None if verdict.center is None else list(verdict.center)}
    return result, metrics, []


COMMANDS = {
    "norm": _cmd_norm,
    "modular": _cmd_modular,
    "check-relations": _cmd_check_relations,
    "sobolev-min": _cmd_sobolev_min,
    "talenti": _cmd_talenti,
    "localized": _cmd_localized,
    "scaling": _cmd_scaling,
    "continuity": _cmd_continuity,
    "dilation": _cmd_dilation,
    "thm61": _cmd_thm61,
    "subcritical-ball": _cmd_subcritical_ball,
    "cc-check": _cmd_cc_check,
    "classify": _cmd_classify,
}


def run(config: dict, quiet: bool = False) -> int:
    """Execute one configured command; returns the process exit code."""
    t0 = time.perf_counter()
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")

    result, metrics, warnings = COMMANDS[command](config)

    out_dir = Path(config.get("out", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    csv_path = out_dir / f"{command}-{stamp}.csv"
    ex.write_csv(result, csv_path)

    summary = {
        "command": command,
        "verdict": result.verdict,
        "metrics": metrics,
        "config": config,
        "artifacts": [str(csv_path)],
        "timing_seconds": time.perf_counter() - t0,
    }
    if warnings:
        summary["warnings"] = warnings
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    if not quiet:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        shown = {k: v for k, v in metrics.items()}
        print(f"{command}: verdict={result.verdict} metrics={shown}")
        print(f"wrote {csv_path}")
    return 0 if result.verdict in (True, None) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varexp",
        description="Variable-exponent norm and embedding-constant toolbox",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--resolution", type=int,
                        help="grid resolution override (cells per axis)")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2

    if args.out is not None:
        config["out"] = args.out
    if args.seed is not None:
        config["seed"] = args.seed
    if args.resolution is not None:
        config["resolution_override"] = args.resolution

    try:
        return run(config, quiet=args.quiet)
    except (ConfigError, ExpressionError, ValueError, TypeError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
