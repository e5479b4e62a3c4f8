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

``COMMANDS`` is the config contract: each :class:`Command` holds the
expression ``fields`` it samples on the domain (see
:mod:`varexp.expressions`; ``r`` measures distance to the config's
``center``, the domain center when omitted), its ``params`` keys, each
with a typed reader and ``REQUIRED``, ``OMIT`` or a default, and the
function that ``run``s it.  The library owns every default it has (such
a key is ``OMIT``: passed on only when given), every value check, the
domain spec and the bubble sequences; the readers check JSON types only.
A key a command does not name or a rejected value exits 2 with a
one-line message.  Every run writes one CSV table
``<command>-<timestamp>.csv`` plus ``summary.json`` into the output
directory, created before the command runs; with a fixed seed the CSV
bytes are reproducible, and the summary's timing field is the one
intentionally varying value.

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
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import concentration as cc
from . import experiments as ex
from .exponents import ExponentField, exponent_order_ok
from .expressions import ExpressionError, compile_on_domain
from .grid import GridDomain, GridFunction, as_point, make_domain
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

REQUIRED = object()   # a key that has no default
OMIT = object()       # a key that, when absent, is not passed on


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# readers: (key, JSON value, domain or None) -> value; ConfigError names the key.
# Defaults are JSON values too and go through the same reader.

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _reader(test, what: str, convert=None):
    """Reader of the values that pass ``test``, converted by ``convert``."""
    def read(key, v, dom=None):
        if not test(v):
            raise ConfigError(f"{key!r} must be {what}, got {v!r}")
        return v if convert is None else convert(v)
    return read


_number = _reader(_is_number, "a number", float)
_int = _reader(lambda v: isinstance(v, int) and not isinstance(v, bool)
               or isinstance(v, float) and v.is_integer(), "an integer", int)
_bool = _reader(lambda v: isinstance(v, bool), "true or false")
_text = _reader(lambda v: isinstance(v, str), "a string")
_floats = _reader(_is_numbers, "a non-empty list of numbers",
                  lambda v: [float(x) for x in v])
_guard_pair = _reader(lambda v: _is_numbers(v) and len(v) == 2, "[cells, fraction]",
                      lambda v: (float(v[0]), float(v[1])))


def _name(*names):
    return _reader(lambda v: v in names, f"one of {', '.join(names)}")


def _optional(reader):
    return lambda key, v, dom=None: None if v is None else reader(key, v, dom)


def _profile(key, v, dom=None):
    try:
        return cc.profile_from_spec(v)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{key!r} is not a profile: {v!r} ({e})") from e


def _point(key, v, dom: GridDomain) -> tuple[float, ...]:
    """A point of the domain; null is the domain center."""
    if v is None:
        return dom.center
    if not (_is_number(v) or _is_numbers(v)):
        raise ConfigError(f"{key!r} must be a number or a list of numbers, got {v!r}")
    try:
        return as_point(v, dom.dim)
    except ValueError as e:
        raise ConfigError(f"{key!r}: {e}") from e


def _points(key, v, dom: GridDomain) -> list[tuple[float, ...]]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key!r} must be a non-empty list of points, got {v!r}")
    return [_point(key, x, dom) for x in v]


# table entries of a key passed on only when given
_NUMBER, _INT, _OPT_NUMBER = (_number, OMIT), (_int, OMIT), (_optional(_number), OMIT)
_MINIMIZE = {"starts": _INT, "max_iters": _INT, "patience": _INT, "tol_opt": _NUMBER,
             "concentration_guard": (_optional(_guard_pair), OMIT)}


def _minimize(key, v, dom=None) -> dict:
    return _read(repr(key), v, _MINIMIZE, dom)


def _check_keys(where: str, obj: dict, accepted) -> None:
    unknown = [key for key in obj if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted) or 'none'}")


def _read(where: str, obj, table: dict, dom: GridDomain | None) -> dict:
    """The values of JSON object ``obj`` under ``table``: key -> (reader, default)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    _check_keys(where, obj, table)
    out = {}
    for key, (reader, default) in table.items():
        if key in obj:
            out[key] = reader(key, obj[key], dom)
        elif default is REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        elif default is not OMIT:
            out[key] = reader(key, default, dom)
    return out


# ---------------------------------------------------------------------------
# top level: seed, domain and the expression fields sampled on it

def _domain(cfg: dict) -> GridDomain:
    spec = cfg.get("domain")
    if not isinstance(spec, dict):
        raise ConfigError(f"'domain' must be a JSON object, got {spec!r}")
    if "resolution_override" in cfg:
        spec = dict(spec, resolution=cfg["resolution_override"])
    try:
        return make_domain(spec)
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad domain spec: {e}") from e


def _sampled(key: str, cfg: dict, dom: GridDomain, center):
    """Exponent field (``p``, ``q``) or grid function (``u``) of an expression."""
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    try:
        func = compile_on_domain(str(cfg[key]), dom, center=center)
        if key == "u":
            return GridFunction.from_callable(dom, func)
        return ExponentField.from_callable(func, dom)
    except ValueError as e:
        raise ConfigError(f"invalid field {key!r}: {e}") from e


def _context(spec: Command, cfg: dict) -> SimpleNamespace:
    """Seed, domain and the sampled fields."""
    accepted = ["command", "seed", "out", "resolution_override", "params"]
    if spec.fields:
        accepted += ["domain", "center", *spec.fields]
    _check_keys("config", cfg, accepted)
    c = SimpleNamespace(seed=_int("seed", cfg.get("seed", 0)), dom=None)
    if spec.fields:
        c.dom = _domain(cfg)
        center = _point("center", cfg.get("center"), c.dom)
        for key in spec.fields:
            setattr(c, key, _sampled(key, cfg, c.dom, center))
    return c


# ---------------------------------------------------------------------------
# runners: (context, **params) -> ExperimentResult; metrics come from its details

def _table(name, columns, rows, details, verdict=None) -> ex.ExperimentResult:
    return ex.ExperimentResult(name=name, columns=columns, rows=rows,
                               verdict=verdict, details=details)


def _single_row(name: str, metrics: dict, verdict: bool | None = None):
    return _table(name, tuple(metrics), (tuple(float(v) for v in metrics.values()),),
                  metrics, verdict)


def _norm(c):
    res = luxemburg_norm(c.u, c.p)
    return _single_row("norm", {"value": res.value, "iterations": res.iterations,
                                "bracket_lo": res.bracket[0],
                                "bracket_hi": res.bracket[1]})


_RELATIONS = ("unit_modular", "trichotomy", "bound_above_one", "bound_below_one",
              "scaling_to_zero", "scaling_to_inf")


def _check_relations(c):
    rep = check_modular_norm_relations(c.u, c.p)
    metrics = {"norm": rep.norm, "modular": rep.mod,
               **{key: float(getattr(rep, key)) for key in _RELATIONS}}
    return _single_row("check-relations", metrics, rep.all_hold)


def _sobolev_min(c, **opts):
    est = minimize_sobolev(c.p, c.q, seed=c.seed, **opts)
    return _table("sobolev-min", ("iteration", "quotient"),
                  tuple((float(i), v) for i, v in enumerate(est.trace)),
                  {"value": est.value, "best_start": est.best_start,
                   "iterations": est.iterations[est.best_start],
                   "concentrated": est.concentrated})


def _talenti(c, N, r=None, r_lo=None, r_hi=None):
    if r is not None and (r_lo, r_hi) == (None, None):
        r_lo = r_hi = r
    elif r is not None or None in (r_lo, r_hi):
        raise ConfigError("talenti takes either 'r' or both 'r_lo' and 'r_hi'")
    value, argmin = inf_talenti_over_range(N, r_lo, r_hi)
    return _single_row("talenti", {"N": N, "r_lo": r_lo, "r_hi": r_hi,
                                   "value": value, "argmin": argmin})


def _flat(minimize=(), **kw) -> dict:
    return dict(minimize, **kw)   # the nested minimize options beside the rest


def _localized(c, center, radii, **kw):
    loc = localized_constant(center, c.p, c.q, radii, seed=c.seed, **_flat(**kw))
    return _table("localized", ("radius", "s_estimate"),
                  tuple(zip(loc.radii, loc.values)),
                  {"extrapolated": loc.extrapolated, "monotone": loc.monotone})


def _cc_check(c, profile, center, scales, delta_list, **kw):
    seq = cc.make_bubbles(profile, center, scales, c.p, c.q)
    rep = cc.check_refined_inequality(seq, c.p, c.q, delta_list=delta_list, **kw)
    return _table("cc-check", ("scale", "delta", "nu", "mu", "residual", "bound",
                               "norm_ok", "ok"),
                  tuple((r.scale, r.delta, r.nu, r.mu, r.residual, r.bound,
                         float(r.norm_ok), float(r.ok)) for r in rep.rows),
                  {"s_bar": rep.s_bar, "s_bar_source": rep.s_bar_source,
                   "normalization_violation": rep.normalization_violation},
                  rep.all_within)


def _classify(c, kind, profile, **kw):
    given = {key: kw.pop(key) for key in _KIND_KEYS if key in kw}
    k = _read(f"classify {kind!r}", given, _CLASSIFY_KEYS[kind], c.dom)

    def bubbles(point, scales, keys):
        try:
            return list(cc.make_bubbles(profile, point, scales, c.p, c.q).terms)
        except ValueError as e:
            raise ConfigError(f"{keys} give no bubble sequence: {e}") from e

    if kind == "bubbles":
        terms = bubbles(k["center"], k["scales"], "'center' and 'scales'")
    elif kind == "constant":
        terms = bubbles(k["center"], [k["scale"]], "'center' and 'scale'") * k["count"]
    else:
        terms = [bubbles(point, [k["scale"]], "'centers' and 'scale'")[0]
                 for point in k["centers"]]
    verdict = cc.classify_dichotomy(terms, c.p, c.q, **kw)
    return _table("classify", ("step", "q_norm_difference"),
                  tuple((float(i), d) for i, d in enumerate(verdict.diffs)),
                  {"classification": verdict.kind,
                   "center": None if verdict.center is None else list(verdict.center)})


# ---------------------------------------------------------------------------
# the config contract

class Command(NamedTuple):
    fields: tuple[str, ...]      # expression fields sampled on the domain
    params: dict                 # params key -> (reader, REQUIRED, OMIT or default)
    run: Callable                # (context, **params) -> ExperimentResult


_PU, _PQ = ("p", "u"), ("p", "q")
_CENTER = (_point, None)
_PROFILE = (_profile, "bump")
_FLOATS = (_floats, REQUIRED)
# the params each classify kind takes beside the common ones; the common
# table passes them on as given, and _classify reads them by its kind
_CLASSIFY_KEYS = {"bubbles": {"center": _CENTER, "scales": _FLOATS},
                  "constant": {"center": _CENTER, "scale": (_number, 0.4),
                               "count": (_int, 4)},
                  "translating": {"scale": (_number, 0.3), "centers": (_points, REQUIRED)}}
_KIND_KEYS = {key: (lambda key, v, dom=None: v, OMIT)
              for keys in _CLASSIFY_KEYS.values() for key in keys}

COMMANDS = {
    "norm": Command(_PU, {}, _norm),
    "modular": Command(_PU, {}, lambda c: _single_row(
        "modular", {"value": modular(c.u, c.p)})),
    "check-relations": Command(_PU, {}, _check_relations),
    "sobolev-min": Command(_PQ, _MINIMIZE, _sobolev_min),
    "talenti": Command((), {"N": (_int, REQUIRED), "r": _OPT_NUMBER,
                            "r_lo": _OPT_NUMBER, "r_hi": _OPT_NUMBER}, _talenti),
    "localized": Command(_PQ, {"center": _CENTER, "radii": _FLOATS,
                               "cells_per_diameter": _INT,
                               "minimize": (_minimize, OMIT)}, _localized),
    "scaling": Command(
        _PQ, {"profile": _PROFILE, "center": _CENTER, "scales": _FLOATS,
              "rel_tol": _NUMBER, "target_scale": _NUMBER},
        lambda c, profile, center, scales, **kw: ex.scaling_limit_experiment(
            profile, center, scales, c.p, c.q, c.dom, **kw)),
    "continuity": Command(
        _PQ, {"t_list": _FLOATS, "rel_tol": _NUMBER, "minimize": (_minimize, OMIT)},
        lambda c, t_list, **kw: ex.continuity_experiment(
            c.p, c.q, t_list, c.dom, seed=c.seed, **_flat(**kw))),
    # resolution null: the domain's cells per axis
    "dilation": Command(
        _PQ, {"profile": _PROFILE, "center": _CENTER, "eps_list": _FLOATS,
              "resolution": (_optional(_int), None), "rel_tol": _NUMBER},
        lambda c, profile, center, eps_list, resolution, **kw: ex.dilation_check(
            profile, eps_list, c.p, c.q, center=center,
            resolution=c.dom.resolution[0] if resolution is None else resolution,
            **kw)),
    "thm61": Command(
        _PQ, {"center": _CENTER, "radii": _FLOATS, "allow_degenerate": (_bool, OMIT),
              "rel_tol": _NUMBER, "cells_per_diameter": _INT,
              "minimize": (_minimize, OMIT)},
        lambda c, center, radii, **kw: ex.theorem61_experiment(
            center, c.p, c.q, radii, seed=c.seed, **_flat(**kw))),
    "subcritical-ball": Command(
        _PQ, {"profile": _PROFILE, "amplitude": (_number, 0.6), "center": _CENTER,
              "R_list": _FLOATS, "s_target": _OPT_NUMBER,
              "resolution": _INT, "critical_point": (_optional(_point), OMIT)},
        lambda c, profile, amplitude, R_list, **kw: ex.subcritical_ball_experiment(
            lambda rho: amplitude * profile(rho), R_list, c.p, c.q, **kw)),
    "cc-check": Command(
        _PQ, {"profile": _PROFILE, "center": _CENTER, "scales": _FLOATS,
              "s_bar": _OPT_NUMBER, "delta_list": _FLOATS, "slack": _NUMBER},
        _cc_check),
    "classify": Command(
        _PQ, {"kind": (_name(*_CLASSIFY_KEYS), "bubbles"), "profile": _PROFILE,
              **_KIND_KEYS, "atom_threshold": _NUMBER,
              "delta_cells": (_floats, OMIT), "conv_tol": _NUMBER},
        _classify),
}

_ORDER_WARNING = ("sup p > inf q on this domain; the embedding-theory hypotheses "
                  "do not all apply, proceeding anyway")


def run(config: dict, quiet: bool = False) -> int:
    """Execute one configured command; returns the process exit code."""
    t0 = time.perf_counter()
    if not isinstance(config, dict):
        raise ConfigError(f"the config must be a JSON object, got {config!r}")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    spec = COMMANDS[command]
    c = _context(spec, config)
    params = _read("params", config.get("params", {}), spec.params, c.dom)
    out_dir = Path(_text("out", config.get("out", "out")))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create 'out' directory: {e}") from e
    result = spec.run(c, **params)
    warnings = [_ORDER_WARNING] if "q" in spec.fields \
        and not exponent_order_ok(c.p, c.q) else []

    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    csv_path = out_dir / f"{command}-{stamp}.csv"
    ex.write_csv(result, csv_path)

    summary = {
        "command": command,
        "verdict": result.verdict,
        "metrics": result.details,
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
        print(f"{command}: verdict={result.verdict} metrics={result.details}")
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

    overrides = {"out": args.out, "seed": args.seed, "resolution_override": args.resolution}
    if isinstance(config, dict):   # run() rejects any other config
        config.update((key, v) for key, v in overrides.items() if v is not None)

    try:
        return run(config, quiet=args.quiet)
    except (ConfigError, ExpressionError, ValueError, TypeError, RuntimeError,
            OverflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
