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

This module owns that contract; the library takes plain values.  The flag
``--resolution`` sets the config's ``domain.resolution``, which ``summary.json`` shows.
``READERS`` holds the one JSON type reader of each key name, in
``params``, the domain or a profile.  ``COMMANDS`` gives each command
the expression ``fields`` it samples on the domain (see
:mod:`varexp.expressions`; ``r`` measures distance to the config's
``center``, the domain center when omitted), the ``params`` keys it
needs and the others it takes, and the function that ``run``s it;
``SHAPES``, ``PROFILES`` and the classify ``KINDS`` name theirs alike.
Every command that descends takes the descent options ``MINIMIZE``
flat in ``params``; stopping rules and thresholds are library
constants.  An absent key takes its CLI default from ``DEFAULTS`` (or
its kind) if it has one and is not passed on otherwise, so the
library's default holds.  A number is an integer or a finite float;
``seed`` is a non-negative integer.  The library checks every value.
Every run writes one CSV table ``<command>-<timestamp>.csv`` plus
``summary.json`` into the output directory, created before the
command runs; with a fixed seed the CSV bytes are reproducible, and
the summary's timing field is the one intentionally varying value.  Its
``warnings`` list the order warning and the command's ``UserWarning``s.

The exit code carries the verdict: 0 for pass (or commands without a
verdict), 1 for fail.  Any error, whether an unnamed, missing or
mistyped key, a rejected value or a failure while running, exits 2
with a one-line message, so an error never reads as a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import concentration as cc
from . import experiments as ex
from .exponents import ExponentField, exponent_order_ok
from .expressions import compile_on_domain
from .grid import GridDomain, GridFunction, as_point, ball, interval, rectangle
from .luxemburg import RELATIONS, check_modular_norm_relations, luxemburg_norm, modular
from .sobolev import (inf_talenti_over_range, localized_constant,
                      minimize_sobolev)

__all__ = ["main", "run", "SUMMARY_SCHEMA", "COMMANDS", "READERS"]

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


@contextmanager
def _about(keys: str):
    """Re-raise a library ValueError from the block as a ConfigError naming
    ``keys``, the config keys that every such error in the block is about."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{keys}: {e}") from e


# ---------------------------------------------------------------------------
# readers: (key, JSON value, domain or None) -> value; ConfigError names the key.

def _is_number(v) -> bool:
    """An int or a finite float; json also reads NaN and Infinity."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


def _is_numbers(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(_is_number, v))


def _reader(test, what: str, convert=None):
    """Reader of the values that pass ``test``, converted by ``convert``."""
    def read(key, v, dom=None):
        if not test(v):
            raise ConfigError(f"{key!r} must be {what}, got {v!r}")
        return v if convert is None else convert(v)
    return read


_int = _reader(lambda v: _is_number(v) and v % 1 == 0, "an integer", int)
_seed = _reader(lambda v: _is_number(v) and v % 1 == 0 and v >= 0,
                "a non-negative integer", int)
_text = _reader(lambda v: isinstance(v, str), "a string")


def _one_of(key, v, table: dict) -> str:
    return _reader(lambda v: isinstance(v, str) and v in table,
                   f"one of {', '.join(table)}")(key, v)


def _point(key, v, dom: GridDomain | None = None) -> tuple[float, ...]:
    """A point, of the domain when there is one; null is the domain center."""
    if v is None and dom is not None:
        return dom.center
    if not (_is_number(v) or _is_numbers(v)):
        raise ConfigError(f"{key!r} must be a number or a list of numbers, got {v!r}")
    try:
        return as_point(v, None if dom is None else dom.dim)
    except ValueError as e:
        raise ConfigError(f"{key!r}: {e}") from e


def _points(key, v, dom: GridDomain) -> list[tuple[float, ...]]:
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{key!r} must be a non-empty list of points, got {v!r}")
    return [_point(key, x, dom) for x in v]


def _profile(key, v, dom=None) -> Callable:
    """A radial profile: its name, or an object of its name and parameters."""
    spec = dict(v) if isinstance(v, dict) else {"name": v}
    try:
        keys, make = PROFILES[_one_of("name", spec.pop("name", None), PROFILES)]
        return make(**_read("profile", spec, "", keys))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key!r} is not a profile: {v!r} ({e})") from e


READERS = dict((key, reader) for keys, reader in [
    ("N n starts max_iters cells_per_diameter count", _int),
    ("radius s_target target_scale amplitude scale core inner plateau",
     _reader(_is_number, "a number", float)),
    ("r r_lo r_hi s_bar", _reader(lambda v: v is None or _is_number(v),
     "a number or null", lambda v: None if v is None else float(v))),
    ("radii scales t_list eps_list R_list delta_list",
     _reader(_is_numbers, "a non-empty list of numbers", lambda v: [float(x) for x in v])),
    ("bounds", _reader(lambda v: isinstance(v, list) and len(v) == 2 and (
        all(map(_is_number, v)) or all(_is_numbers(x) and len(x) == 2 for x in v)),
        "[lo, hi] or [[lo, hi], [lo, hi]]")),
    ("center", _point),
    ("centers", _points),
    ("resolution", lambda key, v, dom=None: dom.resolution[0]    # null: the domain's
     if v is None and dom is not None else _int(key, v)),
    ("kind", lambda key, v, dom=None: _one_of(key, v, KINDS)),
    ("profile", _profile),
] for key in keys.split())

# the CLI's own defaults, for keys whose library default differs or is missing;
# an absent resolution is null, the domain's cells per axis
DEFAULTS = {"profile": "bump", "center": None, "amplitude": 0.6, "kind": "bubbles",
            "resolution": None}


def _check_keys(where: str, obj: dict, accepted) -> None:
    unknown = [key for key in obj if key not in accepted]
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted) or 'none'}")


def _read(where: str, obj, needs: str, takes: str, dom: GridDomain | None = None) -> dict:
    """The values of JSON object ``obj``, read by READERS: it needs the keys
    ``needs`` names and takes those of ``takes``, absent ones from DEFAULTS."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where!r} must be a JSON object, got {obj!r}")
    needs, takes, defaults = needs.split(), takes.split(), DEFAULTS
    if "kind" in takes:   # a classify kind adds the keys it needs and takes
        kind = READERS["kind"]("kind", obj.get("kind", DEFAULTS["kind"]))
        kind_needs, kind_takes, kind_defaults = KINDS[kind]
        needs, takes = needs + kind_needs.split(), takes + kind_takes.split()
        defaults = DEFAULTS | kind_defaults
    _check_keys(where, obj, needs + takes)
    for key in needs:
        if key not in obj:
            raise ConfigError(f"{where} is missing {key!r}")
    given = {key: defaults[key] for key in takes if key in defaults} | obj
    return {key: READERS[key](key, v, dom) for key, v in given.items()}


# ---------------------------------------------------------------------------
# top level: seed, domain and the expression fields sampled on it

# domain shape -> (its keys beside "shape", all required; the domain they give)
SHAPES = {"interval": ("bounds resolution", lambda bounds, resolution: interval(
              *bounds, resolution)),
          "rectangle": ("bounds resolution", lambda bounds, resolution: rectangle(
              *bounds[0], *bounds[1], resolution)),
          "ball": ("center radius resolution", ball)}


def _domain(cfg: dict) -> GridDomain:
    spec = cfg.get("domain")
    if not isinstance(spec, dict):
        raise ConfigError(f"'domain' must be a JSON object, got {spec!r}")
    spec = dict(spec)
    keys, build = SHAPES[_one_of("shape", spec.pop("shape", None), SHAPES)]
    try:
        return build(**_read("domain", spec, keys, ""))
    except (TypeError, ValueError) as e:
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
    accepted = ["command", "seed", "out", "params"]
    if spec.fields:
        accepted += ["domain", "center", *spec.fields]
    _check_keys("config", cfg, accepted)
    c = SimpleNamespace(seed=_seed("seed", cfg.get("seed", 0)), dom=None)
    if spec.fields:
        c.dom = _domain(cfg)
        center = _point("center", cfg.get("center"), c.dom)
        for key in spec.fields:
            setattr(c, key, _sampled(key, cfg, c.dom, center))
    return c


# ---------------------------------------------------------------------------
# runners: (context, **params) -> ExperimentResult; metrics come from its details

def _single_row(name: str, metrics: dict, verdict: bool | None = None):
    return ex.ExperimentResult(name, tuple(metrics),
                               (tuple(float(v) for v in metrics.values()),), verdict, metrics)


def _norm(c):
    res = luxemburg_norm(c.u, c.p)
    return _single_row("norm", {"value": res.value, "iterations": res.iterations,
                                "bracket_lo": res.bracket[0],
                                "bracket_hi": res.bracket[1]})


def _check_relations(c):
    rep = check_modular_norm_relations(c.u, c.p)
    metrics = {"norm": rep.norm, "modular": rep.mod,
               **{key: float(getattr(rep, key)) for key in RELATIONS}}
    return _single_row("check-relations", metrics, rep.all_hold)


def _sobolev_min(c, **opts):
    est = minimize_sobolev(c.p, c.q, seed=c.seed, **opts)
    return ex.ExperimentResult("sobolev-min", ("iteration", "quotient"),
                               tuple((float(i), v) for i, v in enumerate(est.trace)), None,
                               {"value": est.value, "best_start": est.best_start,
                                "iterations": est.iterations[est.best_start]})


def _talenti(c, N, r=None, r_lo=None, r_hi=None):
    if r is not None and (r_lo, r_hi) == (None, None):
        r_lo = r_hi = r
    elif r is not None or None in (r_lo, r_hi):
        raise ConfigError("talenti takes either 'r' or both 'r_lo' and 'r_hi'")
    value, argmin = inf_talenti_over_range(N, r_lo, r_hi)
    return _single_row("talenti", {"N": N, "r_lo": r_lo, "r_hi": r_hi,
                                   "value": value, "argmin": argmin})


def _localized(c, center, radii, **kw):
    loc = localized_constant(center, c.p, c.q, radii, seed=c.seed, **kw)
    return ex.ExperimentResult("localized", ("radius", "s_estimate"),
                               tuple(zip(loc.radii, loc.values)), None,
                               {"extrapolated": loc.extrapolated, "monotone": loc.monotone})


def _cc_check(c, profile, center, scales, delta_list, s_bar=None):
    seq = cc.make_bubbles(profile, center, scales, c.p, c.q)
    with _about("'delta_list'"):
        rep = cc.check_refined_inequality(seq, c.p, c.q, s_bar, delta_list=delta_list)
    return ex.ExperimentResult("cc-check", tuple(f.name for f in fields(cc.RefinedRow)),
                               tuple(tuple(map(float, astuple(r))) for r in rep.rows),
                               rep.all_within,
                               {"s_bar": rep.s_bar, "s_bar_source": rep.s_bar_source,
                                "normalization_violation": rep.normalization_violation})


def _classify(c, kind, profile, center=None, scales=None, scale=None, count=None,
              centers=None):
    def bubbles(point, sizes, keys):
        with _about(f"{keys} give no bubble sequence"):
            return list(cc.make_bubbles(profile, point, sizes, c.p, c.q).terms)

    if kind == "bubbles":
        terms, length = bubbles(center, scales, "'center' and 'scales'"), "'scales'"
    elif kind == "constant":
        terms, length = bubbles(center, [scale], "'center' and 'scale'") * count, "'count'"
    else:
        terms = [bubbles(point, [scale], "'centers' and 'scale'")[0] for point in centers]
        length = "'centers'"
    with _about(f"{length} gives no sequence to classify"):
        verdict = cc.classify_dichotomy(terms, c.q)
    return ex.ExperimentResult("classify", ("step", "q_norm_difference"),
                               tuple((float(i), d) for i, d in enumerate(verdict.diffs)), None,
                               {"classification": verdict.kind,
                                "center": None if verdict.center is None
                                else list(verdict.center),
                                "atom_masses": verdict.atom_masses})


# ---------------------------------------------------------------------------
# the config contract

class Command(NamedTuple):
    fields: tuple[str, ...]      # expression fields sampled on the domain
    needs: str                   # the params keys a config must give
    takes: str                   # the other params keys it may give
    run: Callable                # (context, **params) -> ExperimentResult


_PU, _PQ = ("p", "u"), ("p", "q")
# the descent options, flat in ``params``, of every command that descends
MINIMIZE = "starts max_iters"
# profile name -> (its parameters, the profile they give)
PROFILES = {"bump": ("", lambda: cc.smooth_bump), "mollifier": ("", lambda: cc.mollifier),
            "talenti": ("n r core inner", cc.talenti_profile),
            "cutoff": ("plateau", cc.cutoff_profile)}
# classify kind -> (the params it needs, the others it takes, their CLI defaults)
KINDS = {"bubbles": ("scales", "center", {}),
         "constant": ("", "center scale count", {"scale": 0.4, "count": 4}),
         "translating": ("centers", "scale", {"scale": 0.3})}

COMMANDS = {
    "norm": Command(_PU, "", "", _norm),
    "modular": Command(_PU, "", "", lambda c: _single_row(
        "modular", {"value": modular(c.u, c.p)})),
    "check-relations": Command(_PU, "", "", _check_relations),
    "sobolev-min": Command(_PQ, "", MINIMIZE, _sobolev_min),
    "talenti": Command((), "N", "r r_lo r_hi", _talenti),
    "localized": Command(_PQ, "radii", "center cells_per_diameter " + MINIMIZE, _localized),
    "scaling": Command(
        _PQ, "scales", "profile center target_scale",
        lambda c, profile, center, scales, **kw: ex.scaling_limit_experiment(
            profile, center, scales, c.p, c.q, c.dom, **kw)),
    "continuity": Command(
        _PQ, "t_list", MINIMIZE,
        lambda c, t_list, **kw: ex.continuity_experiment(
            c.p, c.q, t_list, c.dom, seed=c.seed, **kw)),
    "dilation": Command(
        _PQ, "eps_list", "profile center resolution",
        lambda c, profile, eps_list, **kw: ex.dilation_check(
            profile, eps_list, c.p, c.q, **kw)),
    "thm61": Command(
        _PQ, "radii", "center cells_per_diameter " + MINIMIZE,
        lambda c, center, radii, **kw: ex.theorem61_experiment(
            center, c.p, c.q, radii, seed=c.seed, **kw)),
    "subcritical-ball": Command(
        _PQ, "R_list s_target", "profile amplitude center resolution",
        lambda c, profile, amplitude, R_list, **kw: ex.subcritical_ball_experiment(
            lambda rho: amplitude * profile(rho), ex.subcritical_radii(R_list, "R_list"),
            c.p, c.q, **kw)),
    "cc-check": Command(_PQ, "scales delta_list", "profile center s_bar", _cc_check),
    "classify": Command(_PQ, "", "kind profile", _classify),
}

_ORDER_WARNING = ("sup p > inf q on this domain; the embedding-theory hypotheses "
                  "do not all apply, proceeding anyway")


def run(config: dict, quiet: bool) -> int:
    """Execute one configured command; returns the process exit code."""
    t0 = time.perf_counter()
    if not isinstance(config, dict):
        raise ConfigError(f"the config must be a JSON object, got {config!r}")
    command = config.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    spec = COMMANDS[command]
    c = _context(spec, config)
    params = _read("params", config.get("params", {}), spec.needs, spec.takes, c.dom)
    out_dir = Path(_text("out", config.get("out", "out")))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create 'out' directory: {e}") from e
    notes = [_ORDER_WARNING] if "q" in spec.fields \
        and not exponent_order_ok(c.p, c.q) else []
    result = None   # a failed command's warnings all print, as they would unrecorded
    try:
        with warnings.catch_warnings(record=True) as caught:
            result = spec.run(c, **params)
    finally:
        for w in caught:
            if result is None or not issubclass(w.category, UserWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            elif str(w.message) not in notes:
                notes.append(str(w.message))

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
    if notes:
        summary["warnings"] = notes
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    if not quiet:
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
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
                        help="the domain's resolution (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    args = parser.parse_args(argv)

    overrides = {"out": args.out, "seed": args.seed}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if isinstance(config, dict):   # run() rejects any other config
            config.update((key, v) for key, v in overrides.items() if v is not None)
            if args.resolution is not None:
                if not isinstance(config.get("domain"), dict):
                    raise ConfigError("--resolution needs a config with a 'domain' object")
                config["domain"]["resolution"] = args.resolution
        return run(config, quiet=args.quiet)
    except Exception as e:   # a failure of any kind is an error, never a verdict
        message = " ".join(str(e).splitlines()) or type(e).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
