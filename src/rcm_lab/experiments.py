"""Trial running, sweeps over (model, rho), and output files.

A sweep walks a grid of models and intensities with a shared connection
function, runs seeded independent trials, and writes two artifacts:

* ``trials.jsonl``: one JSON object per trial with the raw counts.
* ``summary.csv``: one row per (model, rho) with means, standard errors,
  quadrature companion values, and a z-score of the simulated mean against
  its quadrature target.

Seeds are ``base_seed + trial_index``, so any trial can be reproduced in
isolation and equal-seed trials across models share their randomness.
"""

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .connfn import from_config
from .models import (MODELS, InvalidParamsError, ModelSpec, derive,
                     realize)
from .quadrature import (expected_isolated_infinite, expected_isolated_square,
                         expected_isolated_torus)
from .simulate import boundary_coupling, census, window_truncation_census

XI_COLUMNS = tuple(range(2, 9))


class ConfigError(ValueError):
    pass


class TrialError(RuntimeError):
    pass


def _number(v, kind=numbers.Real):
    """True when v is a number of this kind; a bool is not a number."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass
class SweepConfig:
    g: dict
    models: list
    rhos: list
    b: float = 0.0
    trials: int = 100
    base_seed: int = 0
    mode: str = "exact"
    quad: bool = True
    workers: int = 0
    tail_mass: float = 1e-6
    out_dir: str = "results"

    def __post_init__(self):
        if not isinstance(self.g, dict) or "family" not in self.g:
            raise ConfigError("g must be a config object with a 'family' field")
        try:
            g = self.connection()
        except Exception as exc:
            raise ConfigError(f"bad connection function config: {exc}") from exc
        if not self.models:
            raise ConfigError("models must be a non-empty list")
        for m in self.models:
            if m not in MODELS:
                raise ConfigError(f"unknown model {m!r}; choose from {MODELS}")
        # a repeated grid entry would run its trials again into one row
        if len(set(self.models)) < len(self.models):
            raise ConfigError("models must not repeat a model, got "
                              f"{self.models!r}")
        if not self.rhos:
            raise ConfigError("rhos must be a non-empty list")
        for r in self.rhos:
            if not (_number(r) and r > 0):
                raise ConfigError("rhos must be positive numbers")
        if len({float(r) for r in self.rhos}) < len(self.rhos):
            raise ConfigError("rhos must not repeat a value, got "
                              f"{self.rhos!r}")
        if not (_number(self.b) and math.isfinite(self.b)):
            raise ConfigError("b must be a finite number")
        if not (_number(self.trials, numbers.Integral) and self.trials >= 1):
            raise ConfigError("trials must be a positive integer")
        if not (_number(self.base_seed, numbers.Integral)
                and self.base_seed >= 0):
            raise ConfigError("base_seed must be a non-negative integer")
        if self.mode not in ("exact", "cells"):
            raise ConfigError("mode must be 'exact' or 'cells'")
        if not isinstance(self.quad, bool):
            raise ConfigError("quad must be true or false")
        if not (_number(self.workers, numbers.Integral) and self.workers >= 0):
            raise ConfigError("workers must be a non-negative integer")
        if not (_number(self.tail_mass) and 0.0 < self.tail_mass < 1.0):
            raise ConfigError("tail_mass must be a number in (0, 1)")
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        # every (model, rho) must derive, or the sweep would fail midway
        for m in self.models:
            for r in self.rhos:
                try:
                    derive(ModelSpec(model=m, rho=float(r), b=float(self.b),
                                     g=g))
                except (InvalidParamsError, OverflowError) as exc:
                    raise ConfigError(f"rhos: rho = {r!r} with b = {self.b!r} "
                                      f"fails for model {m!r}: {exc}") from exc

    def connection(self):
        return from_config(self.g)

    @classmethod
    def from_dict(cls, d):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        missing = {"g", "models", "rhos"} - set(d)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(data)


def run_trial(spec, seed, mode="exact", tail_mass=1e-6):
    """One seeded realization; returns a plain-dict trial record.

    Torus trials additionally run the boundary coupling, so the record
    carries the exact split W = W_T + W_E alongside the square census:
    a torus record's xi (and summary.csv's mean_xi*) counts the
    components of the coupled square graph, not of the torus graph.
    Window trials report the pad-aware isolated count (W) next to the
    core-truncated one (W_core).
    """
    graph = realize(spec, seed, mode=mode, tail_mass=tail_mass)
    rec = {"model": spec.model, "rho": float(spec.rho), "b": float(spec.b),
           "seed": int(seed), "n": int(graph.points.positions.shape[0])}
    if spec.model == "torus":
        square_graph, w_t, w_e, w = boundary_coupling(graph)
        # the torus edges are not needed again: free them before the census
        del graph
        # W_E = W - W_T by definition: check W by two independent counts
        cen = census(square_graph)
        if cen.W != w:
            raise TrialError(f"coupling check failed at seed {seed}: census "
                             f"W = {cen.W}, degree W = {w}")
        rec.update(W=int(w), W_T=int(w_t), W_E=int(w_e))
    elif spec.model == "window":
        d = derive(spec)
        w_core, w_pad = window_truncation_census(graph, d.core_side)
        cen = census(graph)
        half = 0.5 * d.core_side
        pos = graph.points.positions
        n_core = int(np.sum((np.abs(pos[:, 0]) <= half)
                            & (np.abs(pos[:, 1]) <= half)))
        rec.update(W=int(w_pad), W_core=int(w_core), n_core=n_core)
    else:
        cen = census(graph)
        rec.update(W=int(cen.W))
    rec["xi"] = {str(k): int(v) for k, v in sorted(cen.xi.items())}
    rec["largest"] = int(cen.largest_order)
    return rec


def _trial_task(args):
    spec, seed, mode, tail_mass = args
    return run_trial(spec, seed, mode=mode, tail_mass=tail_mass)


@dataclass
class AggregateStats:
    model: str
    rho: float
    b: float
    trials: int
    mean_W: float
    se_W: float
    quad_EW: float = math.nan
    quad_EW_torus: float = math.nan
    mean_W_T: float = math.nan
    mean_W_E: float = math.nan
    mean_xi: dict = field(default_factory=dict)
    zscore_W: float = math.nan


# summary.csv has one column per AggregateStats field, in field order, and
# mean_xi spread over one column per order of XI_COLUMNS
SUMMARY_HEADER = [name for f in fields(AggregateStats)
                  for name in ([f"mean_xi{k}" for k in XI_COLUMNS]
                               if f.name == "mean_xi" else [f.name])]


def aggregate_from_records(records, quad=None):
    """Collapse trial records into one AggregateStats per (model, rho).

    quad, when given, maps (model, rho) to (quad_EW, quad_EW_torus, target)
    where target is the reference for the z-score of mean_W.
    """
    groups = {}
    for rec in records:
        groups.setdefault((rec["model"], rec["rho"]), []).append(rec)
    out = []
    for (model, rho), recs in sorted(groups.items()):
        ws = np.array([r["W"] for r in recs], dtype=float)
        n = len(recs)
        mean_w = float(ws.mean())
        se_w = float(ws.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
        agg = AggregateStats(model=model, rho=rho, b=recs[0]["b"], trials=n,
                             mean_W=mean_w, se_W=se_w)
        if all("W_T" in r for r in recs):
            agg.mean_W_T = float(np.mean([r["W_T"] for r in recs]))
            agg.mean_W_E = float(np.mean([r["W_E"] for r in recs]))
        agg.mean_xi = {
            k: float(np.mean([r["xi"].get(str(k), 0) for r in recs]))
            for k in XI_COLUMNS}
        if quad and (model, rho) in quad:
            q_ew, q_ewt, target = quad[(model, rho)]
            agg.quad_EW, agg.quad_EW_torus = q_ew, q_ewt
            if math.isfinite(target) and se_w and se_w > 0.0:
                agg.zscore_W = (mean_w - target) / se_w
        out.append(agg)
    return out


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def write_summary_csv(path, aggregates):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_HEADER)
        for a in aggregates:
            row = []
            for f in fields(AggregateStats):
                v = getattr(a, f.name)
                if f.name == "mean_xi":
                    row += [_fmt(v.get(k, math.nan)) for k in XI_COLUMNS]
                else:
                    row.append(_fmt(float(v) if f.type is float else v))
            w.writerow(row)


def run_sweep(config, out_dir=None, log=None):
    """Run the whole grid; writes trials.jsonl and summary.csv.

    Returns (records, aggregates).  With config.workers > 1 trials are
    dispatched to a process pool; the merge respects submission order, so
    outputs are identical to a serial run.
    """
    g = config.connection()
    out_dir = out_dir or config.out_dir
    os.makedirs(out_dir, exist_ok=True)

    tasks = []
    for model in config.models:
        for rho in config.rhos:
            spec = ModelSpec(model=model, rho=float(rho), b=float(config.b),
                             g=g)
            for t in range(config.trials):
                tasks.append((spec, config.base_seed + t, config.mode,
                              config.tail_mass))

    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(_trial_task, tasks, chunksize=4))
    else:
        records = [_trial_task(t) for t in tasks]

    quad = {}
    if config.quad:
        cache = {}
        for model in config.models:
            for rho in config.rhos:
                r = float(rho)
                if r not in cache:
                    spec = ModelSpec(model="square", rho=r, b=float(config.b),
                                     g=g)
                    cache[r] = (expected_isolated_square(spec),
                                expected_isolated_torus(spec))
                    if log:
                        log(f"quad companions rho={r:g}: EW={cache[r][0]:.6g} "
                            f"EW_torus={cache[r][1]:.6g}")
                q_ew, q_ewt = cache[r]
                # mean_W is a square-frame count for every model (torus
                # trials report the coupled square graph); only the window
                # estimator targets the plane limit.
                if model == "window":
                    target = expected_isolated_infinite(config.b)
                else:
                    target = q_ew
                quad[(model, r)] = (q_ew, q_ewt, target)

    aggregates = aggregate_from_records(records, quad=quad or None)

    with open(os.path.join(out_dir, "trials.jsonl"), "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    write_summary_csv(os.path.join(out_dir, "summary.csv"), aggregates)
    return records, aggregates


def convergence_check(series, target, ses=None):
    """Check that a sequence of estimates approaches a target.

    With standard errors: every estimate must sit within 3 SE of the
    target.  Without: the absolute deviation must not grow from first to
    last entry.  Returns (ok, info).
    """
    vals = np.asarray(list(series), dtype=float)
    dev = np.abs(vals - float(target))
    info = {"deviations": dev.tolist()}
    if ses is not None:
        ses = np.asarray(list(ses), dtype=float)
        if ses.shape != vals.shape or np.any(ses <= 0.0):
            raise ValueError("ses must be positive and match series")
        z = dev / ses
        info["z_scores"] = z.tolist()
        return bool(np.all(z <= 3.0)), info
    info["trend"] = float(dev[-1] - dev[0])
    return bool(dev[-1] <= dev[0] + 1e-12), info

