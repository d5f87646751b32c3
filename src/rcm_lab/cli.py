"""Command-line front end.

Exit codes: 0 success, 2 configuration problem, 3 trial failure.
"""

import argparse
import json
import math
import sys

from .connfn import (InconclusiveTailError, NonConvergentError, from_config,
                     integral_constant)
from .experiments import ConfigError, SweepConfig, TrialError, run_sweep, run_trial
from .models import InvalidParamsError, ModelSpec
from .quadrature import (expected_components_order2, isolation_report,
                         truncation_limit)


def _load_g(text):
    """Connection-function config: inline JSON or a path to a JSON file."""
    text = text.strip()
    if text.startswith("{"):
        cfg = json.loads(text)
    else:
        with open(text) as fh:
            cfg = json.load(fh)
    return from_config(cfg)


def _add_g(p):
    p.add_argument("--g", required=True,
                   help="connection function: inline JSON or path to JSON")


def _add_model_params(p):
    p.add_argument("--rho", type=float, required=True, help="intensity rho")
    p.add_argument("--b", type=float, default=0.0, help="offset b")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="rcm-lab",
        description="Random connection models on the square and torus: "
                    "simulation, coupling, and isolation integrals.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True, help="path to sweep JSON")
    p.add_argument("--out", default=None, help="output directory override")

    p = sub.add_parser("quad", help="isolation integrals and decomposition")
    _add_g(p)
    _add_model_params(p)
    p.add_argument("--model", choices=("dense", "extended", "square", "torus"),
                   default="square",
                   help="frame used to phrase the model (all frames share "
                        "the same isolation expectations)")
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--eps", type=float, default=0.2,
                   help="decomposition margin exponent, margin = r_rho^(-eps)")

    p = sub.add_parser("classify", help="tail class of a connection function")
    _add_g(p)
    p.add_argument("--b", type=float, default=0.0,
                   help="offset used for the implied truncation limit")

    p = sub.add_parser("coupling", help="torus trials with boundary coupling")
    _add_g(p)
    _add_model_params(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "cells"), default="exact")

    p = sub.add_parser("components",
                       help="expected order-2 component count")
    _add_g(p)
    _add_model_params(p)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0,
                   help="also simulate this many square trials for mean xi_2")
    p.add_argument("--mode", choices=("importance", "uniform"),
                   default="importance")
    return ap


def _cmd_run(args):
    config = SweepConfig.from_json(args.config)
    records, aggregates = run_sweep(config, out_dir=args.out,
                                    log=lambda s: print(s))
    out = args.out or config.out_dir
    print(f"wrote {len(records)} trials to {out}/trials.jsonl")
    print(f"wrote {len(aggregates)} summary rows to {out}/summary.csv")
    for a in aggregates:
        z = "" if math.isnan(a.zscore_W) else f"  z={a.zscore_W:+.2f}"
        print(f"  {a.model:>8s} rho={a.rho:g}: "
              f"mean_W={a.mean_W:.4f} (se {a.se_W:.4f}){z}")
    return 0


def _cmd_quad(args):
    g = _load_g(args.g)
    spec = ModelSpec(model=args.model, rho=args.rho, b=args.b, g=g)
    rep = isolation_report(spec, rel_tol=args.rel_tol, eps=args.eps)
    print(f"C            = {integral_constant(g):.12g}")
    print(f"EW (square)  = {rep.EW:.12g}")
    print(f"EW (torus)   = {rep.EW_torus:.12g}")
    print(f"EW (plane)   = {rep.EW_infinite:.12g}")
    print(f"ratio        = {rep.ratio:.12g}")
    print(f"decomposition @ margin {rep.margin:.6g} (eps={rep.eps:g}):")
    print(f"  central    = {rep.central:.12g}")
    print(f"  side       = {rep.side:.12g}")
    print(f"  corner     = {rep.corner:.12g}")
    print(f"  residual   = {rep.tolerances['decomposition_residual']:.3g}")
    return 0


def _cmd_classify(args):
    g = _load_g(args.g)
    from .connfn import classify_tail
    try:
        tc = classify_tail(g)
    except InconclusiveTailError as exc:
        print(f"class      = inconclusive ({exc})")
        return 0
    print(f"class      = {tc.kind}")
    if tc.limit_estimate is not None:
        print(f"tail level = {tc.limit_estimate:.6g}")
    print(f"confidence = {tc.confidence}")
    lim = truncation_limit(g, args.b)
    print(f"E(W^T) limit at b={args.b:g}: "
          + ("inf" if math.isinf(lim) else f"{lim:.12g}"))
    return 0


def _cmd_coupling(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    g = _load_g(args.g)
    spec = ModelSpec(model="torus", rho=args.rho, b=args.b, g=g).with_constant()
    sums = {"W": 0, "W_T": 0, "W_E": 0}
    for t in range(args.trials):
        rec = run_trial(spec, args.seed + t, mode=args.mode)
        for k in sums:
            sums[k] += rec[k]
    n = args.trials
    print(f"trials = {n}, identity W = W_T + W_E held in all")
    print(f"mean W   = {sums['W'] / n:.6f}")
    print(f"mean W_T = {sums['W_T'] / n:.6f}")
    print(f"mean W_E = {sums['W_E'] / n:.6f}")
    return 0


def _cmd_components(args):
    if args.trials < 0:
        raise ValueError("--trials must not be negative")
    g = _load_g(args.g)
    spec = ModelSpec(model="square", rho=args.rho, b=args.b, g=g).with_constant()
    est, se = expected_components_order2(spec, samples=args.samples,
                                         seed=args.seed, mode=args.mode)
    print(f"E(xi_2) quadrature = {est:.6g} (se {se:.2g})")
    if args.trials > 0:
        from .simulate import census
        from .models import realize
        vals = []
        for t in range(args.trials):
            graph = realize(spec, args.seed + 1_000_000 + t)
            vals.append(census(graph).xi.get(2, 0))
        import numpy as np
        vals = np.asarray(vals, dtype=float)
        se_sim = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
        print(f"mean xi_2 simulated = {vals.mean():.6g} (se {se_sim:.2g}, "
              f"{args.trials} trials)")
    return 0


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {"run": _cmd_run, "quad": _cmd_quad, "classify": _cmd_classify,
                "coupling": _cmd_coupling, "components": _cmd_components}
    try:
        return handlers[args.command](args)
    except (ConfigError, InvalidParamsError, NonConvergentError,
            json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrialError as exc:
        print(f"trial failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
