"""rcm-lab benchmark: one workload in one process; the result is the last line.

    python3 perfbench/run.py --workload quad-disk --seed 1 --seconds 10 --trace 0

The run sets up (import rcm_lab, build g, fill in C, derive the frame), then
repeats whole rounds of the workload (workloads.py) until --seconds have
passed, then checks every output against computations made apart from the
program (checks.py).  --trace 0 prints the end-to-end metrics; --trace 1
wraps each layer's public functions from outside (tracer.py) and prints the
per-layer metrics.  A results file goes to perfbench/results/, sweep output
to perfbench/sweeps/.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SIM_MODE, TAIL_MASS, WORKLOADS, trial_seed, xi2_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SWEEPS = HERE / "sweeps"
# Extra set-ups, each in a fresh interpreter run one after another, so the
# reported set-up time is a median and not one cold start.
SETUP_PROBES = 4
# The Riemann and FFT grids of the E(W) checks, and their halved spacing.
GRID_CELLS = 2048


def import_program():
    src = ROOT / "src"
    if not (src / "rcm_lab" / "__init__.py").is_file():
        sys.exit(f"rcm-lab sources not found under {src}")
    sys.path.insert(0, str(src))
    import rcm_lab
    return rcm_lab


def set_up(rcm_lab, wl):
    """Build g, fill in C and derive the frame: the inputs of every round."""
    g = rcm_lab.from_config(wl["g"])
    model = "torus" if wl["kind"] == "sim" else "square"
    spec = rcm_lab.ModelSpec(model=model, rho=float(wl["rho"]),
                             b=float(wl["b"]), g=g).with_constant()
    return spec, rcm_lab.derive(spec)


def probe_setups(name):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", "0", "--seconds", "1", "--trace", "0",
             "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


# ------------------------------------------------------------------ rounds

def sim_round(rcm_lab, name, wl, seed, r, trace):
    """One serial run_sweep; returns (seconds, sweep directory, error)."""
    out_dir = SWEEPS / name / f"seed{seed}-trace{trace}-round{r}"
    cfg = rcm_lab.SweepConfig(
        g=wl["g"], models=["torus"], rhos=[wl["rho"]], b=wl["b"],
        trials=wl["trials"], base_seed=trial_seed(seed, r, wl["trials"]),
        mode=SIM_MODE, quad=False, workers=0, tail_mass=TAIL_MASS,
        out_dir=str(out_dir))
    t = time.perf_counter()
    try:
        rcm_lab.experiments.run_sweep(cfg)
    except Exception as exc:  # a failed sweep fails its trials; keep going
        return time.perf_counter() - t, out_dir, repr(exc)
    return time.perf_counter() - t, out_dir, None


def quad_round(rcm_lab, wl, spec, seed, r):
    """E(W) square, E(W) torus and one xi_2 estimate, each timed."""
    q = rcm_lab.quadrature
    calls = (
        ("ew", lambda: q.expected_isolated_square(spec,
                                                  rel_tol=wl["rel_tol"])),
        ("ew_torus", lambda: q.expected_isolated_torus(spec)),
        ("xi2", lambda: q.expected_components_order2(
            spec, samples=wl["samples"], seed=xi2_seed(wl, seed, r))),
    )
    out = {}
    for key, call in calls:
        t = time.perf_counter()
        try:
            out[key] = call()
        except Exception as exc:  # counted as a failed operation
            out[key] = None
            print(f"{key} failed: {exc!r}", file=sys.stderr)
        out[key + "_s"] = time.perf_counter() - t
    return out


# ------------------------------------------------------------------ checks

def check_sim(rcm_lab, name, wl, spec, frame, sweeps):
    """Per-trial problems and run-level problems of a sim workload."""
    import checks
    records, bad, run_problems = [], {}, []
    for _, out_dir, error in sweeps:
        if error is None:
            with open(out_dir / "trials.jsonl") as fh:
                records += [json.loads(line) for line in fh]
    region = rcm_lab.models.frame_region(spec)
    r0 = wl["g"]["params"].get("r0")

    for rec in records:
        problems = checks.check_record_identities(rec)
        if name == "sim-disk-torus":
            pts = rcm_lab.simulate.sample_poisson(
                region, frame.density, rec["seed"],
                expected_count=frame.expected_nodes)
            problems += checks.check_disk_record(rec, pts.positions,
                                                 frame.side, r0)
        if problems:
            bad[rec["seed"]] = problems

    w_t = [rec["W_T"] for rec in records]
    if name == "sim-disk-torus":
        run_problems += checks.check_mean(w_t, math.exp(-wl["b"]), None,
                                          "mean W_T")
    else:
        p = wl["g"]["params"]
        want = checks.theta_torus_expectations(
            p["a"], p.get("x0", 3.0), p.get("g0", 1.0), wl["rho"], wl["b"])
        run_problems += checks.check_mean(w_t, want["mean_W_T"], None,
                                          "mean W_T")
        edges = []
        for rec in records[:2]:
            graph = rcm_lab.realize(spec, rec["seed"], mode=SIM_MODE,
                                    tail_mass=TAIL_MASS)
            square = rcm_lab.boundary_coupling(graph)[0]
            problems = checks.check_coupled_census(rec, graph.n, graph.edges,
                                                   square.edges)
            if problems:
                bad.setdefault(rec["seed"], []).extend(problems)
            edges.append(graph.edges.shape[0])
        run_problems += checks.check_mean(edges, want["mean_edges"],
                                          want["var_edges"], "mean edges")
    return records, bad, run_problems


def ew_grids(wl):
    """The check's own E(W) on the grid and on the grid of double spacing."""
    import checks
    p = wl["g"]["params"]
    if wl["g"]["family"] == "unit_disk":
        def at(cells):
            return checks.riemann_ew_disk(wl["rho"], wl["b"], p["r0"], cells)
    else:
        def at(cells):
            return checks.grid_ew_lognormal(p["sigma"], p["eta"],
                                            p.get("r0", 1.0), wl["rho"],
                                            wl["b"], cells)
    return at(GRID_CELLS), at(GRID_CELLS // 2)


def load_reference(name, wl):
    ref = json.loads((HERE / "reference.json").read_text())["references"][name]
    if (ref["g"], ref["rho"], ref["b"]) != (wl["g"], wl["rho"], wl["b"]):
        sys.exit(f"reference.json does not match workload {name}; "
                 "run perfbench/reference.py")
    return ref


def check_quad(wl, rounds, ref):
    """Problems per operation ((round, op) -> list) of a quad workload."""
    import checks
    grid, coarse = ew_grids(wl)
    bad = {}
    for r, out in enumerate(rounds):
        for key in ("ew", "ew_torus", "xi2"):
            if out[key] is None:
                bad[(r, key)] = ["raised"]
        if out["ew"] is not None:
            bad[(r, "ew")] = checks.check_ew(out["ew"], grid, coarse,
                                             wl["rel_tol"], "E(W) square")
        if out["ew_torus"] is not None:
            bad[(r, "ew_torus")] = checks.check_torus_ew(out["ew_torus"],
                                                         wl["b"], "E(W) torus")
        if out["xi2"] is not None:
            est, se = out["xi2"]
            bad[(r, "xi2")] = checks.check_xi2(est, se, ref["mean_xi2"],
                                               ref["se_xi2"], "xi_2")
    return {k: v for k, v in bad.items() if v}, {"grid": grid,
                                                 "grid_coarse": coarse}


# ----------------------------------------------------------------- metrics

def per_layer(tracer, loop_from, counts_from, units, round_s):
    """Per-layer metrics per unit of work: a trial on sim workloads, a round
    on quad ones.

    The connfn spans run once per process (set-up, then cached or cheap),
    so they are totals over the traced process, set-up included.
    trace.round_s is the traced median round time; minus the untraced
    round_s of the same seed it gives the tracing overhead.
    """
    calls, total, own = tracer.totals(loop_from)
    _, all_total, _ = tracer.totals(0)
    counts = {k: v - counts_from.get(k, 0) for k, v in tracer.counts.items()}
    m = {"trace.round_s": {"value": statistics.median(round_s), "unit": "s"}}

    def put(key, value, unit):
        m[key] = {"value": value / units, "unit": unit}

    for span in ("experiments.run_trial", "models.realize",
                 "simulate.sample_poisson", "simulate.build_graph",
                 "simulate.census", "simulate.boundary_coupling",
                 "pairrng.pair_uniform",
                 "quadrature.expected_isolated_square",
                 "quadrature.expected_isolated_torus",
                 "quadrature.expected_components_order2",
                 "quadcore.batched_quad", "quadcore.adaptive_quad",
                 "quadcore.fixed_tensor_quad"):
        put(span + ".s", total[span], "s")
    put("experiments.run_sweep.self_s", own["experiments.run_sweep"], "s")
    put("quadrature.expected_components_order2.self_s",
        own["quadrature.expected_components_order2"], "s")
    for span in ("quadcore.batched_quad", "quadcore.adaptive_quad",
                 "quadcore.fixed_tensor_quad"):
        put(span + ".calls", calls[span], "count")
        put(span + ".points", counts.get(span + ".points", 0), "count")
    put("simulate.nodes", counts.get("simulate.nodes", 0), "count")
    put("simulate.edges", counts.get("simulate.edges", 0), "count")
    draws = counts.get("pairrng.pair_uniform.draws", 0)
    put("pairrng.pair_uniform.draws", draws, "count")
    m["simulate.edge_yield"] = {
        "value": counts.get("simulate.edges", 0) / draws if draws else 0.0,
        "unit": "ratio"}
    for span in ("connfn.integral_constant", "connfn.effective_cutoff"):
        m[span + ".s"] = {"value": all_total[span], "unit": "s"}
    return m


def environment():
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():  # a checkout without one has no commit
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            pass
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "platform": platform.platform()}


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args()
    name, wl = args.workload, WORKLOADS[args.workload]

    rcm_lab = import_program()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    spec, frame = set_up(rcm_lab, wl)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return
    ref = load_reference(name, wl) if wl["kind"] == "quad" else None
    setups = [setup_s] + ([] if args.trace else probe_setups(name))

    loop_from = len(tracer.spans) if tracer else 0
    counts_from = dict(tracer.counts) if tracer else {}
    rounds, round_s = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if wl["kind"] == "sim":
            rounds.append(sim_round(rcm_lab, name, wl, args.seed,
                                    len(rounds), args.trace))
        else:
            rounds.append(quad_round(rcm_lab, wl, spec, args.seed,
                                     len(rounds)))
        round_s.append(time.perf_counter() - t)
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.remove()
        units = len(rounds) * wl.get("trials", 1)
        metrics = per_layer(tracer, loop_from, counts_from, units, round_s)
        tracer.dump(RESULTS / f"{stem}.trace.json")

    detail = {}
    if wl["kind"] == "sim":
        records, bad, run_problems = check_sim(rcm_lab, name, wl, spec,
                                               frame, rounds)
        attempted = wl["trials"] * len(rounds)
        failed = attempted - len(records) + len(bad)
        problems = [p for v in bad.values() for p in v] + run_problems
        sweep_s = sum(s for s, _, _ in rounds)
        detail["trials_per_s"] = attempted / sweep_s
        detail["sweep_s"] = [s for s, _, _ in rounds]
    else:
        bad, detail["grids"] = check_quad(wl, rounds, ref)
        run_problems = []
        attempted = 3 * len(rounds)
        failed = len(bad)
        problems = [p for v in bad.values() for p in v]
        detail["ew_square_s"] = statistics.median(o["ew_s"] for o in rounds)
        detail["xi2_samples_per_s"] = (wl["samples"] * len(rounds)
                                       / sum(o["xi2_s"] for o in rounds))
        detail["outputs"] = rounds
    for p in problems:
        print("CHECK FAILED:", p, file=sys.stderr)

    if not tracer:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": statistics.median(round_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not run_problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "inputs": wl, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "setup_s": setups,
              "round_s": round_s, "peak_rss_mb": peak_rss_mb,
              "problems": problems, "result": result, **detail}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1,
                                                     default=str) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
