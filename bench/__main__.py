"""``python -m bench`` — the repository's benchmark.

Commands (run from the repository root)::

    python -m bench run [--seed S] [--workload NAME ...] [--repeat N] [--out FILE]
    python -m bench trace [--seed S] [--workload NAME ...] [--out FILE]
    python -m bench compare BASE.json CHANGE.json [CHANGE2.json ...]
    python -m bench measure --workload NAME --seed S --seconds T --trace 0|1
    python -m bench golden

``run`` prints every end-to-end metric with its unit, checks the outputs
against ``bench/golden.json`` and writes JSON; ``trace`` does the same
for the per-layer metrics; ``compare`` gives each (workload, metric) a
verdict under the bounds in ``BENCHMARK.json``.  ``measure`` is the
single-run form named in ``BENCHMARK.json``: its last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``golden`` rewrites the pinned outputs from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import BLAS_ENV, ROOT, SETUP_SPAWNS, SRC, check_checkout, child_env, load_spec
from .probe import SpeedProbe
from .stats import quartiles, spread, verdict

#: a spawned sweep worker must finish within this
WORKER_TIMEOUT_S = 150.0


def _spawn_worker(
    name: str, seed: int, seconds: float, trace: bool, setup_only: bool
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one sweep worker; returns (spawn-to-ready seconds, result)."""
    command = [
        sys.executable, "-m", "bench.worker", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        end = time.perf_counter()
        if not line.startswith('{"ready"'):
            raise RuntimeError(f"worker for {name} did not get ready (got {line!r})")
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    # the worker's speed samples since its first line put spawn-to-ready
    # on the reference scale
    probe = SpeedProbe.from_samples(json.loads(line)["probe"])
    lines = rest.strip().splitlines()
    return probe.scaled(start, end)[0], (json.loads(lines[-1]) if lines else None)


def _sweep(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup = []
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            setup.append(_spawn_worker(name, seed, seconds, False, True)[0])
    elapsed, out = _spawn_worker(name, seed, seconds, trace, False)
    setup.append(elapsed)
    out["setup_s"] = statistics.median(setup)
    out["attempted"] = out.pop("cells")
    out["failed"] = 0
    out["checks"] = out.pop("golden") + out.pop("nondeterministic", [])
    if trace:
        layers = out["layers"]
        layers["setup.import_s"] = out["setup.import_s"]
        layers["setup.context_s"] = out["setup.context_s"]
    return out


def measure_one(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload: metrics by name, checks and details."""
    spec = load_spec()
    if name == "serve-mixed":
        from . import serve

        out = serve.measure(seed, seconds, trace)
    else:
        out = _sweep(name, seed, seconds, trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = out["layers"] if trace else out
    metrics = {}
    for metric in wanted:
        # a layer a workload never enters reads 0 (e.g. serve.* on sweeps)
        value = source.get(metric["name"], 0.0) if trace else source[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    out["metrics"] = metrics
    out["correct"] = not out["checks"]
    return out


def _print_run(name: str, out: Dict[str, Any]) -> None:
    print(f"== {name}")
    for metric, entry in out["metrics"].items():
        print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    if "capacity_rps" in out:
        print(f"  {'capacity_rps (= 100 / wall_s)':32s} {out['capacity_rps']:14.6g} 1/s")
    for kind, entry in out.get("kinds", {}).items():
        tails = ", ".join(f"{k} {v:.2f}" for k, v in entry.items() if k != "n" and v is not None)
        print(f"  serve.{kind}: n={entry['n']}, {tails}")
    for layer, ms in out.get("waits_ms", {}).items():
        print(f"  {layer + ' per request':32s} {ms:14.6g} ms")
    if "gen_late_p99_ms" in out:
        print(f"  {'serve.gen_late_p99_ms':32s} {out['gen_late_p99_ms']:14.6g} ms")
    for line in out.get("accuracy", []):
        print(f"  {line}")
    held = out.get("held_out")
    if held:
        print(f"  held-out inputs, seed {held['seed']}:")
        for cell, stats in held["cells"].items():
            print(f"    {cell}: {json.dumps(stats, sort_keys=True)}")
    print(f"  attempted={out['attempted']} failed={out['failed']} correct={out['correct']}")
    for check in out["checks"]:
        print(f"  CHECK FAILED: {check}")
    for reason in out.get("invalid", []):
        print(f"  MEASUREMENT INVALID: {reason}")


def _workloads(selected: Optional[Sequence[str]]) -> List[str]:
    names = [w["name"] for w in load_spec()["workloads"]]
    if selected:
        unknown = sorted(set(selected) - set(names))
        if unknown:
            raise SystemExit(f"unknown workloads {unknown}; choose from {names}")
        return [n for n in names if n in selected]
    return names


def _campaign(args, trace: bool) -> int:
    seconds = load_spec()["run_seconds"]
    runs = []
    ok = True
    for index in range(args.repeat):
        run: Dict[str, Any] = {}
        for name in _workloads(args.workload):
            out = measure_one(name, args.seed, seconds, trace)
            _print_run(f"{name} (run {index + 1}/{args.repeat})", out)
            ok = ok and out["correct"] and not out["failed"] and not out.get("invalid")
            run[name] = {
                "metrics": {k: v["value"] for k, v in out["metrics"].items()},
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
            }
        runs.append(run)
    out_path = Path(args.out or f"bench_out/{'trace' if trace else 'run'}.json")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out_path}")
    return 0 if ok else 1


def _compare(paths: Sequence[str]) -> int:
    spec = load_spec()
    sides = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sides.append(json.load(handle)["runs"])
    base = sides[0]
    for label, change in zip(paths[1:], sides[1:]):
        print(f"== {paths[0]} -> {label}")
        print(f"  {'workload':16s} {'metric':12s} {'base median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} verdict")
        for name in [w["name"] for w in spec["workloads"]]:
            for metric in spec["end_to_end"]:
                key = metric["name"]
                b = [run[name]["metrics"][key] for run in base if name in run]
                c = [run[name]["metrics"][key] for run in change if name in run]
                if not b or not c:
                    continue
                result = verdict(b, c, metric["bound"], metric["better"])
                print(f"  {name:16s} {key:12s} {_describe(b):34s} {_describe(c):34s} "
                      f"{result} (spread {spread(b):.1%} / {spread(c):.1%}, "
                      f"bound {metric['bound']:.0%})")
    return 0


def _describe(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def _golden() -> int:
    from . import golden, serve
    from .worker import SWEEPS, cell_stats, run_pass

    pinned: Dict[str, Any] = {}
    for name, (_, _, paper_seed) in SWEEPS.items():
        pinned[name] = {"seed": paper_seed, "cells": cell_stats(run_pass(name, paper_seed))}
        print(f"pinned {name}")
    out = serve.measure(0, serve.PHASE_A_REQUESTS / serve.RATE_PER_S, False)
    pinned["serve-mixed"] = {"seed": 0, "phase_a_sha256": out["phase_a_sha256"]}
    print("pinned serve-mixed")
    golden.save(pinned)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    names = [w["name"] for w in load_spec()["workloads"]]

    measure = sub.add_parser("measure", help="one run of one workload (BENCHMARK.json command)")
    measure.add_argument("--workload", required=True, choices=names)
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), required=True)

    for command, help_text in (("run", "untraced benchmark"), ("trace", "per-layer benchmark")):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workload", nargs="+", choices=names)
        p.add_argument("--repeat", type=int, default=1)
        p.add_argument("--out", help="JSON output (default bench_out/<command>.json)")

    compare = sub.add_parser("compare", help="verdicts of CHANGE runs against BASE runs")
    compare.add_argument("files", nargs="+", metavar="FILE")
    sub.add_parser("golden", help="rewrite bench/golden.json from this checkout")
    args = parser.parse_args(argv)

    if args.command == "compare":
        if len(args.files) < 2:
            parser.error("compare needs a base file and at least one change file")
        return _compare(args.files)
    try:
        check_checkout()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # unwind through the ``finally`` blocks that stop spawned processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # this process imports repro too (golden, the serve reference replay);
    # BLAS reads its thread count when numpy first loads
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    if args.command == "golden":
        return _golden()
    if args.command == "measure":
        out = measure_one(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_run(args.workload, out)
        print(
            json.dumps(
                {
                    "correct": out["correct"],
                    "attempted": out["attempted"],
                    "failed": out["failed"],
                    "metrics": out["metrics"],
                }
            )
        )
        return 0
    return _campaign(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
