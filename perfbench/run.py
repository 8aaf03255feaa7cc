#!/usr/bin/env python3
"""Benchmark of the biharm CLI: ``gn``, ``sweep`` and ``solve`` run in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep_1d --seed 0 --seconds 30 --trace 0

One process runs one workload: it sets up (imports, config parsing, artifact
load, a warm-up evaluation), then calls ``biharm.cli.main`` back to back in a
closed loop, one command at a time, until the next command would end past
``--seconds`` (at least one command always runs).  Every command's outputs are
checked against the workload's reference values (see workloads.py).

The host's speed swings by up to 1.9x, so untraced timings are rescaled to a
reference host speed measured while they run (hostspeed.py); the raw seconds
and the speed factors go into the report beside them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` the first command runs untraced as the
reference, the rest run under the span tracer (tracer.py), and the last line
reports the per-layer metrics.  Human-readable lines (machine facts, gates,
metrics with units) come first.  Run outputs, a JSON report and, when traced,
the spans go to perfbench/out/<workload>/.

BLAS and OpenMP thread pools are pinned to one thread before numpy loads: on
a two-core host the default OpenBLAS pool spent twice the CPU inside
L-BFGS-B without shortening ``gn`` and made its wall time vary by a quarter
between consecutive runs.  The variables as found at start are reported.
"""

import os
import sys
import time

T_START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_ENV_AT_START = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # this process plus fresh interpreters that only set up


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("gn_1d", "sweep_1d", "solve_2d"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the scaled and raw set-up "
                   "seconds and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec() -> dict:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def import_cli():
    src = ROOT / "src"
    if not (src / "biharm" / "cli.py").is_file():
        raise SystemExit(f"error: no biharm sources under {src}; run from the "
                         "root of a biharm checkout")
    sys.path.insert(0, str(src))
    import biharm.cli
    return biharm.cli


# ---------------------------------------------------------------------------
# machine facts


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cache_sizes() -> dict:
    """Per-level cache size and instance count from sysfs, e.g. L2 2 x 2048K."""
    out = {}
    base = Path("/sys/devices/system/cpu")
    for level in (2, 3):
        sizes, shared = set(), set()
        for idx in base.glob("cpu[0-9]*/cache/index*"):
            if _read(idx / "level") == str(level):
                sizes.add(_read(idx / "size"))
                shared.add(_read(idx / "shared_cpu_list"))
        if sizes:
            out[f"L{level}"] = f"{len(shared)} x {'/'.join(sorted(sizes))}"
    return out


def _git_commit():
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or None
    return head or None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_at_start": THREAD_ENV_AT_START,
        "thread_env_used": {k: os.environ[k] for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up and one operation


@dataclass
class Context:
    cli: object
    workload: object
    seed: int
    work_dir: Path
    cfg_path: Path
    a_star_ref: float
    artifact_a_star: float | None


@dataclass
class Op:
    wall: float  # scaled to the reference host speed when sampled
    cpu: float
    exit_code: int | None
    gates: list
    bytes_written: int
    fingerprint: object = None
    layer: dict = field(default_factory=dict)
    raw_wall: float = 0.0
    raw_cpu: float = 0.0
    speed: float = 1.0  # host-speed factor applied; 1.0 when not sampled

    @property
    def ok(self) -> bool:
        return all(g.ok for g in self.gates)


def setup(workload_name: str, seed: int) -> Context:
    """Imports, config parsing, artifact load and check, warm-up."""
    cli = import_cli()
    from workloads import ARTIFACT, FIXTURE, WORKLOADS, rel_err

    workload = WORKLOADS[workload_name]
    work_dir = OUT / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "config.json"
    cfg_path.write_text(json.dumps(workload.config(seed), indent=1) + "\n")
    run_cfg = cli.RunConfig(cli.load_config(cfg_path), workload.command,
                            {"seed": seed, "output": str(work_dir / "op")})
    a_star_ref = float(json.loads((ROOT / FIXTURE).read_text())["a_star"])

    artifact_a_star = None
    if workload.command == "sweep":
        gn = sys.modules["biharm.gn"].load_gn(ARTIFACT)
        g = gn.Q.grid
        err = rel_err(gn.a_star, a_star_ref)
        if (g.d, g.n, g.half_width) != (run_cfg.grid.d, run_cfg.grid.n,
                                        run_cfg.grid.half_width) or err > 1e-8:
            raise SystemExit(f"error: reference artifact {ARTIFACT} does not "
                             f"match the fixture (a* rel err {err:.2e}, grid "
                             f"d={g.d} n={g.n}); regenerate it with "
                             "python3 perfbench/make_artifact.py")
        artifact_a_star = gn.a_star

    # warm-up: one energy and gradient on the workload grid fills the FFT
    # plan cache and the lazily loaded code paths
    energy_mod = sys.modules["biharm.energy"]
    gs = sys.modules["biharm.groundstate"]
    u = gs.initial_field(run_cfg.grid, run_cfg.potential, gs.InitSpec())
    energy_mod.energy(u, run_cfg.potential, 1.0)
    energy_mod.constrained_gradient(u, run_cfg.potential, 1.0)
    return Context(cli, workload, seed, work_dir, cfg_path, a_star_ref,
                   artifact_a_star)


def own_setup(sampler) -> tuple[float, float]:
    """(scaled, raw) set-up seconds of this process, ending now; ``sampler``
    probed the host during ``setup``."""
    raw = time.perf_counter() - T_START
    return (raw - sampler.probe_wall) * sampler.factor(), raw


def setup_samples(args, own: tuple) -> list:
    """(scaled, raw) set-up seconds of this process and of fresh
    interpreters."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        scaled, raw = done.stdout.split()[-2:]
        samples.append((float(scaled), float(raw)))
    return samples


def run_op(ctx: Context, sampler=None, reference=None, traced=False) -> Op:
    """One command; ``sampler``, if given, probes the host while it runs."""
    from workloads import Gate

    op_dir = ctx.work_dir / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    argv = ["--config", str(ctx.cfg_path), "--output", str(op_dir),
            "--seed", str(ctx.seed), ctx.workload.command]
    out = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            code = ctx.cli.main(argv, out=out)
    except Exception:  # a crash is a failed operation, reported below
        code = None
        traceback.print_exc()
    raw_wall = time.perf_counter() - t0
    raw_cpu = time.process_time() - c0
    wall, cpu, speed = (raw_wall, raw_cpu, 1.0) if sampler is None \
        else sampler.scale(raw_wall, raw_cpu)

    gates = [Gate("exit_code", code, code == 0)]
    fingerprint = None
    try:
        gates += ctx.workload.gates(op_dir, ctx.a_star_ref)
        manifest = json.loads((op_dir / "manifest.json").read_text())
        gates.append(Gate("manifest_seed", manifest["seed"],
                          manifest["seed"] == ctx.seed))
        fingerprint = ctx.workload.fingerprint(op_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        gates.append(Gate("outputs_readable", repr(exc), False))
    if reference is not None:
        gates.append(Gate("traced_equals_untraced" if traced
                          else "equals_first_run", fingerprint == reference,
                          fingerprint == reference))
    written = sum(p.stat().st_size for p in op_dir.rglob("*") if p.is_file()) \
        if op_dir.is_dir() else 0
    return Op(wall, cpu, code, gates, written, fingerprint,
              raw_wall=raw_wall, raw_cpu=raw_cpu, speed=speed)


# ---------------------------------------------------------------------------
# measurement


def measure(ctx: Context, seconds: float, trace: bool, tracer=None) -> list:
    """Closed loop of operations; the first one is untraced either way.

    A traced run samples none of its commands: spans must not hold probe
    time, and trace.overhead compares raw seconds.
    """
    from hostspeed import Sampler

    sampler = None if trace else Sampler()
    begin = time.perf_counter()
    ops = [run_op(ctx, sampler)]
    stores = []
    if trace:
        tracer.install()
    try:
        while ops[-1].exit_code is not None:
            timed = ops[1:] if trace else ops
            estimate = (statistics.median(o.raw_wall for o in timed)
                        if timed else 0.0)
            if timed and time.perf_counter() - begin + estimate > seconds:
                break
            if trace:
                tracer.reset()
                op = run_op(ctx, None, ops[0].fingerprint, traced=True)
                op.layer = tracer.layer_metrics(op.wall)
                stores.append(tracer.columns)
            else:
                op = run_op(ctx, sampler, ops[0].fingerprint)
            ops.append(op)
    finally:
        if trace:
            tracer.uninstall()
    if stores:
        tracer.dump(stores, ctx.work_dir / "spans.npz")
    return ops


def end_to_end(ops, setup_s) -> dict:
    failed = sum(not o.ok for o in ops)
    return {
        "wall_s": statistics.median(o.wall for o in ops),
        "cpu_s": statistics.median(o.cpu for o in ops),
        "setup_s": statistics.median(s for s, _ in setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1.0 - failed / len(ops),
    }


def per_layer(ctx: Context, ops) -> dict:
    """Times are medians over the traced operations; counts come from the
    first one (they repeat exactly, which the report records)."""
    traced = [o for o in ops[1:] if o.layer]
    if not traced:
        return {}
    m = {}
    for key, first in traced[0].layer.items():
        m[key] = (first if isinstance(first, int)
                  else statistics.median(o.layer[key] for o in traced))
    a_star = ctx.workload.a_star(ctx.work_dir / "op", ctx.artifact_a_star)
    m["gn.a_star_rel_err"] = (abs(a_star - ctx.a_star_ref) / ctx.a_star_ref
                              if a_star is not None else 0.0)
    m["cli.bytes_written"] = traced[0].bytes_written
    m["trace.overhead"] = (statistics.median(o.raw_wall for o in traced)
                           / ops[0].raw_wall - 1.0)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    from hostspeed import Sampler  # loads numpy: threads are pinned above

    with Sampler() as sampler:
        ctx = setup(args.workload, args.seed)
    own = own_setup(sampler)
    if args.setup_only:
        print(*own)
        return 0
    setup_s = setup_samples(args, own)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    ops = measure(ctx, args.seconds, bool(args.trace), tracer)
    failed = sum(not o.ok for o in ops)
    for k, op in enumerate(ops, 1):
        kind = "traced" if args.trace and k > 1 else "untraced"
        print(f"run {k} ({kind}) wall={op.wall:.3f}s cpu={op.cpu:.3f}s "
              f"raw_wall={op.raw_wall:.3f}s speed={op.speed:.3f} "
              + " ".join(g.line() for g in op.gates))

    kind = "per_layer" if args.trace else "end_to_end"
    values = per_layer(ctx, ops) if args.trace else end_to_end(ops, setup_s)
    missing = set(spec[kind]) - set(values)
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec[kind].items()}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(ops)} failed={failed} "
          f"fail_ratio={failed / len(ops):.3g}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": facts, "setup_samples_s": [
                  {"scaled": s, "raw": r} for s, r in setup_s],
              "runs": [{"wall_s": o.wall, "cpu_s": o.cpu,
                        "raw_wall_s": o.raw_wall, "raw_cpu_s": o.raw_cpu,
                        "speed": o.speed,
                        "bytes_written": o.bytes_written, "layer": o.layer,
                        "gates": {g.name: [str(g.value), g.ok]
                                  for g in o.gates}} for o in ops],
              "metrics": metrics}
    (ctx.work_dir / f"report_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
