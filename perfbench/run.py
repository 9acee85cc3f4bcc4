"""Benchmark of the bureshall CLI.

    python3 perfbench/run.py --workload exact|verify|monte-carlo|all \
        --seed N --seconds S --trace 0|1 [--record FILE]

One driver process runs each command of a workload as the user runs it, a
fresh `python -m bureshall.cli ...` child at a time (a closed loop with one
client), and repeats the workload's command sequence as often as it fits
in S seconds (at least once).  Latency runs from launch to exit; peak
memory is each child's max-RSS from wait4.  A small helper process,
launcher.py, starts the children, so that the driver's own memory does not
show in theirs.  Every output is checked after the timed window; a
non-zero exit or a failed check counts the command as failed.  End-to-end
times are scaled to a reference machine speed measured by a speed probe
(see PROBE_CODE); the raw values are printed too.

With --trace 1 each untraced sequence is followed by the same sequence run
under trace_child.py, which gives the per-layer metrics and the tracing
overhead.  Every metric is printed by name and unit, then, as the last
line, one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics shared by all workloads with --trace 0, the per-layer
metrics with --trace 1.  See README.md for the choice of workloads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from ess import bulk_ess, chains_from_columns
from layers import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# The speed probe: a fixed pure-Python loop in a fresh interpreter, run before
# each setup import, PROBES times before every sequence and PROBES times after
# the last.  A shared machine's speed drifts by tens of percent over minutes;
# on a 2-vCPU x86-64 VM the CLI's latencies followed the probe's loop time to
# the power ELASTICITY (fitted over 44 samples of three commands).  Each run
# scales its end-to-end times by (REF_PROBE_S / its median probe) ** ELASTICITY:
# seconds at the machine speed at which the loop takes REF_PROBE_S.
PROBE_CODE = ("import time\nt = time.perf_counter()\ns = 0\n"
              "for k in range(400_000):\n    s += k * k\nprint(time.perf_counter() - t)")
PROBES = 3
REF_PROBE_S = 0.075
ELASTICITY = 0.72
RUN_BUDGET_S = 165.0  # a run stops starting sequences that would end later
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# end-to-end metrics every workload reports; they form the last line with --trace 0
SHARED = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
# end-to-end metrics of single workloads, printed and recorded
WORKLOAD_ONLY = {
    "failed_frac": "ratio",
    "cumulants_s": "s",
    "identities_s": "s",
    "oracles_s": "s",
    "simulate_mcmc_s": "s",
    "simulate_matrix_s": "s",
    "figure1_s": "s",
    "ess_per_s.m4": "1/s",
    "ess_per_s.m12": "1/s",
    "probe_s": "s",
    "wall_raw_s": "s",
    "setup_raw_s": "s",
}


@dataclass(frozen=True)
class Command:
    group: str  # the end-to-end metric this command's latency adds to
    args: tuple[str, ...]
    # (stdout, output directory, measured values to fill) -> problems
    check: Callable[[str, Path, dict], list[str]]


# ---------------------------------------------------------------------------
# workloads: seed -> command sequence
# ---------------------------------------------------------------------------

def _golden() -> dict:
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


def exact_workload(rng: random.Random, golden: dict) -> list[Command]:
    cum = golden["cumulants"]
    commands = [
        Command("cumulants_s", ("cumulants", "--m", str(m), "--n", str(2 * m), "--format", "json"),
                lambda out, d, meas, g=cum[f"{m},{2 * m}"]: checks.check_cumulants_json(out, g))
        for m in (10, 25, 50, 100, 140)
    ]
    commands.append(Command(
        "cumulants_s", ("cumulants", "--m", "4", "--n", "6", "--exact"),
        lambda out, d, meas: checks.check_cumulants_exact_text(
            out, cum["4,6"], golden["exact_text"]["4,6"])))
    rng.shuffle(commands)
    return commands


def _check_verify(name: str, n_cases: int | None, extra: Callable | None = None):
    def check(out, d, meas):
        problems = checks.check_verify_report(str(d / f"{name}_report.json"), n_cases)
        problems += checks.check_manifest(str(d / f"{name}_report.json.manifest.json"))
        return problems + (extra(d) if extra else [])

    return check


def verify_workload(rng: random.Random, golden: dict) -> list[Command]:
    n = golden["n_cases"]
    commands = [
        Command("identities_s", ("verify", "identities"), _check_verify("identities", n["identities"])),
        Command("oracles_s", ("verify", "oracles"), _check_verify("oracles", n["oracles"])),
    ]
    rng.shuffle(commands)
    return commands


def _simulate(group, m, n, samples, seed, golden, ess_metric=None, backend="mcmc") -> Command:
    name = f"samples_{backend}_{m}_{n}.csv"
    kappa1 = golden["cumulants"][f"{m},{n}"]["kappa1"]

    def check(out, d, meas):
        problems = checks.check_manifest(str(d / f"{name}.manifest.json"))
        try:
            data = checks.load_csv(str(d / name))
        except (OSError, ValueError) as exc:
            return problems + [f"sample CSV unreadable: {exc}"]
        problems += checks.check_samples(data, m, samples, kappa1)
        if ess_metric and not problems:
            meas[ess_metric] = bulk_ess(chains_from_columns(data[:, 0], data[:, 1], data[:, 3]))
        return problems

    args = ("simulate", "--m", str(m), "--n", str(n), "--samples", str(samples),
            "--seed", str(seed), "--out", name)
    if backend != "mcmc":
        args += ("--backend", backend)
    return Command(group, args, check)


def monte_carlo_workload(rng: random.Random, golden: dict) -> list[Command]:
    seeds = [rng.randrange(2 ** 32) for _ in range(4)]
    figure1 = _check_verify(
        "figure1", None,
        lambda d: checks.check_density_csv(checks.load_csv(str(d / "figure1_density.csv")), 1201))
    return [
        _simulate("simulate_mcmc_s", 4, 6, 200_000, seeds[0], golden, "ess_per_s.m4"),
        _simulate("simulate_mcmc_s", 12, 24, 100_000, seeds[1], golden, "ess_per_s.m12"),
        _simulate("simulate_matrix_s", 3, 3, 100_000, seeds[2], golden, backend="matrix"),
        Command("figure1_s", ("verify", "figures", "--fig", "1", "--samples", "200000",
                              "--seed", str(seeds[3])), figure1),
    ]


WORKLOADS = {
    "exact": exact_workload,
    "verify": verify_workload,
    "monte-carlo": monte_carlo_workload,
}


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    """BLAS/OpenMP thread counts for the children, capped at nproc."""
    cap = nproc()
    out = {}
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, cap))
        except ValueError:
            value = cap
        out[var] = str(min(max(value, 1), cap))
    return out


def child_env(out_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["BURESHALL_OUT_DIR"] = str(out_dir)
    env.update(thread_env())
    return env


@dataclass
class ChildResult:
    latency_s: float
    code: int
    max_rss_mib: float
    stdout: str


class Launcher:
    """The helper process (launcher.py) that starts every child of one run.

    It kills a child that outlives the run's deadline.  On an error the whole
    process group, launcher and child, is killed.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv: list[str], out_dir: Path, env: dict, stem: str) -> ChildResult:
        stdout_path = out_dir / f"{stem}.stdout"
        request = {"argv": argv, "cwd": str(out_dir), "env": env, "stdout": str(stdout_path),
                   "stderr": str(out_dir / f"{stem}.stderr"),
                   "timeout": max(self.deadline - time.monotonic(), 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(reply)
        return ChildResult(reply["latency_s"], reply["code"], reply["max_rss_kib"] / 1024.0,
                           stdout_path.read_text())

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.proc.stdin.close()
        else:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Sequence:
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_sequence(commands: list[Command], out_dir: Path, launcher: Launcher,
                 traced: bool = False) -> Sequence:
    """Run the commands back to back, then check their outputs."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    env = child_env(out_dir)
    results = []
    t_first = time.perf_counter()
    for i, cmd in enumerate(commands):
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(out_dir / f"spans{i}.json")]
        else:
            argv = [sys.executable, "-m", "bureshall.cli"]
        results.append(launcher.run(argv + list(cmd.args), out_dir, env, f"cmd{i}"))
    wall_s = time.perf_counter() - t_first
    seq = settle(commands, results, out_dir)
    seq.metrics["wall_s"] = wall_s
    if traced and seq.failed == 0:
        seq.layers = layer_metrics([str(out_dir / f"spans{i}.json") for i in range(len(commands))])
    return seq


def settle(commands: list[Command], results: list[ChildResult], out_dir: Path) -> Sequence:
    """Check each finished command's outputs and sum the sequence's metrics."""
    seq = Sequence()
    seq.metrics["peak_rss_mb"] = max(r.max_rss_mib for r in results)
    for cmd, res in zip(commands, results):
        seq.metrics[cmd.group] = seq.metrics.get(cmd.group, 0.0) + res.latency_s
        measured: dict[str, float] = {}
        if res.code != 0:
            problems = [f"exit code {res.code}"]
        else:
            try:
                problems = cmd.check(res.stdout, out_dir, measured)
            except Exception as exc:  # a malformed output may break a check anywhere
                problems = [f"check raised {exc!r}"]
        for name, ess in measured.items():
            seq.metrics[name] = ess / res.latency_s
        seq.attempted += 1
        if problems:
            seq.failed += 1
            seq.problems.append(f"{' '.join(cmd.args)}: {'; '.join(problems)}")
    return seq


def probe(launcher: Launcher, out_dir: Path) -> float:
    """Loop time of one speed probe."""
    out_dir.mkdir(parents=True, exist_ok=True)
    res = launcher.run([sys.executable, "-c", PROBE_CODE], out_dir, child_env(out_dir), "probe")
    if res.code != 0:
        raise RuntimeError(f"the speed probe failed: see {out_dir}/probe.stderr")
    return float(res.stdout)


def measure_setup(out_dir: Path, launcher: Launcher, probes: list[float]) -> list[float]:
    """Latencies of fresh interpreters that import bureshall.cli (after one
    untimed import that fills the bytecode cache), each after a speed probe."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(out_dir)
    argv = [sys.executable, "-c", "import bureshall.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        probes.append(probe(launcher, out_dir))
        res = launcher.run(argv, out_dir, env, f"setup{i}")
        if res.code != 0:
            raise RuntimeError(f"import bureshall.cli failed: see {out_dir}/setup{i}.stderr")
        times.append(res.latency_s)
    return times[1:]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    begin = time.monotonic()
    commands = WORKLOADS[name](random.Random(seed), _golden())
    out_dir = OUT / name
    plain, traced, probes = [], [], []
    with Launcher(begin + RUN_BUDGET_S + 10.0) as launcher:
        setup = measure_setup(out_dir / "setup", launcher, probes)
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            probes += [probe(launcher, out_dir / "probe") for _ in range(PROBES)]
            plain.append(run_sequence(commands, out_dir / "run", launcher))
            if trace:
                traced.append(run_sequence(commands, out_dir / "run", launcher, traced=True))
            # stop when another round would overrun the measuring window
            now = time.monotonic()
            if now + (now - t0) - start > seconds or now + (now - t0) - begin > RUN_BUDGET_S:
                break
        probes += [probe(launcher, out_dir / "probe") for _ in range(PROBES)]

    def medians(dicts):
        keys = {k for d in dicts for k in d}
        return {k: statistics.median(d[k] for d in dicts if k in d) for k in sorted(keys)}

    attempted = sum(s.attempted for s in plain + traced)
    failed = sum(s.failed for s in plain + traced)
    raw = {"setup_s": statistics.median(setup), **medians([s.metrics for s in plain])}
    probe_s = statistics.median(probes)
    scale = (REF_PROBE_S / probe_s) ** ELASTICITY
    factor = {"s": scale, "1/s": 1.0 / scale}
    unit = units()
    end_to_end = {k: v * factor.get(unit[k], 1.0) for k, v in raw.items()}
    end_to_end.update(failed_frac=failed / attempted, probe_s=probe_s,
                      wall_raw_s=raw["wall_s"], setup_raw_s=raw["setup_s"])
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sequences": len(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for s in plain + traced for p in s.problems],
        "end_to_end": end_to_end,
        "setup_samples_s": setup,
        "wall_samples_s": [s.metrics["wall_s"] for s in plain],
        "probe_samples_s": probes,
    }
    if trace:
        ok = [s for s in traced if s.failed == 0]
        result["per_layer"] = {}
        if ok:
            layers = medians([s.layers for s in ok])
            traced_wall = statistics.median(s.metrics["wall_s"] for s in ok)
            result["per_layer"] = {**{k: layers[k] for k in PER_LAYER},
                                   "trace.overhead_s": traced_wall - raw["wall_s"]}
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "child_thread_env": thread_env(),
    }


def units() -> dict[str, str]:
    return {**SHARED, **WORKLOAD_ONLY, **PER_LAYER, "trace.overhead_s": "s"}


def print_result(result: dict) -> None:
    unit = units()
    name = result["workload"]
    print(f"# {name}: {result['sequences']} sequence(s), medians; "
          f"{result['attempted']} commands attempted, {result['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for metric, value in result.get(section, {}).items():
            print(f"{name:12s} {metric:36s} {value:.6g} {unit[metric]}")
    for problem in result["problems"]:
        print(f"{name:12s} FAILED {problem}")


def final_line(results: list[dict], trace: bool) -> dict:
    names = list(PER_LAYER) + ["trace.overhead_s"] if trace else list(SHARED)
    unit = units()
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for metric in names:
            if metric in r.get(section, {}):
                metrics[prefix + metric] = {"value": r[section][metric], "unit": unit[metric]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full result as JSON to this file")
    args = parser.parse_args(argv)

    # let a terminated driver stop its launcher and children on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bureshall" / "cli.py").is_file():
        print(f"perfbench: no bureshall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    facts = machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_result(result)
        results.append(result)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({"machine": facts, "argv": sys.argv[1:], "results": results}, fh, indent=2)
            fh.write("\n")
    print(json.dumps(final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
