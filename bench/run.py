"""hardylab benchmark harness (stdlib only).

    python3 bench/run.py --workload sweep|semigroup|probe --seed N --seconds S --trace 0|1

Run it from the root of a hardylab checkout; the package comes from ``src``.

Untraced (``--trace 0``): a closed loop with one client.  Each config of the
workload runs as a fresh ``hardylab run`` process, one at a time, for about
``--seconds`` (see ``untraced``).  Every run's exit code and verdict, and at
the default seed its report values, are checked against
``bench/expected.json``.  ``run_s.c<i>`` is the median wall time of the
workload's i-th config, ``wall_s`` the sum of all its configs' medians,
``setup_s`` the median wall time of a fresh ``hardylab list``.

Traced (``--trace 1``): each config runs once in-process without tracing and
once with the wrap points of ``tracing.py``, each in a fresh interpreter; the
per-layer metrics are summed over the workload.

The last line of stdout is the result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run context.  Every sample and the
per-config trace are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402  (stdlib only; hardylab is imported by the children)

CONFIG_DIR = os.path.join(HERE, "configs")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = ".bench_out"
DEFAULT_SEED = 7
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# The first TIMED configs of a workload get run_s.c1, run_s.c2, ...: every
# workload prints the same metric names, so the names are slots, and the
# record maps each slot to its config.  Later configs count only in wall_s.
WORKLOADS = {
    "sweep": ("heis-hardy", "eu3-radial", "eu2-hardy-violation", "heis-funcineq"),
    "semigroup": ("eu3-subcommutation", "eu2-evolve", "eu3-evolve-cg"),
    "probe": ("heis-qcond", "heis-curvature", "logr-best-constant"),
}
TIMED = 3

# The corpus thread pool and any BLAS pool run single-threaded: the machine
# the benchmark was tuned on has two cores shared with other tenants.
PINNED_ENV = {"HARDYLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# What the installed `hardylab` console script runs.
CLI = ("-c", "import sys; from hardylab.cli import main; sys.exit(main())")

RTOL = 1e-9
ATOL = 1e-12


END_TO_END = tuple(f"run_s.c{i + 1}" for i in range(TIMED)) + ("wall_s", "setup_s",
                                                                  "peak_rss_mb")


def slots(workload: str) -> dict:
    return dict(zip(END_TO_END, WORKLOADS[workload][:TIMED]))


class BenchError(Exception):
    """The checkout cannot be benchmarked; nothing is measured."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.abspath("src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def run_child(args, env, out_dir: str) -> dict:
    """Run ``python3 *args`` to completion.  Returns the wall time from start
    to exit, the exit code, stdout, the stderr tail and max RSS (from wait4)."""
    out_path = os.path.join(out_dir, "child.stdout")
    err_path = os.path.join(out_dir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux
    return {"wall_s": wall, "exit_code": proc.returncode, "stdout": stdout,
            "stderr": stderr[-2000:], "maxrss_mb": usage.ru_maxrss / 1024.0}


def config_path(config: str) -> str:
    return os.path.join(CONFIG_DIR, config + ".json")


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def run_cli(config: str, seed: int, csv_path: str, env, out_dir: str) -> dict:
    _remove(csv_path)
    res = run_child([*CLI, "run", "--config", config_path(config), "--out", csv_path,
                     "--seed", str(seed)], env, out_dir)
    lines = res["stdout"].strip().splitlines()
    try:
        res["summary"] = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        res["summary"] = None
    return res


def run_inproc(config: str, seed: int, csv_path: str, trace: int, env, out_dir: str) -> dict:
    result_path = os.path.join(out_dir, f"inproc-{config}-{trace}.json")
    _remove(csv_path)
    _remove(result_path)
    res = run_child([os.path.join(HERE, "inproc.py"), "--config", config_path(config),
                     "--seed", str(seed), "--out", csv_path, "--trace", str(trace),
                     "--result", result_path], env, out_dir)
    if res["exit_code"] != 0 or not os.path.exists(result_path):
        raise BenchError(f"in-process run of {config} failed:\n{res['stderr']}")
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _flat_numbers(prefix: str, obj, out: dict) -> dict:
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _flat_numbers(f"{prefix}.{k}" if prefix else k, v, out)
    return out


def report_values(summary: dict, csv_text: str) -> dict:
    """The numbers a run reports: its summary, and the last row of its CSV."""
    values = _flat_numbers("summary", summary, {})
    lines = csv_text.strip().splitlines()
    if len(lines) >= 2:
        for key, cell in zip(lines[0].split(","), lines[-1].split(",")):
            try:
                values[f"last_row.{key}"] = float(cell)
            except ValueError:
                pass
    return values


def read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def check_run(expect: dict, exit_code: int, summary, csv_bytes: bytes,
              reference: bool) -> list:
    """Reasons the run failed its pinned expectation (empty when it passed).
    Report values are compared only at the default seed (``reference``)."""
    problems = []
    if exit_code != expect["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {expect['exit_code']}")
    verdict = summary.get("verdict") if isinstance(summary, dict) else None
    if verdict != expect["verdict"]:
        problems.append(f"verdict {verdict!r}, expected {expect['verdict']!r}")
    note = expect.get("note")
    if note is not None and (not isinstance(summary, dict) or summary.get("note") != note):
        problems.append(f"note is not {note!r}")
    if reference and not problems:
        got = report_values(summary, csv_bytes.decode(errors="replace"))
        for key, want in expect["values"].items():
            have = got.get(key)
            if have is None or not math.isclose(have, want, rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"{key} = {have}, reference {want}")
    return problems


class Checker:
    """Counts runs, failed runs and byte drift.  Drift is a CSV whose bytes
    differ from the pinned digest (default seed) or from the first run of
    the same config and seed: informational, never a failure."""

    def __init__(self, expected: dict, seed: int):
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.byte_drift_runs = 0
        self.first_digest = {}
        self.problems = []

    def check(self, config: str, exit_code: int, summary, csv_path: str,
              output: str = "") -> None:
        expect = self.expected["configs"][config]
        data = read_bytes(csv_path)
        reference = self.seed == self.expected["seed"]
        problems = check_run(expect, exit_code, summary, data, reference)
        digest = hashlib.sha256(data).hexdigest()
        pinned = expect["csv_sha256"] if reference else self.first_digest.setdefault(config, digest)
        if digest != pinned:
            self.byte_drift_runs += 1
        self.attempted += 1
        if problems:
            if not isinstance(summary, dict):
                problems.append(f"no JSON summary; output ends {output[-300:]!r}")
            self.failed += 1
            self.problems.append({"config": config, "problems": problems})
            print(f"FAILED {config}: {'; '.join(problems)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def time_setup(env, out_dir: str) -> float:
    """Wall time of a fresh `hardylab list` process."""
    res = run_child([*CLI, "list"], env, out_dir)
    if res["exit_code"] != 0:
        raise BenchError(f"`hardylab list` failed:\n{res['stderr']}")
    return res["wall_s"]


def untraced(workload: str, seed: int, seconds: float, checker: Checker,
             env, out_dir: str) -> tuple:
    """Every config runs once; then the config with the least measured time
    so far runs next, while its run is expected to end within ``seconds``.
    Cheap configs so get more samples, and each config a similar share of the
    run.  A `hardylab list` run precedes each of the first config runs."""
    configs = WORKLOADS[workload]
    samples = {c: [] for c in configs}
    setup = []
    peak = 0.0
    time_setup(env, out_dir)  # warm-up: bytecode and page cache
    start = time.perf_counter()
    while True:
        pending = [c for c in configs if not samples[c]]
        if pending:
            c = pending[0]
        else:
            c = min(configs, key=lambda k: (sum(samples[k]), configs.index(k)))
            if time.perf_counter() - start + statistics.median(samples[c]) > seconds:
                break
        if len(setup) < SETUP_REPEATS:
            setup.append(time_setup(env, out_dir))
        csv_path = os.path.join(out_dir, c + ".csv")
        res = run_cli(c, seed, csv_path, env, out_dir)
        checker.check(c, res["exit_code"], res["summary"], csv_path,
                      res["stdout"] + res["stderr"])
        samples[c].append(res["wall_s"])
        peak = max(peak, res["maxrss_mb"])
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(env, out_dir))
    medians = {c: statistics.median(v) for c, v in samples.items()}
    metrics = {slot: (medians[c], "s") for slot, c in slots(workload).items()}
    metrics["wall_s"] = (sum(medians.values()), "s")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (peak, "MiB")
    detail = {"slots": slots(workload), "setup_samples": setup, "run_samples": samples}
    return metrics, detail


def traced(workload: str, seed: int, checker: Checker, env, out_dir: str) -> tuple:
    total = {}
    absent = set()
    per_config = {}
    for c in WORKLOADS[workload]:
        plain_csv = os.path.join(out_dir, c + ".plain.csv")
        traced_csv = os.path.join(out_dir, c + ".traced.csv")
        plain = run_inproc(c, seed, plain_csv, 0, env, out_dir)
        checker.check(c, plain["exit_code"], plain["summary"], plain_csv)
        res = run_inproc(c, seed, traced_csv, 1, env, out_dir)
        checker.check(c, res["exit_code"], res["summary"], traced_csv)
        raw = {**res["raw"], "trace.overhead_s": res["wall_s"] - plain["wall_s"]}
        absent.update(res["absent"])
        for k, v in raw.items():
            total[k] = total.get(k, 0) + v
        per_config[c] = {"metrics": tracing.layer_metrics(raw, res["absent"]),
                         "untraced_wall_s": plain["wall_s"], "traced_wall_s": res["wall_s"],
                         "absent": res["absent"], "spans": res["spans"]}
    total["cli.byte_drift_runs"] = checker.byte_drift_runs
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    metrics = {k: (v, units[k]) for k, v in tracing.layer_metrics(total, absent).items()}
    return metrics, {"per_config": per_config, "absent": sorted(absent)}


# ---------------------------------------------------------------------------
# Context and entry point
# ---------------------------------------------------------------------------

def run_context(seed: int, env) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy, scipy; print(sys.version.split()[0], numpy.__version__, "
         "scipy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise BenchError(f"numpy/scipy are not importable:\n{probe.stderr}")
    py, np_version, sp_version = probe.stdout.split()
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        except OSError:
            git = None
        if git is not None and git.returncode == 0:
            commit = git.stdout.strip()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": py, "numpy": np_version, "scipy": sp_version,
            "seed": seed, "git_commit": commit, "source_sha256": source_digest(),
            "child_env": PINNED_ENV}


def source_digest() -> str:
    """Digest of src/hardylab, which names the code when git cannot."""
    h = hashlib.sha256()
    root = os.path.join("src", "hardylab")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(read_bytes(os.path.join(root, name)))
    return h.hexdigest()


def load_expected() -> dict:
    if not os.path.isfile(os.path.join("src", "hardylab", "cli.py")):
        raise BenchError("src/hardylab is missing: run from the root of a hardylab checkout")
    with open(EXPECTED) as fh:
        return json.load(fh)


def result_line(checker: Checker, metrics: dict) -> str:
    return json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def measure(workload: str, seed: int, seconds: float, trace: int, expected: dict) -> tuple:
    """(checker, metrics, record) for one run of a workload."""
    out_dir = os.path.join(OUT_DIR, "work")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env()
    context = run_context(seed, env)
    checker = Checker(expected, seed)
    if trace:
        metrics, detail = traced(workload, seed, checker, env, out_dir)
    else:
        metrics, detail = untraced(workload, seed, seconds, checker, env, out_dir)
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "context": context, "attempted": checker.attempted, "failed": checker.failed,
              "failures": checker.problems, "byte_drift_runs": checker.byte_drift_runs,
              "metrics": {k: v for k, (v, _) in metrics.items()}, **detail}
    return checker, metrics, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        checker, metrics, record = measure(args.workload, args.seed, args.seconds,
                                           args.trace, load_expected())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"context": record["context"], "slots": slots(args.workload),
                      "byte_drift_runs": checker.byte_drift_runs, "record": path}))
    print(result_line(checker, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
