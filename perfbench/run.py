"""Seeded benchmark of the onckesten package: four cold-start workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  One
caller drives a closed loop: it starts the next pass, and inside a pass the
next call or process, only after the previous one returned.  There are no
worker threads.  Every pass runs in fresh interpreters, so the package's
process-wide caches start empty, as they do for each CLI call.

Workloads (inputs from ``workloads.py``, answers from ``oracle.py``):

* ``series``       exact r_n routes to order 24 and series identities,
                   in-process calls; kernel bound.
* ``enumeration``  brute-force coloring sums, in-process calls.
* ``verify``       the ``verify`` subcommand as a process.
* ``cli``          seven other subcommands as processes.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` is the separate traced run: each round makes one
plain pass, one pass with spans and counts at the layer boundaries
(``spans.py``) and one pass under cProfile for the kernel, and prints the
per-layer metrics.  Per-pass samples, spans and counts are written to
``perfbench/.out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An operation (a public call, or a process for
``verify`` and ``cli``) fails on an exception, a nonzero exit, any stderr
output or a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
# How a pass starts the client and the command-line program; the self-test
# swaps these for interpreters that inject a wrong answer first.
LAUNCH = str(HERE / "launch.py")
CLIENT_ARGS = [str(HERE / "client.py")]
CLI_ARGS = ["-m", "onckesten.cli"]

SETUP_PROBES = 15
SETUP_PROBES_PER_PASS = 2
WATCHDOG_S = 170
SETUP_PROBE = "import onckesten, time; print(time.monotonic_ns())"

# Layers that must record work on a workload in the traced run.
MOST_WORK = {
    "series": ("algebra", "moments"),
    "enumeration": ("moments",),
    "verify": ("fock", "discrete", "kesten", "verify"),
    "cli": ("partitions", "kesten", "cli"),
}

# Counts that are exact and must repeat in every traced pass with a seed.
EXACT = (
    "algebra.mul_calls", "algebra.add_calls", "algebra.fraction_ops", "algebra.result_terms",
    "partitions.bases", "partitions.ordered_emitted", "partitions.forest_hit_ratio",
    "moments.colorings", "fock.word_moments", "fock.operator_calls", "fock.peak_words",
    "discrete.patterns", "discrete.useful_ratio", "kesten.quadrature_calls",
    "kesten.integrand_evals", "cli.stdout_bytes",
)

_running = []


def _watchdog(signum, frame):
    for pid in _running:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    sys.stderr.write(f"benchmark exceeded {WATCHDOG_S} s\n")
    os._exit(3)


# A fixed hash seed keeps the traced counts exact from run to run.
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def spawn(args: list, tag: str, peak: bool = True) -> dict:
    """Run one interpreter to completion; stdout and stderr go to files.

    With ``peak`` the interpreter starts through ``launch.py``, which records
    the process's own peak resident memory.
    """
    out, err, hwm = OUT / f"{tag}.out", OUT / f"{tag}.err", OUT / f"{tag}.peak"
    if peak:
        hwm.unlink(missing_ok=True)
        args = [LAUNCH, str(hwm)] + args
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), write, 0o644),
    ]
    start = time.monotonic_ns()
    pid = os.posix_spawn(sys.executable, [sys.executable] + args, ENV, file_actions=actions)
    _running.append(pid)
    _, status = os.waitpid(pid, 0)
    end = time.monotonic_ns()
    _running.remove(pid)
    rss_mb = int(hwm.read_text()) / 1024 if peak and hwm.exists() else 0.0
    return {"start_ns": start, "wall_s": (end - start) / 1e9, "rc": os.waitstatus_to_exitcode(status),
            "rss_mb": rss_mb, "out": out, "err": err}


def setup_probe() -> float:
    """Cold interpreter start until ``import onckesten`` completes."""
    proc = spawn(["-c", SETUP_PROBE], "setup", peak=False)
    if proc["rc"] != 0 or proc["err"].read_text():
        raise SystemExit(f"cannot import onckesten from {SRC}:\n{proc['err'].read_text()}")
    return (int(proc["out"].read_text()) - proc["start_ns"]) / 1e9


# -- passes -------------------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.wall_s = 0.0
        self.op_s: list = []
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.reasons: list = []
        self.traces: list = []  # trace or profile file of each process
        self.stdout_bytes = 0

    def fail(self, count: int, reason: str):
        self.failed += count
        self.reasons.append(reason)


def planned_calls(name: str, spec: dict) -> int:
    if name == "series":
        return 3 + spec["order"] + 1 + spec["order"] * len(spec["points"])
    return spec["max_n"] + 3 + len(spec["signatures"])


def in_process_pass(name: str, spec: dict, mode: str, tag: str) -> Pass:
    result = Pass()
    side = OUT / f"{tag}.{mode}.json"
    proc = spawn(CLIENT_ARGS + [name, mode, str(side), json.dumps(spec)], tag)
    result.wall_s, result.rss_mb = proc["wall_s"], proc["rss_mb"]
    result.attempted = planned_calls(name, spec)
    result.traces.append(side)
    stderr = proc["err"].read_text()
    try:
        report = json.loads(proc["out"].read_text())
    except ValueError:
        report = None
    if proc["rc"] != 0 or stderr or report is None:
        result.fail(result.attempted, f"client exited {proc['rc']}: {stderr.strip()[-500:]}")
        return result
    for op in report["ops"]:
        result.op_s.append(op["s"])
        reason = op.get("error") or oracle.check_call(op["name"], op["result"], spec)
        if reason:
            result.fail(1, f"{op['name']}: {reason}")
    missing = result.attempted - len(report["ops"])
    if missing:
        result.fail(missing, f"{missing} planned calls did not run")
    return result


def process_pass(jobs: list, mode: str, tag: str) -> Pass:
    result = Pass()
    procs = []
    for i, job in enumerate(jobs):
        side = OUT / f"{tag}.{i}.{mode}.json"
        if mode == "plain":
            args = CLI_ARGS + job["argv"]
        else:
            args = CLIENT_ARGS + ["cli", mode, str(side)] + job["argv"]
        procs.append((job, side, spawn(args, f"{tag}.{i}")))
    result.wall_s = sum(proc["wall_s"] for _, _, proc in procs)
    for job, side, proc in procs:
        result.attempted += 1
        result.op_s.append(proc["wall_s"])
        result.rss_mb = max(result.rss_mb, proc["rss_mb"])
        result.traces.append(side)
        out, stderr = proc["out"].read_text(), proc["err"].read_text()
        result.stdout_bytes += len(out.encode())
        try:
            reason = oracle.check_cli(out, job)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if proc["rc"] != 0 or stderr:
            reason = f"exit {proc['rc']}, stderr {stderr.strip()[-500:]!r}" + (f"; {reason}" if reason else "")
        if reason:
            result.fail(1, f"{job['command']}: {reason}")
    return result


def run_pass(name: str, inputs, mode: str, tag: str) -> Pass:
    if name in workloads.IN_PROCESS:
        return in_process_pass(name, inputs, mode, tag)
    return process_pass(inputs, mode, tag)


# -- metrics ------------------------------------------------------------------------------


def quantile(samples: list, share: float) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(share * 100) - 1]


def end_to_end(passes: list, setup: list) -> dict:
    ops = [s for p in passes for s in p.op_s]
    p90 = quantile(ops, 0.90)
    beyond = sum(s > p90 for s in ops)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s", f"median of {len(passes)} passes"),
        "op_p50_s": (quantile(ops, 0.50), "s", f"median of {len(ops)} operations"),
        "op_p90_s": (p90, "s", f"p90 of {len(ops)} operations, {beyond} beyond"
                     + ("" if beyond >= 10 else "; fewer than 10 beyond, indicative only")),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} cold imports"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB", f"median of {len(passes)} passes"),
    }


def _merge(files: list) -> dict:
    merged = {"totals": {}, "counts": {}, "records": []}
    for index, path in enumerate(files):
        data = json.loads(path.read_text())
        for name, (calls, total, own) in data.get("totals", {}).items():
            acc = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in data.get("counts", {}).items():
            if key.endswith("peak_words"):
                merged["counts"][key] = max(merged["counts"].get(key, 0), value)
            else:
                merged["counts"][key] = merged["counts"].get(key, 0) + value
        for record in data.get("records", []):
            merged["records"].append(dict(record, process=index))
        for key, value in data.items():
            if key.startswith("algebra."):
                merged["counts"][key] = merged["counts"].get(key, 0) + value
    return merged


ROUTES = {
    "enum": "moments.r_by_enumeration",
    "rec": "moments.sequences_by_recursion",
    "closed": "moments.r_by_closed_form",
    "jacobi": "moments.r_by_jacobi",
    "delaney": "moments.r_by_delaney",
}


def layer_metrics(traced: Pass, profiled: Pass) -> tuple:
    """Per-layer metrics of one round, and the merged trace for the span file."""
    trace = _merge(traced.traces)
    profile = _merge(profiled.traces)["counts"]
    totals, counts = trace["totals"], trace["counts"]

    def own(prefix):
        return sum(t[2] for name, t in totals.items() if name == prefix or name.startswith(prefix + "."))

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    hits, misses = counts.get("partitions.forest_hits", 0), counts.get("partitions.forest_misses", 0)
    m = {key: profile.get(key, 0) for key in
         ("algebra.self_s", "algebra.fraction_s", "algebra.mul_calls", "algebra.add_calls", "algebra.fraction_ops")}
    m["algebra.result_terms"] = counts.get("algebra.result_terms", 0)
    m["partitions.self_s"] = own("partitions")
    m["partitions.bases"] = counts.get("partitions.bases", 0)
    m["partitions.ordered_emitted"] = counts.get("partitions.ordered_emitted", 0)
    m["partitions.forest_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["moments.self_s"] = own("moments")
    for route, span in ROUTES.items():
        m[f"moments.route.{route}_s"] = totals.get(span, [0, 0.0, 0.0])[2]
    m["moments.colorings"] = counts.get("moments.colorings", 0)
    m["moments.colorings_per_s"] = m["moments.colorings"] / m["moments.self_s"] if m["moments.self_s"] else 0.0
    m["fock.self_s"] = own("fock")
    m["fock.word_moments"] = totals.get("fock.FockEngine.word_vacuum_moment", [0])[0]
    m["fock.operator_calls"] = counts.get("fock.operator_calls", 0)
    m["fock.peak_words"] = counts.get("fock.peak_words", 0)
    m["discrete.self_s"] = own("discrete")
    m["discrete.patterns"] = counts.get("discrete.patterns", 0)
    m["discrete.useful_ratio"] = ratio("discrete.nonzero_words", "discrete.patterns")
    m["kesten.self_s"] = own("kesten")
    m["kesten.quadrature_calls"] = totals.get("kesten.KestenMeasure.quadrature_moment", [0])[0]
    m["kesten.integrand_evals"] = counts.get("kesten.integrand_evals", 0)
    for check in oracle.CHECK_NAMES:
        m[f"verify.check.{check}_s"] = totals.get(f"verify.check.{check}", [0, 0.0, 0.0])[2]
    cli_runs = totals.get("cli.main", [0, 0.0, 0.0])
    m["cli.render_s"] = cli_runs[2]
    m["cli.stdout_bytes"] = traced.stdout_bytes if cli_runs[0] else 0
    m["cli.process_overhead_s"] = traced.wall_s - cli_runs[1] if cli_runs[0] else 0.0
    layers_seen = {name.split(".")[0] for name in totals} | ({"algebra"} if m["algebra.mul_calls"] else set())
    return m, trace, layers_seen


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- runs ---------------------------------------------------------------------------------


def timed_run(name: str, inputs, seconds: float, seed: int) -> tuple:
    setup_probe()  # compiles bytecode on a fresh checkout; not counted
    setup: list = []
    passes: list = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        # Probes are spread over the run so the median sees the same host
        # conditions as the passes.
        setup += [setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(run_pass(name, inputs, "plain", f"{name}.{len(passes)}"))
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    samples = {"setup_s": setup, "passes": [{"wall_s": p.wall_s, "op_s": p.op_s, "rss_mb": p.rss_mb} for p in passes]}
    (OUT / f"run-{name}-{seed}.json").write_text(json.dumps(samples))
    return passes, end_to_end(passes, setup)


def traced_run(name: str, inputs, seconds: float, seed: int) -> tuple:
    rounds: list = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        tag = f"{name}.{len(rounds)}"
        rounds.append(tuple(run_pass(name, inputs, mode, tag) for mode in ("plain", "trace", "profile")))
    per_round, spans_out, problems = [], [], []
    for index, (_, traced, profiled) in enumerate(rounds):
        metrics, trace, seen = layer_metrics(traced, profiled)
        per_round.append(metrics)
        spans_out.append({**trace, "pass": index})
        missing = [layer for layer in MOST_WORK[name] if layer not in seen]
        if missing:
            problems.append(f"round {index}: no spans or counts recorded for {', '.join(missing)}")
    for index, metrics in enumerate(per_round[1:], start=1):
        drift = [key for key in EXACT if metrics[key] != per_round[0][key]]
        if drift:
            problems.append(f"round {index}: exact counts changed: {', '.join(drift)}")
    layer = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        layer[key] = per_round[0][key] if key in EXACT else statistics.median(values)
    plain_wall = statistics.median(r[0].wall_s for r in rounds)
    layer["trace.untraced_wall_s"] = plain_wall
    layer["trace.overhead_s"] = statistics.median(r[1].wall_s for r in rounds) - plain_wall
    layer["trace.profile_overhead_s"] = statistics.median(r[2].wall_s for r in rounds) - plain_wall
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps({"workload": name, "seed": seed, "rounds": spans_out}))
    passes = [p for r in rounds for p in r]
    return passes, {key: (value, unit_of(key), f"{len(rounds)} traced rounds") for key, value in layer.items()}, problems


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple:
    """One workload's run; prints its report and returns its totals."""
    inputs = workloads.inputs(name, seed)
    problems: list = []
    signal.alarm(WATCHDOG_S)
    if trace:
        passes, metrics, problems = traced_run(name, inputs, seconds, seed)
    else:
        passes, metrics = timed_run(name, inputs, seconds, seed)
    signal.alarm(0)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for reason in [r for p in passes for r in p.reasons][:20] + problems:
        print(f"FAIL {reason}")
    print(f"workload {name} seed {seed}: {len(passes)} passes, "
          f"fail_rate {failed}/{attempted} = {failed / attempted:.4g}")
    for key, (value, unit, samples) in metrics.items():
        print(f"  {key} = {value:.6g} {unit} ({samples})")
    return attempted, failed, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True,
                        help="one workload, or all four in turn with metrics prefixed by workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "onckesten" / "__init__.py").is_file():
        sys.stderr.write(f"no package source at {SRC}; run from the root of a checkout\n")
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _watchdog)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    problems: list = []
    metrics: dict = {}
    for name in names:
        a, f, p, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in m.items()})
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
