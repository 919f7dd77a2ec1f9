"""qdeform benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
One client runs one `qdeform` subprocess at a time and waits for it (a closed
loop with a single client), passing over the workload's argv list until the
time is up.  Every output is checked by the oracles in oracles.py.

--trace 0 prints the end-to-end metrics, their times scaled by a speed probe
run between passes (see PROBE).  --trace 1 instead runs the same
argv in this process through qdeform.cli.main, alternating untraced and
traced passes, and prints the per-layer metrics.  The last stdout line is the
result object; the line before it records the environment and details.
Both, plus the kept spans of a traced run, are also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracles import check, expects_usage_error
from tracing import Tracer, run_inprocess
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PYTHON = sys.executable
IMPORT_CLI = [PYTHON, "-c", "import qdeform.cli"]
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 7
COMMAND_TIMEOUT_S = 60.0

# The speed probe: a fixed program that does not touch qdeform, with the same
# kinds of work as a CLI call (interpreter start, `import numpy`, a Python
# loop, big-int arithmetic, BLAS products).  On a shared host the speed of
# the machine drifts, by up to 1.9x within one run, and every timing of a run
# moves with it.  The probe runs before and after every pass, and each
# time of that pass is scaled by PROBE_REFERENCE_S over the mean of its two
# probes, so the end-to-end times read as seconds on a machine where the
# probe takes PROBE_REFERENCE_S, about its time on a lightly loaded 2-vCPU
# Intel Xeon VM with Python 3.11.7 and numpy 2.4.6 (median 0.28 s, lower
# decile 0.23 s under the usual load there).  The unscaled values are in the
# record.
PROBE = [
    PYTHON,
    "-c",
    "import numpy\n"
    "x = 0\n"
    "for i in range(300000):\n"
    "    x += i * i % 7\n"
    "a = [3 ** i for i in range(400)]\n"
    "for i in range(400):\n"
    "    for j in range(400 - i):\n"
    "        x += a[i] * a[j] // (a[j] + 1)\n"
    "m = numpy.full((400, 400), 1 / 400)\n"
    "for _ in range(10):\n"
    "    m = m @ m\n",
]
PROBE_REFERENCE_S = 0.25


@dataclass
class Outcome:
    argv: tuple[str, ...]
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], env: dict[str, str]) -> Outcome:
    """Run one process to completion; resources come from its own wait4 record."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as selector:
            for stream in chunks:
                selector.register(stream, selectors.EVENT_READ)
            deadline = start + COMMAND_TIMEOUT_S
            while selector.get_map():
                wait = None if deadline is None else max(0.0, deadline - time.perf_counter())
                ready = selector.select(wait)
                if not ready:
                    proc.kill()  # a hung command then fails on its exit status
                    deadline = None
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    text = {stream: b"".join(parts).decode(errors="replace") for stream, parts in chunks.items()}
    return Outcome(
        tuple(cmd),
        proc.returncode,
        text[proc.stdout],
        text[proc.stderr],
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def run_command(argv: tuple[str, ...], env: dict[str, str]) -> Outcome:
    outcome = run_child([PYTHON, "-m", "qdeform.cli", *argv], env)
    outcome.argv = argv
    return outcome


def median_wall(cmd: list[str], env: dict[str, str], samples: int) -> tuple[float, int]:
    """Median wall time of `samples` fresh processes, and how many exited nonzero."""
    outcomes = [run_child(cmd, env) for _ in range(samples)]
    return statistics.median(o.wall_s for o in outcomes), sum(o.code != 0 for o in outcomes)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Tally:
    """Failure accounting shared by both modes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_results = 0
        self.problems: dict[str, list[str]] = {}

    def record(self, argv: tuple[str, ...], problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            # Out-of-domain argv must end in a usage error; missing that is a
            # robustness failure, not a wrong result.
            self.wrong_results += not expects_usage_error(argv)
            self.problems.setdefault(" ".join(argv), problems)


def probe_s(env: dict[str, str]) -> float:
    outcome = run_child(PROBE, env)
    if outcome.code != 0:
        raise RuntimeError(f"speed probe failed: {outcome.err.strip()[-300:]}")
    return outcome.wall_s


def scaled(values: list[float], scales: list[float]) -> list[float]:
    return [value * scale for value, scale in zip(values, scales, strict=True)]


def measure_cli(workload, seed: int, seconds: float, env: dict[str, str]) -> tuple[dict, Tally, dict]:
    run_child(IMPORT_CLI, env)  # compiles bytecode once, as an installed package would have
    passes = workload.passes(seed)
    tally = Tally()
    # Set-up samples are spread over the run, one before each pass, so that
    # a burst of load on the machine does not decide the median.  Each pass,
    # with its set-up sample, lies between two probes; `scales` holds
    # PROBE_REFERENCE_S over their mean, one per pass.
    probes = [probe_s(env)]
    setup, pass_times, cpu, rss, scales = [], [], [], [], []
    commands, command_scales = [], []
    by_command: dict[str, list[float]] = {}
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        setup.append(run_child(IMPORT_CLI, env).wall_s)
        start = time.perf_counter()
        outcomes = [run_command(argv, env) for argv in next(passes)]
        pass_times.append(time.perf_counter() - start)
        probes.append(probe_s(env))
        scales.append(PROBE_REFERENCE_S / statistics.mean(probes[-2:]))
        cpu.append(sum(o.cpu_s for o in outcomes))
        rss.append(max(o.rss_mb for o in outcomes))
        commands.extend(o.wall_s for o in outcomes)
        command_scales.extend([scales[-1]] * len(outcomes))
        for o in outcomes:
            by_command.setdefault(" ".join(o.argv), []).append(o.wall_s)
            tally.record(o.argv, check(o.argv, o.code, o.out, o.err))

    setup_scales = list(scales)
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child(IMPORT_CLI, env).wall_s)
        probes.append(probe_s(env))
        setup_scales.append(PROBE_REFERENCE_S / statistics.mean(probes[-2:]))
    pass_scaled = scaled(pass_times, scales)
    commands_scaled = scaled(commands, command_scales)
    tail_s, beyond = percentile(commands_scaled, workload.tail_pct)
    per_pass = len(workload.commands)
    metrics = {
        "setup_s": (statistics.median(scaled(setup, setup_scales)), "s"),
        "pass_s": (statistics.median(pass_scaled), "s"),
        "cmd_p50_s": (statistics.median(commands_scaled), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "cmds_per_s": (statistics.median(per_pass / t for t in pass_scaled), "1/s"),
        "cpu_s": (statistics.median(scaled(cpu, scales)), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    details = {
        "passes": len(pass_times),
        "setup_samples": len(setup),
        "cmd_samples": len(commands),
        "cmd_tail_percentile": workload.tail_pct,
        "cmd_tail_samples_beyond": beyond,
        "probe_reference_s": PROBE_REFERENCE_S,
        "probe_s": [round(t, 4) for t in probes],
        "unscaled": {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(pass_times),
            "cmd_p50_s": statistics.median(commands),
            "cpu_s": statistics.median(cpu),
            "pass_times_s": [round(t, 4) for t in pass_times],
            "cmd_median_s": {argv: round(statistics.median(t), 4) for argv, t in by_command.items()},
        },
        "fail_ratio": tally.failed / tally.attempted,
    }
    return metrics, tally, details


def import_split(env: dict[str, str]) -> dict[str, tuple[float, str]]:
    """Interpreter start, numpy and qdeform import times from fresh interpreters."""
    interp_s, interp_errors = median_wall([PYTHON, "-c", "pass"], env, IMPORT_SAMPLES)
    cli_s, cli_errors = median_wall(IMPORT_CLI, env, IMPORT_SAMPLES)
    numpy_us, qdeform_us, timed_errors = [], [], 0
    for _ in range(IMPORT_SAMPLES):
        outcome = run_child([PYTHON, "-X", "importtime", *IMPORT_CLI[1:]], env)
        timed_errors += outcome.code != 0
        numpy, qdeform = 0, 0
        for line in outcome.err.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, name = int(fields[1]), fields[2]
            if name.strip() == "numpy" and not numpy:
                numpy = cumulative
            if name.startswith(" qdeform"):  # a top-level import of the package
                qdeform += cumulative
        numpy_us.append(numpy)
        qdeform_us.append(qdeform - numpy)
    return {
        "import.calls": (3 * IMPORT_SAMPLES, "count"),
        "import.self_s": (cli_s, "s"),
        "import.errors": (interp_errors + cli_errors + timed_errors, "count"),
        "import.interp_s": (interp_s, "s"),
        "import.numpy_s": (statistics.median(numpy_us) / 1e6, "s"),
        "import.qdeform_s": (statistics.median(qdeform_us) / 1e6, "s"),
    }


def measure_traced(workload, seed: int, seconds: float, env: dict[str, str]) -> tuple[dict, Tally, dict]:
    metrics = import_split(env)
    sys.path.insert(0, str(SRC))
    tracer = Tracer()
    passes = workload.passes(seed)
    for argv in next(passes):  # warm-up: imports and first-call costs; not timed
        run_inprocess(argv)

    tally = Tally()
    untraced, traced = [], []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        order = next(passes)
        start = time.perf_counter()
        plain = {argv: run_inprocess(argv) for argv in order}
        untraced.append(time.perf_counter() - start)

        tracer.install()
        start = time.perf_counter()
        outputs = {}
        for number, argv in enumerate(order):
            tracer.request = len(traced) * len(order) + number
            outputs[argv] = run_inprocess(argv)
        traced.append(time.perf_counter() - start)
        tracer.end_pass()
        tracer.uninstall()

        for argv in order:
            problems = check(argv, *outputs[argv])
            if outputs[argv] != plain[argv]:
                problems.append("traced output differs from the untraced run")
            tally.record(argv, problems)

    count = len(traced)
    pass_s = statistics.mean(traced)
    metrics.update(tracer.layer_metrics(count))
    metrics["trace.pass_s"] = (pass_s, "s")
    metrics["trace.unattributed_s"] = (pass_s - tracer.self_time_total() / count, "s")
    metrics["trace.overhead_ratio"] = (pass_s / statistics.mean(untraced), "ratio")
    spans = tracer.write_spans(OUT / f"spans-{workload.name}.tsv")
    details = {
        "traced_passes": count,
        "untraced_passes": len(untraced),
        "untraced_pass_s": statistics.mean(untraced),
        "spans_total": tracer.span_ids,
        "spans_written": spans,
    }
    return metrics, tally, details


def blas_record() -> dict[str, object]:
    """BLAS library and thread count as numpy finds them; nothing is changed."""
    probe = (
        "import json, ctypes, numpy\n"
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "for line in open('/proc/self/maps'):\n"
        "    path = line.split()[-1]\n"
        "    if 'openblas' in path and '.so' in path:\n"
        "        lib = ctypes.CDLL(path)\n"
        "        for name in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',\n"
        "                     'openblas_get_num_threads'):\n"
        "            if hasattr(lib, name):\n"
        "                threads = getattr(lib, name)()\n"
        "                break\n"
        "        break\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': cfg.get('name'),\n"
        "                  'blas_version': cfg.get('version'), 'blas_threads': threads}))\n"
    )
    outcome = run_child([PYTHON, "-c", probe], child_env())
    try:
        return json.loads(outcome.out)
    except ValueError:
        return {"numpy": None, "blas": None, "probe_error": outcome.err.strip()[-300:]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict[str, object]:
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        **blas_record(),
        "blas_thread_env": {
            k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qdeform" / "cli.py").is_file():
        print(f"bench: no qdeform sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = child_env()
    measure = measure_traced if args.trace else measure_cli
    metrics, tally, details = measure(workload, args.seed, args.seconds, env)
    result = {
        "correct": tally.wrong_results == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "details": details,
        "failures": tally.problems,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
