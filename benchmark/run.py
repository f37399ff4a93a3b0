"""Benchmark of resfluor: one workload per run, in a fresh process.

    python3 benchmark/run.py --workload counting-maps --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src`` without installing it.  Set-up (import plus input generation) is
timed first; then whole rounds of the workload's three steps run until the
next round would end past ``--seconds`` (at least MIN_ROUNDS rounds); the
first round's outputs are checked against the independent reference and
later rounds must reproduce them.  A fixed calibration kernel is timed
during the set-up and after every step, and every time metric is scaled by
the host speed the kernel shows around it (``calibration.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  See README.md for the workloads, the metrics and the
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

MIN_ROUNDS = 3
SETUP_REPEATS = 3
# The program's import, as main() makes it: the package, its CLI and the
# verify module.
_IMPORT = "import resfluor, resfluor.cli, resfluor.verify"
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "step1_s": "s",
    "step2_s": "s",
    "step3_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "short"), default="full",
                   help="short shrinks every input, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def grade(wl, digests) -> tuple[int, int, bool, list[str]]:
    """Check round 1 against the reference; later rounds must reproduce it.

    Returns attempted, failed, correct and the failure messages.  An
    operation fails when it raised, exited non-zero, or gave a wrong
    output; ``correct`` is false only when an operation that ran to
    completion gave a wrong output, or gave another output than in round 1.
    """
    from workloads import Failed

    first = digests[0]
    verdicts = wl.check([[payload for _, payload in step] for step in first])
    attempted = failed = 0
    correct = True
    messages = []
    for r, rnd in enumerate(digests):
        for k, step in enumerate(rnd):
            for i, (key, payload) in enumerate(step):
                attempted += 1
                first_key, first_payload = first[k][i]
                crashed = isinstance(payload, Failed) or isinstance(first_payload, Failed)
                if r > 0 and key != first_key:
                    # a crash in one round only is a failed operation, not a wrong output
                    failed += 1
                    correct = correct and crashed
                    why = payload.why if isinstance(payload, Failed) else "output differs from round 1"
                    messages.append(f"round {r + 1}, step {k + 1}, op {i + 1}: {why}")
                elif verdicts[k][i]:
                    failed += 1
                    correct = correct and crashed
                    if r == 0:
                        messages += verdicts[k][i]
    return attempted, failed, correct, messages


def kernel_around(cal: list[float], j: int) -> float:
    """Median kernel time around the j-th timed step.

    The step ran between cal[j] and cal[j + 1].  Four kernel times, two
    before the step and two after (fewer at the ends of the run), follow the
    host's drift over a few seconds; one kernel time alone is too noisy.
    """
    return statistics.median(cal[max(0, j - 1):j + 3])


def fresh_import_s() -> float:
    """Import time of the program in a fresh interpreter (not counting its start-up)."""
    code = f"import time; t = time.perf_counter(); {_IMPORT}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "resfluor" / "__init__.py").is_file():
        # never fall back to an installed copy: the benchmark measures the checkout
        print(f"error: {SRC / 'resfluor'} not found; run from a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread, as the CLI's default --threads 1: on a few shared
    # cores, idle BLAS threads spinning beside the main one add noise
    # (the fresh interpreters of the set-up inherit this too).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # Only the program's own import is timed.  The benchmark's modules come
    # after it, and the checks and the reference (SciPy) only once the
    # rounds and peak memory have been measured.
    t = time.perf_counter()
    import resfluor  # noqa: F401
    import resfluor.cli  # noqa: F401
    import resfluor.verify  # noqa: F401
    import_s = [time.perf_counter() - t]
    from calibration import NOMINAL_S, calibration_s
    from tracing import PER_LAYER, NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # the first import may also compile the checkout's bytecode; repeat it
    # in fresh interpreters and take the median
    cal_setup = [calibration_s()]
    for _ in range(SETUP_REPEATS - 1):
        import_s.append(fresh_import_s())
        cal_setup.append(calibration_s())

    tracer = Tracer() if args.trace else NullTracer()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir, tracer)
    try:
        gen = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.make_inputs()
            gen.append(time.perf_counter() - t)
        cal_setup.append(calibration_s())
        setup_s = statistics.median(import_s) + statistics.median(gen)
        setup_s *= NOMINAL_S / statistics.median(cal_setup)

        if args.trace:
            tracer.install()
        rounds, digests = [], []
        # the kernel before the first step, then after every step: step j
        # runs between cal[j] and cal[j + 1]
        cal = [cal_setup[-1]]
        loop_start = time.perf_counter()
        while True:
            if args.trace:
                tracer.begin_round()
            steps, raws = [], []
            for k in range(3):
                t = time.perf_counter()
                raws.append(wl.run_step(k))
                steps.append(time.perf_counter() - t)
                cal.append(calibration_s())  # no program call: nothing to trace
            if args.trace:
                tracer.end_round()
            rounds.append(steps)
            digests.append([wl.digest(k, raw, full=not digests) for k, raw in enumerate(raws)])
            elapsed = time.perf_counter() - loop_start
            # a round's share of the loop, with its kernels and digests
            typical = elapsed / len(rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer.uninstall()

        attempted, failed, correct, messages = grade(wl, digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in messages:
        print(f"FAIL {msg}", file=sys.stderr)

    # Every time is reported in seconds at the host speed at which the
    # calibration kernel takes NOMINAL_S: a step by the kernel times around
    # it, the traced run's per-round metrics by the run's median.
    speed = NOMINAL_S / statistics.median(cal)
    if args.trace:
        per_round = tracer.round_metrics()
        for metrics, steps in zip(per_round, rounds):
            metrics["traced.round_s"] = sum(steps)
        values = {name: statistics.median(m.get(name, 0) for m in per_round) for name in PER_LAYER}
        values = {name: v * speed if PER_LAYER[name] == "s" else v for name, v in values.items()}
        units = PER_LAYER
    else:
        scaled = [[t * NOMINAL_S / kernel_around(cal, 3 * r + k) for k, t in enumerate(steps)]
                  for r, steps in enumerate(rounds)]
        values = {f"step{k + 1}_s": statistics.median(col) for k, col in enumerate(zip(*scaled))}
        values.update(round_s=statistics.median(sum(steps) for steps in scaled),
                      setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(f"# {args.workload}: steps {' | '.join(wl.steps)}; round times "
          f"{', '.join(f'{sum(steps):.3f}' for steps in rounds)} s; import times "
          f"{', '.join(f'{t:.3f}' for t in import_s)} s (unscaled); calibration kernel "
          f"median {statistics.median(cal):.4f} s over {len(cal)} runs, speed factor "
          f"{speed:.4f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
