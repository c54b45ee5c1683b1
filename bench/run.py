"""reedylab benchmark: time to certificate, set-up time and peak memory,
with every certificate checked against the expected check statuses.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is one fresh, single-threaded Python process (bench/child.py)
that imports ``reedylab.cli`` and calls ``reedylab.cli.main`` once per
suite of the workload.  Samples run one at a time until ``--seconds`` is
used up, and at least MIN_SAMPLES of them.  With ``--trace 0`` the last
line of standard output is the result with the end-to-end metrics, whose
times are scaled to a reference host speed; with ``--trace 1`` untraced
and traced samples alternate and the result holds the per-layer metrics.
The lines before it are the environment record, one line per sample, the
calibration line and one line per metric.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import aggregate  # noqa: E402

RUN_LIMIT_S = 165  # a run must end within 180 s; children are killed past this
MIN_SAMPLES = 3
SETUP_SPAWNS = 3  # before every sample and after the last one
# The host's speed drifts by up to 1.7x over minutes, and the time of a
# fixed pure-Python loop tracks it (bench/README.md).  So before every
# sample and after the last one run.py times CAL_ROUNDS runs of that loop,
# and wall_s and setup_s are scaled to the speed at which the loop takes
# LOOP_REF_S.
CAL_LOOPS = 500_000
CAL_ROUNDS = 5
LOOP_REF_S = 0.04

# name: (suites in the order they run, flags for every suite, whether the
# benchmark's --seed is passed through).  Only documented CLI flags.
WORKLOADS = {
    "truncation-n4": (
        ("reedy-axioms", "pre-elegance", "relative-elegance"),
        ["--max-size", "4"],
        False,
    ),
    "presheaf-corpus": (("presheaf-ez", "cell-presentation"), [], True),
    "cubes-obstructions": (
        (
            "hom-counts",
            "obstruction-u",
            "crown-winding",
            "sieve-chain",
            "idempotent-completion",
            "triangulation",
            "elegant-core",
        ),
        [],
        False,
    ),
}

# The per-layer metrics are the ones BENCHMARK.json lists.  These sum the
# self times of several traced functions; any other "<layer>.<function>.s"
# is that function's self time, "<layer>.<function>.calls" its call count,
# and the names in COUNTS are the tracer's exact counts.
SELF_TIME_GROUPS = {
    "reedy.square_enumeration.s": ("reedy.reedy_category_on",),
    "presheaf.corpus_build.s": ("presheaf.enumerate_presheaves", "presheaf.seeded_corpus"),
    "presheaf.triple_criteria.s": (
        "presheaf.is_reedy_mono",
        "presheaf.has_unique_ez",
        "presheaf.maps_lowering_pushouts_to_pullbacks",
    ),
}
COUNTS = (
    "reedy.category_builds",
    "reedy.composition_entries",
    "reedy.morphisms",
    "reedy.squares",
    "semilattice.morphism_validations",
    "presheaf.corpus_size",
    "suites.checks",
)


class BenchError(Exception):
    pass


def suite_args(workload: str, seed: int) -> list[list[str]]:
    suites, flags, seeded = WORKLOADS[workload]
    extra = ["--seed", str(seed)] if seeded else []
    return [[suite, *flags, *extra] for suite in suites]


def _child(args: list[str], deadline: float) -> tuple[float, str]:
    """Run bench/child.py to completion; return the monotonic clock just
    before the spawn and the child's standard output."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "child.py"), *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} killed at the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, proc.stdout


def setup_sample(deadline: float) -> float:
    spawned, out = _child(["setup"], deadline)
    return float(out) - spawned


def _canonical(path: str) -> str | None:
    """The certificate as Certificate.json_text(False) prints it, or None
    when the suite wrote none."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    data.pop("duration", None)
    return json.dumps(data, indent=2, sort_keys=True)


def run_sample(workload: str, seed: int, trace: bool, workdir: str, deadline: float) -> dict:
    out = tempfile.mkdtemp(dir=workdir)
    runs = [[args, os.path.join(out, f"{args[0]}.json")] for args in suite_args(workload, seed)]
    result_path = os.path.join(out, "result.json")
    spawned, _ = _child(["run", json.dumps({"trace": trace, "runs": runs}), result_path], deadline)
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result.pop("ready") - spawned
    result["certs"] = {args[0]: _canonical(path) for args, path in runs}
    if trace:
        with open(result_path + ".trace") as fh:
            raw = json.load(fh)
        result["self_s"], result["calls"] = aggregate(raw)
        result["counts"] = raw["counts"]
    shutil.rmtree(out)
    return result


def calibrate() -> list[float]:
    """CAL_ROUNDS times of the fixed loop."""
    times = []
    for _ in range(CAL_ROUNDS):
        began = time.perf_counter()
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i
        times.append(time.perf_counter() - began)
    return times


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    """Samples until `seconds` are used up.  Before each sample and after
    the last one the loop is timed and set-up spawns are made.  A sample
    is not started when the previous one says it would end past
    `seconds`."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_sample(deadline)  # warm-up: fills the file cache and any bytecode cache
    loops: list[float] = []
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    counted, needed = (traced, 1) if trace else (plain, MIN_SAMPLES)
    window_end = time.monotonic() + seconds
    last = 0.0
    while len(counted) < needed or time.monotonic() + last <= window_end:
        began = time.monotonic()
        loops += calibrate()
        setups += [setup_sample(deadline) for _ in range(SETUP_SPAWNS)]
        plain.append(run_sample(workload, seed, False, workdir, deadline))
        if trace:
            traced.append(run_sample(workload, seed, True, workdir, deadline))
        last = time.monotonic() - began
    loops += calibrate()
    setups += [setup_sample(deadline) for _ in range(SETUP_SPAWNS)]
    setups += [s["setup_s"] for s in plain + traced]
    return {"loops": loops, "setups": setups, "plain": plain, "traced": traced}


def gate(samples: list[dict], expected: dict) -> tuple[int, int]:
    """(checks attempted, checks mismatched) over all samples.  A check
    mismatches when its status differs from the expected table, when the
    table does not list it, when the table lists it but the certificate
    lacks it, or when it differs from the same check in the first sample
    (certificates must be byte-identical within a run)."""
    attempted = failed = 0
    first = samples[0]["certs"]
    for sample in samples:
        for suite, text in sample["certs"].items():
            want = expected.get(suite, {})
            if text is None:
                attempted += len(want)
                failed += len(want)
                continue
            checks = json.loads(text)["checks"]
            ref = json.loads(first[suite])["checks"] if first[suite] else []
            bad = 0
            for i, check in enumerate(checks):
                differs = i >= len(ref) or check != ref[i]
                bad += want.get(check["id"]) != check["status"] or differs
            missing = set(want) - {c["id"] for c in checks}
            if not bad and text != first[suite]:
                bad = 1  # the checks agree but the rest of the certificate does not
            attempted += len(checks) + len(missing)
            failed += bad + len(missing)
    return attempted, failed


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under bench/.tmp, removed with everything in it
    (and bench/.tmp when it is left empty)."""
    base = os.path.join(BENCH, ".tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def load_expected() -> dict:
    with open(os.path.join(BENCH, "expected_checks.json")) as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_start": list(os.getloadavg()),
    }


def _layer_value(name: str, sample: dict):
    if name in COUNTS:
        return sample["counts"].get(name, 0)
    if name.endswith(".calls"):
        return sample["calls"].get(name[: -len(".calls")], 0)
    fns = SELF_TIME_GROUPS.get(name, (name[: -len(".s")],))
    return sum(sample["self_s"].get(f, 0.0) for f in fns)


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """The per-layer metrics of BENCHMARK.json: median self times and exact
    counts; counts that differ between traced samples raise BenchError."""
    metrics = {}
    for spec in load_spec()["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name == "trace.overhead_s":
            value = statistics.median(s["wall_s"] for s in traced) - statistics.median(
                s["wall_s"] for s in plain
            )
        elif unit == "s":
            value = statistics.median(_layer_value(name, s) for s in traced)
        else:
            values = [_layer_value(name, s) for s in traced]
            if len(set(values)) != 1:
                raise BenchError(f"count {name} differs between traced samples: {values}")
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def end_to_end(run: dict) -> dict:
    plain = run["plain"]
    scale = LOOP_REF_S / statistics.median(run["loops"])
    return {
        "wall_s": {"value": statistics.median(s["wall_s"] for s in plain) * scale, "unit": "s"},
        "setup_s": {"value": statistics.median(run["setups"]) * scale, "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(s["peak_rss_kb"] / 1024 for s in plain),
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "reedylab", "cli.py")):
        print(f"error: no reedylab sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = environment()
    try:
        with scratch_dir() as workdir:
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        samples = run["plain"] + run["traced"]
        attempted, failed = gate(samples, load_expected())
        not_restored = sorted({b for s in run["traced"] for b in s["not_restored"]})
        metrics = per_layer(run["plain"], run["traced"]) if args.trace else end_to_end(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    print("env", json.dumps(env, sort_keys=True))
    for i, s in enumerate(samples):
        kind = "traced" if "self_s" in s else "plain"
        print(
            f"sample {i} {kind} wall_s={s['wall_s']:.4f} setup_s={s['setup_s']:.4f} "
            f"peak_rss_mb={s['peak_rss_kb'] / 1024:.2f} exit_codes={s['exit_codes']}"
        )
    if run["traced"]:
        first = run["traced"][0]["self_s"]
        for name in sorted(first, key=first.get, reverse=True)[:15]:
            print(f"self_time {name} {first[name]:.4f} s calls={run['traced'][0]['calls'][name]}")
    missing = sorted({h for s in run["traced"] for h in s["missing_hooks"]})
    if missing:
        print(f"tracer hooks not found, their counts read 0: {', '.join(missing)}")
    if not_restored:
        print(f"tracer left wrapped: {', '.join(not_restored)}")
    print(
        f"calibration loop_s={statistics.median(run['loops']):.4f} "
        f"unscaled wall_s={statistics.median(s['wall_s'] for s in run['plain']):.4f} "
        f"setup_s={statistics.median(run['setups']):.4f}"
    )
    ratio = failed / attempted
    print(f"metric check_mismatch_ratio {ratio} ratio ({failed}/{attempted} checks)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0 and not not_restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
