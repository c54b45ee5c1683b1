"""One measured reedylab process, started by run.py.

    python3 bench/child.py setup
    python3 bench/child.py run SPEC_JSON RESULT_PATH

``setup`` imports ``reedylab.cli`` and prints the monotonic clock at the
moment the import returned; the parent took the clock just before it
spawned this process, so the difference is the set-up time.  ``run``
does the same import, then calls ``reedylab.cli.main`` once per suite of
the spec, in order, and writes its timings (and, when traced, the spans)
to RESULT_PATH.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reedylab.cli  # noqa: E402

READY = time.monotonic()


def main(argv: list[str]) -> int:
    import json
    import resource

    loaded_from = os.path.dirname(os.path.abspath(reedylab.cli.__file__))
    if loaded_from != os.path.join(ROOT, "src", "reedylab"):
        print(f"reedylab imported from {loaded_from}, not this checkout", file=sys.stderr)
        return 2
    if argv[:1] == ["setup"]:
        print(repr(READY))
        return 0
    spec = json.loads(argv[1])
    result_path = argv[2]
    tracer = None
    start = time.perf_counter()
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = [reedylab.cli.main(args + ["--out", out]) for args, out in spec["runs"]]
    wall = time.perf_counter() - start
    result = {
        "ready": READY,
        "wall_s": wall,
        "exit_codes": codes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["bindings"] = tracer.bindings
        result["missing_hooks"] = tracer.missing
        result["not_restored"] = tracer.restore()
        tracer.dump(result_path + ".trace")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
