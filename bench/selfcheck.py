"""Checks that the benchmark measures what it claims.

    python3 bench/selfcheck.py

Runs one plain sample of every workload at two seeds and two traced
samples of every workload (a few minutes), then checks that:

- BENCHMARK.json names exactly the workloads and end-to-end metrics
  run.py reports;
- every sample passes the correctness gate, and corrupting the expected
  status table (a flipped status, a dropped check, an extra check) or a
  certificate makes the gate count mismatches;
- --seed changes the presheaf-corpus certificates and leaves the other
  workloads' certificates byte-identical;
- after a traced sample every wrapped binding is the original object
  again, and two traced samples report identical counts and call counts.

Exits 1 when any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import (  # noqa: E402
    LOOP_REF_S,
    WORKLOADS,
    end_to_end,
    gate,
    load_expected,
    load_spec,
    run_sample,
    scratch_dir,
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = load_spec()
    expected = load_expected()
    deadline = time.monotonic() + 1200
    with scratch_dir() as workdir:
        plain = {
            (w, seed): run_sample(w, seed, False, workdir, deadline)
            for w in WORKLOADS
            for seed in (1, 2)
        }
        traced = {w: [run_sample(w, 1, True, workdir, deadline) for _ in range(2)] for w in WORKLOADS}

    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    sample = plain[("cubes-obstructions", 1)]
    e2e = end_to_end({"plain": [sample], "setups": [sample["setup_s"]], "loops": [LOOP_REF_S]})
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        == [(k, v["unit"]) for k, v in e2e.items()],
        "BENCHMARK.json end_to_end names and units match run.py",
    )

    for (w, seed), s in plain.items():
        check(gate([s], expected)[1] == 0, f"{w} seed {seed} passes the gate")

    def mismatches(table=expected, samples=(sample,)):
        return gate(list(samples), table)[1]

    flipped = copy.deepcopy(expected)
    flipped["crown-winding"]["identity-winds-one-3"] = "fail"
    check(mismatches(flipped) > 0, "a flipped expected status is a mismatch")
    dropped = copy.deepcopy(expected)
    del dropped["hom-counts"]["formula-matches-enumeration-1-1"]
    check(mismatches(dropped) > 0, "a check missing from the table is a mismatch")
    extra = copy.deepcopy(expected)
    extra["sieve-chain"]["no-such-check"] = "pass"
    check(mismatches(extra) > 0, "a listed check missing from the certificate is a mismatch")
    altered = copy.deepcopy(sample)
    altered["certs"]["obstruction-u"] = altered["certs"]["obstruction-u"].replace('"count": 1', '"count": 2', 1)
    check(mismatches(samples=(sample, altered)) > 0, "a certificate differing between samples is a mismatch")

    for w in WORKLOADS:
        changed = plain[(w, 1)]["certs"] != plain[(w, 2)]["certs"]
        check(changed == (w == "presheaf-corpus"), f"{w}: --seed {'changes' if changed else 'keeps'} the certificates")

    for w, (t1, t2) in traced.items():
        check(not t1["not_restored"] and not t2["not_restored"], f"{w}: tracer restores every binding")
        check(t1["bindings"] > 0 and not t1["missing_hooks"], f"{w}: tracer wrapped {t1['bindings']} bindings")
        check(t1["counts"] == t2["counts"] and t1["calls"] == t2["calls"], f"{w}: traced counts repeat exactly")
        check(gate([t1, t2], expected)[1] == 0, f"{w}: traced samples pass the gate")
        print(f"     {w}: {json.dumps(t1['counts'], sort_keys=True)}")

    print("selfcheck:", "FAILED " + "; ".join(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
