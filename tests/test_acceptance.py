"""Acceptance gate: one test per criterion, each printing a verdict line.

Criterion 6 is split in two.  6a checks that the three Reedy-mono
criteria agree on the corpus and on the non-mono witness.  6b checks that
they are seen on both verdicts across the presheaf-ez certificate: True on
the corpus and False on the witness.  The corpus alone cannot hold a False
verdict, because the truncations it is drawn from are elegant Reedy
categories, so every presheaf over them is Reedy monomorphic; its
`both-verdicts-occur-in-corpus` check therefore stays `fail`, and 6b
treats a False verdict there as a fault.
"""

import json
from pathlib import Path

import pytest

from reedylab.suites import SUITES, SuiteConfig, _built, run_suite

GOLDEN = Path(__file__).with_name("golden_certificates.json")


@pytest.fixture(scope="module")
def certs():
    return {name: run_suite(SuiteConfig(suite=name)) for name in SUITES}


def _line(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")


def _check(cert, cid):
    return next(c for c in cert.checks if c.id == cid)


def test_criterion_01_hom_counts(certs):
    cert = certs["hom-counts"]
    ok = cert.passed
    for (m, n), want in {(1, 1): 3, (2, 1): 5, (3, 1): 9, (1, 2): 9}.items():
        c = _check(cert, f"formula-matches-enumeration-{m}-{n}")
        ok = ok and c.count == want
    _line(1, "hom counts, two independent routes", ok)
    assert ok


def test_criterion_02_dedekind_counts(certs):
    cert = certs["hom-counts"]
    ok = (
        _check(cert, "monotone-count-into-interval-2").count == 6
        and _check(cert, "monotone-count-into-interval-3").count == 20
        and cert.passed
    )
    _line(2, "Dedekind counts 6 and 20", ok)
    assert ok


def test_criterion_03_pre_elegance(certs):
    cert = certs["pre-elegance"]
    ok = cert.passed and cert.duration < 5.0
    _line(3, f"pre-elegance suite exhaustive ({cert.duration:.2f}s < 5s)", ok)
    assert cert.passed
    assert cert.duration < 5.0


def test_criterion_04_elegant_core(certs):
    cert = certs["elegant-core"]
    ok = cert.passed and _check(cert, "at-least-nine-classes").count >= 9
    _line(4, "elegant-core triple agreement over all classes <= 4", ok)
    assert ok


def test_criterion_05_relative_elegance(certs):
    cert = certs["relative-elegance"]
    ok = cert.passed
    _line(5, "cube and simplex homs preserve all lowering pushouts <= 4", ok)
    assert ok


def test_criterion_06a_triple_equivalence(certs):
    cert = certs["presheaf-ez"]
    a = _check(cert, "triple-criteria-agree-exhaustive-size2")
    b = _check(cert, "triple-criteria-agree-seeded-size3")
    w = _check(cert, "non-mono-witness-all-three-criteria-false")
    ok = (
        a.status == "pass"
        and b.status == "pass"
        and b.count >= 200
        and w.status == "pass"
    )
    _line(6, "EZ/latching triple equivalence on the corpus", ok)
    assert ok


def test_criterion_06b_verdict_coverage(certs):
    cert = certs["presheaf-ez"]
    corpus = _check(cert, "both-verdicts-occur-in-corpus")
    exhaustive = _check(cert, "triple-criteria-agree-exhaustive-size2")
    seeded = _check(cert, "triple-criteria-agree-seeded-size3")
    witness = _check(cert, "non-mono-witness-all-three-criteria-false")
    if corpus.status == "pass":
        # the check passes only when both verdicts occur in the corpus
        seen = ["False", "True"]
    else:
        seen = (corpus.witness or {}).get("verdicts-seen", [])
    size = exhaustive.count + seeded.count

    failed = []
    if not ("True" in seen and corpus.count == size > 0):
        failed.append(
            f"true verdict on the corpus: verdicts {seen} over "
            f"{corpus.count} presheaves, expected True over {size} > 0"
        )
    if [v for v in seen if v != "True"]:
        failed.append(
            f"no false verdict on the corpus: verdicts {seen}, but every "
            "object of size <= 3 is perfectly presentable and the size-2, "
            "3 and 4 truncations are elegant "
            "(tests/test_elegance.py::test_small_truncations_are_elegant), "
            "so every presheaf over them is Reedy monomorphic"
        )
    if witness.status != "pass":
        failed.append(
            "false verdict on the witness: over the pinched tripod cover "
            f"the three criteria gave {witness.witness}, expected all False"
        )
    ok = not failed
    _line(6, "verdict True on the corpus, False on the non-mono witness", ok)
    assert ok, "; ".join(failed)


def test_criterion_07_latching_two_ways(certs):
    cert = certs["presheaf-ez"]
    routes = _check(cert, "latching-two-routes-agree")
    rep = _check(cert, "representable-latching-size-and-injectivity")
    ok = routes.status == "pass" and rep.status == "pass" and rep.count == 7
    _line(7, "latching two ways, representable count 7", ok)
    assert ok


def test_criterion_08_cell_presentation(certs):
    cert = certs["cell-presentation"]
    ok = cert.passed
    _line(8, "cell squares and skeleton chains on the corpus", ok)
    assert ok


def test_criterion_09_idempotent_completion(certs):
    cert = certs["idempotent-completion"]
    ok = cert.passed
    _line(9, "idempotent splitting and cube retracts", ok)
    assert ok


def test_criterion_10_obstruction_u(certs):
    cert = certs["obstruction-u"]
    ok = cert.passed and cert.duration < 1.0
    _line(10, f"3-cube endomap obstruction ({cert.duration:.2f}s < 1s)", ok)
    assert cert.passed
    assert cert.duration < 1.0


def test_criterion_11_crown_winding(certs):
    cert = certs["crown-winding"]
    ok = cert.passed
    _line(11, "crown windings, multiplicativity, extension pullbacks", ok)
    assert ok


def test_criterion_12_sieve_chain(certs):
    cert = certs["sieve-chain"]
    ok = cert.passed and cert.duration < 30.0
    _line(12, f"sieve chain non-stabilization ({cert.duration:.2f}s < 30s)", ok)
    assert cert.passed
    assert cert.duration < 30.0


def test_criterion_13_triangulation(certs):
    cert = certs["triangulation"]
    ok = cert.passed
    _line(13, "triangulation counts and product comparison", ok)
    assert ok


def test_criterion_14_determinism(certs):
    # the second pass builds its inputs afresh, so two independent builds
    # are compared, not one build read twice
    _built.cache_clear()
    mismatches = []
    for name, first in certs.items():
        second = run_suite(SuiteConfig(suite=name))
        if first.json_text(False) != second.json_text(False):
            mismatches.append(name)
    ok = not mismatches
    _line(14, "byte-identical certificates on re-run", ok)
    assert ok, mismatches


def test_certificates_match_golden(certs):
    """Every certificate at default flags, without its duration, is
    byte-identical to the one recorded in golden_certificates.json.

    A change that alters a certificate on purpose regenerates the file
    from the root of the repository and says in CHANGES.md which checks
    changed and why:

        PYTHONPATH=src python - <<'EOF'
        import json
        from reedylab.suites import SUITES, SuiteConfig, run_suite
        golden = {
            name: json.loads(run_suite(SuiteConfig(suite=name)).json_text(False))
            for name in SUITES
        }
        with open("tests/golden_certificates.json", "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\\n")
        EOF
    """
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(certs)
    changed = [
        name
        for name, cert in certs.items()
        if json.dumps(golden[name], indent=2, sort_keys=True) != cert.json_text(False)
    ]
    assert changed == [], changed
