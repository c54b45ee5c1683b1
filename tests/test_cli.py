import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reedylab.certificates import PASS, Certificate, Check
from reedylab.cli import _parser, main
from reedylab.cubes import cube
from reedylab.dot import crown_dot, semilattice_dot
from reedylab.obstruction import CrownPoset
from reedylab.semilattice import all_semilattices_upto, chain
from reedylab.suites import SUITES, SuiteConfig, _built, run_suite


def test_every_suite_registered():
    assert set(SUITES) == {
        "reedy-axioms",
        "pre-elegance",
        "elegant-core",
        "relative-elegance",
        "presheaf-ez",
        "cell-presentation",
        "idempotent-completion",
        "triangulation",
        "obstruction-u",
        "crown-winding",
        "sieve-chain",
        "hom-counts",
    }


def test_unknown_suite_raises():
    from reedylab.errors import UnknownSuite

    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nope"))


def test_cli_suite_exit_codes(capsys):
    assert main(["obstruction-u"]) == 0
    out = capsys.readouterr().out
    blob = json.loads(out)
    assert blob["suite"] == "obstruction-u"
    assert all(c["status"] == "pass" for c in blob["checks"])


def test_cli_markdown_format(capsys):
    assert main(["sieve-chain", "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert "| check | status |" in out


def test_cli_failing_suite_exits_one(capsys):
    # the presheaf-ez suite carries the honest red verdict-coverage check
    assert main(["presheaf-ez", "--corpus-count", "25"]) == 1
    blob = json.loads(capsys.readouterr().out)
    failing = [c for c in blob["checks"] if c["status"] == "fail"]
    assert [c["id"] for c in failing] == ["both-verdicts-occur-in-corpus"]


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


# the options each suite subcommand accepts besides --out and --format
SUITE_FLAGS = {
    "hom-counts": {"--cube-dim", "--budget"},
    "triangulation": {"--cube-dim", "--budget"},
    "reedy-axioms": {"--max-size", "--budget"},
    "pre-elegance": {"--max-size", "--budget"},
    "elegant-core": {"--max-size", "--budget"},
    "relative-elegance": {"--max-size", "--cube-dim", "--budget"},
    "idempotent-completion": {"--max-size", "--cube-dim", "--budget"},
    "presheaf-ez": {"--max-size", "--budget", "--seed", "--corpus-count"},
    "cell-presentation": {"--max-size", "--budget", "--seed", "--corpus-count"},
    "obstruction-u": {"--budget"},
    "crown-winding": set(),
    "sieve-chain": set(),
}
ALL_FLAGS = set().union(*SUITE_FLAGS.values())


def _accepted_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    return set(re.findall(r"--[a-z-]+", usage)) - {"--help", "--out", "--format"}


def test_each_suite_accepts_exactly_the_options_it_reads(capsys):
    assert {name: _accepted_flags(name, capsys) for name in SUITES} == SUITE_FLAGS
    assert len(ALL_FLAGS) == 5 and _accepted_flags("all", capsys) == ALL_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve-chain", "--budget", "1"],
        ["crown-winding", "--seed", "3"],
        ["hom-counts", "--max-size", "4"],
        ["reedy-axioms", "--cube-dim", "2"],
        ["obstruction-u", "--corpus-count", "5"],
        ["elegant-core", "--cube-dim", "2"],
    ],
)
def test_an_option_the_suite_does_not_read_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _parsed(parse, argv, capsys):
    """The exit code, standard output and standard error of one parse."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


COMMANDS = [*sorted(SUITES), "all", "export-dot", "cube", "obstruct"]


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["nope"], ["nope", "--help"]]
    + [[command, "--help"] for command in COMMANDS]
    + [["cube", "homcount", "--help"], ["cube", "triangulate", "--help"]]
    + [["obstruct", "crown", "--help"], ["cube"], ["obstruct", "nope"]]
    + [[command, "--no-such-flag"] for command in COMMANDS],
)
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    # main builds only the named command's subparser; help, usage and
    # error texts and exit codes are those of the parser with every one
    full = _parsed(_parser().parse_args, argv, capsys)
    assert _parsed(main, argv, capsys) == full
    assert full[0] == (0 if "--help" in argv and argv[0] != "nope" else 2)


def test_all_passes_every_option_to_every_suite(monkeypatch, capsys):
    import reedylab.cli as cli

    configs = []

    def record(cfg):
        configs.append(cfg)
        return Certificate(cfg.suite, [Check("c", PASS, 1)])

    monkeypatch.setattr(cli, "run_suite", record)
    argv = ["--max-size", "2", "--cube-dim", "1"]
    argv += ["--budget", "1000", "--seed", "3", "--corpus-count", "5"]
    assert main(["all", *argv]) == 0
    assert len(json.loads(capsys.readouterr().out)) == len(SUITES)
    assert [cfg.suite for cfg in configs] == list(SUITES)
    assert {
        (cfg.max_size, cfg.cube_dim, cfg.budget, cfg.seed, cfg.corpus_count)
        for cfg in configs
    } == {(2, 1, 1000, 3, 5)}


def test_cli_cube_and_obstruct(capsys):
    assert main(["cube", "homcount", "--m", "3", "--n", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["formula"] == blob["enumerated"] == 9
    assert main(["cube", "triangulate", "--n", "1", "--dim", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["levels"] == [2, 3, 4]
    assert main(["obstruct", "crown", "--m", "3", "--n", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["count"] == 304 and blob["windings"] == {"0": 304}


def test_cli_export_dot(tmp_path, capsys):
    src = tmp_path / "square.json"
    src.write_text(json.dumps({"join": [list(row) for row in cube(2).join]}))
    assert main(["export-dot", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.count("->") == 4 and out.count("label=") == 4
    src2 = tmp_path / "crown.json"
    src2.write_text(json.dumps({"crown": 4}))
    dest = tmp_path / "crown.dot"
    assert main(["export-dot", "--input", str(src2), "--out", str(dest)]) == 0
    text = dest.read_text()
    assert text.count("->") == 8


def _category_document(path, objects):
    path.write_text(json.dumps({"objects": [{"join": [list(r) for r in A.join]} for A in objects]}))
    return str(path)


def test_cli_export_category_dot(tmp_path, capsys):
    src = _category_document(tmp_path / "category.json", [chain(1), chain(2)])
    assert main(["export-dot", "--input", src]) == 0
    assert capsys.readouterr().out == (
        'digraph "category" {\n'
        '  n0 [label="#0 (size 1)"];\n'
        '  n1 [label="#1 (size 2)"];\n'
        '  n0 -> n0 [label="1"];\n'
        '  n0 -> n1 [label="2"];\n'
        '  n1 -> n0 [label="1"];\n'
        '  n1 -> n1 [label="3"];\n'
        "}\n"
    )


def test_cli_export_category_dot_needs_only_hom_set_sizes(tmp_path, capsys):
    # the 24 classes of size <= 5 have 10,049,264 composable pairs among
    # their first 407 hom-sets, more than the default budget, but the DOT
    # reads only the sizes of the 576 hom-sets
    objects = all_semilattices_upto(5)
    assert len(objects) == 24
    src = _category_document(tmp_path / "five.json", objects)
    assert main(["export-dot", "--input", src]) == 0
    assert capsys.readouterr().out.count("->") == 576


@pytest.mark.parametrize(
    "content",
    [
        None,
        "{not json",
        json.dumps({"unknown": 1}),
        json.dumps([1, 2]),
        json.dumps({"crown": "x"}),
        json.dumps({"crown": 1}),
        json.dumps({"join": 5}),
        json.dumps({"join": [[0, 1], [1, 1]], "labels": 3}),
        json.dumps({"join": [[0, 1], [1, 1]], "labels": ["a"]}),
        json.dumps({"join": [[0, 1], [1, 1]], "labels": [1, None]}),
        json.dumps({"join": [[0, 1], [1, 1]], "labels": "ab"}),
        json.dumps({"objects": 3}),
    ],
    ids=[
        "missing-file",
        "malformed-json",
        "unknown-shape",
        "not-an-object",
        "crown-not-an-integer",
        "crown-too-small",
        "join-not-a-table",
        "labels-not-a-list",
        "labels-too-short",
        "labels-not-strings",
        "labels-a-string",
        "objects-not-a-list",
    ],
)
def test_cli_export_dot_bad_input_exits_two(content, tmp_path, capsys):
    src = tmp_path / "input.json"
    if content is not None:
        src.write_text(content)
    assert main(["export-dot", "--input", str(src)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_cli_all_json_is_one_array(monkeypatch, capsys):
    import reedylab.cli as cli

    fast = ("sieve-chain", "obstruction-u")
    monkeypatch.setattr(cli, "SUITES", {name: SUITES[name] for name in fast})
    assert main(["all"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert [cert["suite"] for cert in blob] == list(fast)
    assert all(c["status"] == "pass" for cert in blob for c in cert["checks"])


def test_cli_export_dot_labels(tmp_path, capsys):
    # one label per element, with quote and backslash escaped
    src = tmp_path / "chain.json"
    src.write_text(json.dumps({"join": [[0, 1], [1, 1]], "labels": ["bot", 'a "b" \\ c']}))
    assert main(["export-dot", "--input", str(src)]) == 0
    assert capsys.readouterr().out == (
        'digraph "semilattice" {\n'
        "  rankdir=BT;\n"
        '  n0 [label="bot"];\n'
        '  n1 [label="a \\"b\\" \\\\ c"];\n'
        "  n0 -> n1;\n"
        "}\n"
    )


def test_dot_shapes_directly():
    assert semilattice_dot(chain(1), ["0"]).count("->") == 0
    dot = semilattice_dot(cube(2), ["00", "10", "01", "11"])
    assert dot.count("->") == 4
    assert crown_dot(CrownPoset(4)).count("->") == 8


def test_suite_output_file(tmp_path):
    dest = tmp_path / "cert.json"
    assert main(["hom-counts", "--out", str(dest)]) == 0
    blob = json.loads(dest.read_text())
    assert blob["suite"] == "hom-counts"


def test_certificates_echo_config():
    # the suite name and exactly the options its factory reads, as run
    cert = run_suite(SuiteConfig(suite="sieve-chain", seed=5))
    assert cert.config == {"suite": "sieve-chain"}
    cert = run_suite(SuiteConfig(suite="idempotent-completion", cube_dim=1, budget=10**6))
    assert cert.config == {
        "suite": "idempotent-completion",
        "max_size": 4,
        "cube_dim": 1,
        "budget": 10**6,
    }


def test_triangulation_honors_the_budget(capsys):
    # the search for the maps from the 3-element chain into the square
    # tries 21 candidates
    assert main(["triangulation", "--budget", "20"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert [(c["id"], c["status"]) for c in blob["checks"]] == [
        ("triangulation", "skipped")
    ]
    assert "exceed budget 20" in blob["checks"][0]["witness"]


def test_budget_overrun_becomes_skipped():
    # the u-image task reads no budget; the factorization search overruns
    # a microscopic one and becomes one skipped check, not a crash
    cert = run_suite(SuiteConfig(suite="obstruction-u", budget=1))
    assert [(c.id, c.status) for c in cert.checks] == [
        ("image-has-five-elements", "pass"),
        ("image-is-the-diamond", "pass"),
        ("image-not-distributive", "pass"),
        ("u-factorization", "skipped"),
    ]
    assert "exceed budget 1" in cert.checks[-1].witness


def test_factory_overrun_becomes_one_skipped_check(capsys):
    # the truncated category is built by the suite factory, before any
    # task; the memo stores no failed build, so every run overruns again
    _built.cache_clear()
    for _ in range(2):
        assert main(["reedy-axioms", "--budget", "10"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert [(c["id"], c["status"]) for c in blob["checks"]] == [
            ("reedy-axioms", "skipped")
        ]
        assert "exceed budget 10" in blob["checks"][0]["witness"]
    assert _built.cache_info().currsize == 0


def test_oversized_truncation_is_skipped_by_its_pair_count(capsys):
    # every hom-set of the size-4 truncation has at most 4^4 candidates,
    # but its 147,097 composable pairs exceed the budget
    assert main(["reedy-axioms", "--max-size", "4", "--budget", "100000"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert [(c["id"], c["status"]) for c in blob["checks"]] == [
        ("reedy-axioms", "skipped")
    ]
    assert "composable pairs" in blob["checks"][0]["witness"]


@pytest.mark.parametrize("size", [1, 2])
def test_presheaf_ez_below_size_three_is_skipped(size, capsys):
    assert main(["presheaf-ez", "--max-size", str(size), "--corpus-count", "5"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert [(c["id"], c["status"]) for c in blob["checks"]] == [
        ("presheaf-ez", "skipped")
    ]
    assert "max_size >= 3" in blob["checks"][0]["witness"]


@pytest.mark.parametrize(
    "argv",
    [
        ["hom-counts", "--cube-dim", "-1"],
        ["reedy-axioms", "--max-size", "0"],
        ["hom-counts", "--budget", "0"],
        ["presheaf-ez", "--corpus-count", "-1"],
        ["cube", "homcount", "--m", "-1", "--n", "1"],
        ["cube", "triangulate", "--n", "1", "--dim", "-1"],
        ["obstruct", "crown", "--m", "0", "--n", "3"],
        ["hom-counts", "--cube-dim", "4"],
    ],
)
def test_out_of_range_input_exits_two(argv, capsys):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_config_validation_survives_optimized_mode():
    code = (
        "from reedylab.errors import InvalidInput\n"
        "from reedylab.suites import SuiteConfig\n"
        "try:\n"
        "    SuiteConfig(suite='hom-counts', budget=0)\n"
        "except InvalidInput:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def test_importing_the_cli_loads_neither_numpy_nor_the_presheaf_layer():
    # the benchmark's setup_s is the time of this import
    code = (
        "import sys\n"
        "import reedylab.cli\n"
        "loaded = {'numpy', 'reedylab.kernel', 'reedylab.presheaf'} & set(sys.modules)\n"
        "raise SystemExit(sorted(loaded) or 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cube_and_obstruction_suites_run_without_numpy():
    # these suites build no truncated category, so nothing they run needs
    # numpy, and the cubes-obstructions workload's peak memory stays low
    suites = [
        "hom-counts",
        "obstruction-u",
        "crown-winding",
        "sieve-chain",
        "idempotent-completion",
        "triangulation",
        "elegant-core",
    ]
    code = (
        "import os, sys\n"
        "from reedylab.cli import main\n"
        f"codes = [main([name, '--out', os.devnull]) for name in {suites!r}]\n"
        "loaded = {'numpy', 'reedylab.kernel', 'reedylab.presheaf'} & set(sys.modules)\n"
        "raise SystemExit(sorted(loaded) or any(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cell_square_failure_is_not_a_skeleton_chain_failure(monkeypatch):
    import reedylab.presheaf as presheaf

    real = presheaf.verify_cell_square

    def failing_at_degree_two(corpus, data, degrees, latching):
        return [
            {n: dataclasses.replace(rep, cell_mono=False) if n == 2 else rep for n, rep in by.items()}
            for by in real(corpus, data, degrees, latching)
        ]

    monkeypatch.setattr(presheaf, "verify_cell_square", failing_at_degree_two)
    cert = run_suite(SuiteConfig(suite="cell-presentation", corpus_count=5))
    checks = {c.id: c for c in cert.checks}
    for tag in ("exhaustive-size2", "seeded-size3"):
        square = checks[f"cell-squares-certify-{tag}"]
        assert square.status == "fail" and square.witness["degree"] == 2
        chain = checks[f"skeleton-chain-unions-{tag}"]
        assert chain.status == "pass" and chain.witness is None


def _stubbed_cell_squares(monkeypatch, fail_at, raise_at):
    """verify_cell_square with, in every corpus of at least four
    presheaves, a failed cell report at (presheaf, degree position)
    fail_at and a skeleton-landing law at raise_at, degrees by their
    position in increasing order."""
    import reedylab.presheaf as presheaf
    from reedylab.errors import ViolatedLaw

    real = presheaf.verify_cell_square

    def stubbed(corpus, data, degrees, latching):
        outcomes = real(corpus, data, degrees, latching)
        if len(corpus) >= 4:
            degs = sorted(set(data.degree))
            (i, d), (j, e) = fail_at, raise_at
            outcomes[i][degs[d]] = dataclasses.replace(outcomes[i][degs[d]], commutes=False)
            outcomes[j][degs[e]] = ViolatedLaw("skeleton-landing", (degs[e], 0, "left"))
        return outcomes

    monkeypatch.setattr(presheaf, "verify_cell_square", stubbed)
    return run_suite(SuiteConfig(suite="cell-presentation", corpus_count=5))


def test_cell_square_outcomes_replay_in_walk_order(monkeypatch):
    # presheaf 1 fails its report at its second degree and presheaf 3
    # breaks a law at its first: presheaf by presheaf, then degree by
    # degree, the walk stops at the report, after 1 * 2 + 2 squares of
    # the size-2 base's two degrees
    cert = _stubbed_cell_squares(monkeypatch, fail_at=(1, 1), raise_at=(3, 0))
    square = {c.id: c for c in cert.checks}["cell-squares-certify-exhaustive-size2"]
    assert square.status == "fail" and square.count == 4
    assert square.witness == {"index": 1, "degree": 2, "report": [False, True, True]}


def test_an_earlier_presheaf_law_stops_the_walk_before_a_later_report(monkeypatch):
    # presheaf 1 breaks a law at its second degree, presheaf 3 fails its
    # report at its first: the law is reached first and ends the task
    cert = _stubbed_cell_squares(monkeypatch, fail_at=(3, 0), raise_at=(1, 1))
    assert [(c.id, c.status) for c in cert.checks] == [("cell-presentation", "fail")]
    assert cert.checks[0].witness == {"law": "skeleton-landing", "witness": (2, 0, "left")}


@pytest.mark.parametrize("suite", ["presheaf-ez", "cell-presentation"])
def test_presheaf_suites_are_the_same_under_a_small_chunk_cap(monkeypatch, request, suite):
    # a seeded presheaf other than the empty one has more than 64 action
    # entries, so each gets a chunk of its own, and the outcomes run
    # across chunks; the memo is emptied so that the corpora are laid out
    # under the cap, and again afterwards, so that no later test reads them
    from reedylab import kernel
    from reedylab.suites import _corpus

    cfg = SuiteConfig(suite=suite)
    default = run_suite(cfg).json_text(False)
    monkeypatch.setattr(kernel, "CHUNK", 64)
    _built.cache_clear()
    request.addfinalizer(_built.cache_clear)
    assert run_suite(cfg).json_text(False) == default
    seeded = _corpus(3, cfg.budget, cfg.seed, cfg.corpus_count)[1][3]
    # the empty presheaf shares the chunk of the presheaf after it
    assert len(seeded) == 213 and len(seeded.chunks) == 212
    for part, _ in seeded.chunks:
        assert sum(len(seeded.presheaves[k].values) > 0 for k in part) == 1


def test_autquo_failure_reports_the_first_failing_subgroup(monkeypatch):
    import reedylab.presheaf as presheaf

    real_autquo, real_mono = presheaf.autquo, presheaf.is_reedy_mono
    real_latching, real_injective = presheaf.latching_objects, presheaf.latching_injective
    made = []  # (quotient, object, subgroup order), one per autquo call
    corpus_of = {}  # id of a corpus's latching outcomes -> (them, the corpus)
    injective_of = {}  # id of a presheaf's injectivity verdicts -> (them, the presheaf)

    def recording_autquo(cat, r, H):
        Q, proj = real_autquo(cat, r, H)
        made.append((Q, r, len(H)))
        return Q, proj

    def recording_latching(corpus, data):
        outcomes = real_latching(corpus, data)
        corpus_of[id(outcomes)] = (outcomes, corpus)
        return outcomes

    def recording_injective(latching):
        verdicts = real_injective(latching)
        _, corpus = corpus_of[id(latching)]
        for X, injective in zip(corpus, verdicts):
            injective_of[id(injective)] = (injective, X)
        return verdicts

    def failing_from_the_second_autquo(injective):
        _, X = injective_of[id(injective)]
        if any(X is Q for Q, _, _ in made[1:]):
            return False
        return real_mono(injective)

    # a corpus without automorphism quotients, so every autquo call is
    # one case of the check
    monkeypatch.setattr(
        presheaf,
        "seeded_corpus",
        lambda cat, data, seed, count: presheaf.Corpus.of(cat, [presheaf.representable(cat, 0)]),
    )
    monkeypatch.setattr(presheaf, "autquo", recording_autquo)
    monkeypatch.setattr(presheaf, "latching_objects", recording_latching)
    monkeypatch.setattr(presheaf, "latching_injective", recording_injective)
    monkeypatch.setattr(presheaf, "is_reedy_mono", failing_from_the_second_autquo)
    cert = run_suite(SuiteConfig(suite="presheaf-ez"))
    (check,) = [c for c in cert.checks if c.id == "autquos-reedy-monomorphic"]
    _, r, order = made[1]
    assert (check.status, check.count) == ("fail", 2)
    assert check.witness == {"object": r, "subgroup": order}


# ---------------------------------------------------------------------------
# a broken certified fact is one failed check naming its law
# ---------------------------------------------------------------------------


def _law_failure(cert, cid, law):
    (check,) = [c for c in cert.checks if c.id == cid]
    assert check.status == "fail" and check.witness["law"] == law
    assert "witness" in check.witness
    json.dumps(check.witness)
    assert not cert.passed


def test_ill_defined_latching_map_is_a_failed_check(monkeypatch):
    from presheaf_reference import with_value

    import reedylab.presheaf as presheaf

    def corrupted_corpus(cat, data, seed, count):
        # one value of one action moved: the presheaf is no longer a
        # functor, so its latching map is ill-defined on some class
        yo = presheaf.representable(cat, len(cat.objects) - 1)
        f = next(
            f for f in cat.morphisms() if not cat.is_identity(f) and yo.levels[cat.dom(f)] >= 2
        )
        bad = with_value(yo, f, 0, (yo.action(f)[0] + 1) % yo.levels[cat.dom(f)])
        return presheaf.Corpus.of(cat, [bad])

    # a clean run first, so the memo holds the real corpus when the
    # patched builder is looked up, and again once the patch is undone
    clean = run_suite(SuiteConfig(suite="presheaf-ez")).json_text(False)
    monkeypatch.setattr(presheaf, "seeded_corpus", corrupted_corpus)
    cert = run_suite(SuiteConfig(suite="presheaf-ez"))
    _law_failure(cert, "presheaf-ez", "well-definedness")
    monkeypatch.undo()
    assert run_suite(SuiteConfig(suite="presheaf-ez")).json_text(False) == clean


def test_ill_defined_lowering_pushout_join_is_a_failed_check(monkeypatch):
    import reedylab.semilattice as semilattice

    real = semilattice.least_above

    # pre-elegance's set-versus-congruence check reads the congruence
    # quotient off its closed elements through least_above; sending every
    # element to the top is no closure onto them, so the quotient's join
    # table breaks a semilattice law at the first apex of two elements
    def to_the_top(A, S):
        return None if real(A, S) is None else (A.top,) * A.size

    # a clean run first, so that the memo holds the truncation, whose
    # classes are grown through least_above too
    clean = run_suite(SuiteConfig(suite="pre-elegance")).json_text(False)
    monkeypatch.setattr(semilattice, "least_above", to_the_top)
    cert = run_suite(SuiteConfig(suite="pre-elegance"))
    _law_failure(cert, "pre-elegance", "idempotence")
    (check,) = [c for c in cert.checks if c.id == "pre-elegance"]
    assert check.witness == {"law": "idempotence", "witness": (1,)}
    assert [c.id for c in cert.checks if c.status == "fail"] == ["pre-elegance"]
    monkeypatch.undo()
    assert run_suite(SuiteConfig(suite="pre-elegance")).json_text(False) == clean


def test_missing_ez_decomposition_is_a_failed_check(monkeypatch):
    import reedylab.presheaf as presheaf

    real = presheaf._ez_tables

    def undecomposed(corpus, data):
        # every chunk's EZ table without its decompositions
        for chunk, element, e, y in real(corpus, data):
            yield chunk, element[:0], e[:0], y[:0]

    monkeypatch.setattr(presheaf, "_ez_tables", undecomposed)
    cert = run_suite(SuiteConfig(suite="cell-presentation", corpus_count=0))
    _law_failure(cert, "cell-presentation", "ez-existence")


def test_verdict_coverage_counts_the_presheaves_reached(monkeypatch):
    import reedylab.presheaf as presheaf

    # the EZ criterion disagrees on every presheaf, so each triple sweep
    # stops at index 0 and only two verdicts are gathered
    monkeypatch.setattr(presheaf, "has_unique_ez", lambda corpus, data: [(None, None)] * len(corpus))
    cert = run_suite(SuiteConfig(suite="presheaf-ez", corpus_count=5))
    check = next(c for c in cert.checks if c.id == "both-verdicts-occur-in-corpus")
    assert (check.status, check.count) == ("fail", 2)
    assert check.witness["verdicts-seen"] == ["True"]


def test_presheaf_verdicts_run_once_per_corpus_chunk(monkeypatch):
    import reedylab.presheaf as presheaf
    from reedylab.suites import _corpus

    real, calls = presheaf.square_pullbacks, []

    def counting(cat, squares, action):
        calls.append(len(squares))
        return real(cat, squares, action)

    monkeypatch.setattr(presheaf, "square_pullbacks", counting)
    cfg = SuiteConfig(suite="presheaf-ez")
    checks = {c.id: c for c in run_suite(cfg).checks}
    assert checks["triple-criteria-agree-seeded-size3"].count == 213
    # one call per chunk of the exhaustive and the seeded corpora, and one
    # for the non-mono witness, where there were 220 calls, one per presheaf
    corpora = [entry[3] for entry in _corpus(3, cfg.budget, cfg.seed, cfg.corpus_count)[:2]]
    expected = sum(len(corpus.chunks) for corpus in corpora)
    assert len(calls) == expected + 1 < 20


def test_no_corpus_routine_assembles_a_chunk(monkeypatch):
    # presheaf-ez and then cell-presentation from an empty memo: chunks
    # are assembled where a corpus is laid out or a coproduct taken, and
    # every corpus routine reads its corpus's own chunks
    from collections import Counter

    import numpy as np

    import reedylab.presheaf as presheaf
    from reedylab.suites import _corpus

    real, callers = presheaf._Chunk.of.__func__, Counter()

    def counting(cls, cat, parts):
        callers[sys._getframe(1).f_code.co_qualname] += 1
        return real(cls, cat, parts)

    monkeypatch.setattr(presheaf._Chunk, "of", classmethod(counting))
    _built.cache_clear()
    for suite in ("presheaf-ez", "cell-presentation"):
        run_suite(SuiteConfig(suite=suite))
    assert set(callers) == {"Corpus.of", "coproduct_presheaf"}
    # the members of the shared corpora with action entries are views
    # into their chunks
    cfg = SuiteConfig(suite="presheaf-ez")
    for *_, corpus in _corpus(3, cfg.budget, cfg.seed, cfg.corpus_count)[:2]:
        for part, chunk in corpus.chunks:
            members = [corpus.presheaves[k].values for k in part]
            assert all(np.shares_memory(v, chunk.values) for v in members if len(v))


def test_unforced_composite_lift_step_is_a_failed_check(monkeypatch):
    import reedylab.obstruction as obstruction

    real = obstruction.enumerate_crown_maps

    def with_a_non_monotone_map(m, n):
        maps = real(m, n)
        if (m, n) == (3, 3):
            ident = obstruction.identity_crown(3)
            maps.append(obstruction.CrownMap(3, 3, (0, 2, 0, 2, 0, 2), ident.lift))
        return maps

    monkeypatch.setattr(obstruction, "enumerate_crown_maps", with_a_non_monotone_map)
    cert = run_suite(SuiteConfig(suite="crown-winding"))
    _law_failure(cert, "wind-properties", "forced-lift-step")


def test_seeded_corpus_label_follows_max_size(monkeypatch):
    import reedylab.presheaf as presheaf

    monkeypatch.setattr(
        presheaf,
        "seeded_corpus",
        lambda cat, data, seed, count: presheaf.Corpus.of(cat, [presheaf.representable(cat, 0)]),
    )
    ids = {
        c.id
        for suite in ("presheaf-ez", "cell-presentation")
        for c in run_suite(SuiteConfig(suite=suite, max_size=4)).checks
    }
    assert {
        "triple-criteria-agree-seeded-size4",
        "cell-squares-certify-seeded-size4",
        "skeleton-chain-unions-seeded-size4",
    } <= ids
    assert not any("seeded-size3" in cid for cid in ids)


# ---------------------------------------------------------------------------
# the suite input memo
# ---------------------------------------------------------------------------


def _counted(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counting(*args):
        counts[name] = counts.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def test_presheaf_suites_build_each_input_once(monkeypatch):
    import reedylab.presheaf as presheaf
    import reedylab.reedy as reedy

    counts = {}
    _counted(monkeypatch, reedy, "reedy_category_on", counts)
    _counted(monkeypatch, presheaf, "seeded_corpus", counts)
    _counted(monkeypatch, presheaf, "non_reedy_mono_example", counts)
    _built.cache_clear()
    for suite in ("presheaf-ez", "cell-presentation"):
        run_suite(SuiteConfig(suite=suite))
    # the size-2 and size-3 truncations and the witness's base category
    assert counts == {"reedy_category_on": 3, "seeded_corpus": 1, "non_reedy_mono_example": 1}


def test_the_generators_are_walked_once_per_base(monkeypatch):
    from reedylab import kernel

    real, walked = kernel.generators, []

    def counting(cat):
        walked.append(cat)
        return real(cat)

    monkeypatch.setattr(kernel, "generators", counting)
    _built.cache_clear()
    for suite in ("presheaf-ez", "cell-presentation"):
        run_suite(SuiteConfig(suite=suite))
    # the size-2 and size-3 truncations and the witness's base category
    assert len(walked) == len({id(cat) for cat in walked}) == 3


def test_truncation_suites_build_the_truncation_once(monkeypatch):
    import reedylab.reedy as reedy

    counts = {}
    _counted(monkeypatch, reedy, "reedy_category_on", counts)
    _built.cache_clear()
    for suite in ("reedy-axioms", "pre-elegance", "relative-elegance"):
        assert run_suite(SuiteConfig(suite=suite, max_size=4)).passed
    assert counts == {"reedy_category_on": 1}


def test_truncation_suites_run_the_axiom_checks_once(monkeypatch):
    import reedylab.reedy as reedy

    counts = {}
    _counted(monkeypatch, reedy, "certify_reedy_axioms", counts)
    _counted(monkeypatch, reedy, "certify_cancellation", counts)
    _built.cache_clear()
    for suite in ("reedy-axioms", "pre-elegance"):
        assert run_suite(SuiteConfig(suite=suite)).passed
    assert counts == {"certify_reedy_axioms": 1, "certify_cancellation": 1}


def test_suites_leave_their_shared_inputs_as_they_found_them():
    # every suite twice over one warm memo: a suite that wrote into an
    # input it shares would change a later certificate
    _built.cache_clear()
    first = [run_suite(SuiteConfig(suite=name)).json_text(False) for name in SUITES]
    built = _built.cache_info().misses
    second = [run_suite(SuiteConfig(suite=name)).json_text(False) for name in SUITES]
    assert _built.cache_info().misses == built
    assert second == first


# ---------------------------------------------------------------------------
# each hom-set and each latching object once per suite run
# ---------------------------------------------------------------------------

# the suites of the cubes-obstructions benchmark workload, and those of
# them that enumerate no hom-set
CUBE_SUITES = (
    "hom-counts",
    "obstruction-u",
    "crown-winding",
    "sieve-chain",
    "idempotent-completion",
    "triangulation",
    "elegant-core",
)
NO_HOM_SETS = {"crown-winding", "sieve-chain"}


@pytest.mark.parametrize("suite", CUBE_SUITES)
def test_no_hom_set_is_enumerated_twice_in_a_suite_run(monkeypatch, suite):
    import importlib
    import pkgutil

    import reedylab
    from reedylab import semilattice

    real, calls = semilattice.enumerate_homs, {}

    def counting(A, B, budget=semilattice.DEFAULT_CANDIDATE_BUDGET):
        calls[A, B] = calls.get((A, B), 0) + 1
        return real(A, B, budget)

    # every module that binds the function by name, the package included
    modules = [reedylab] + [
        importlib.import_module(f"reedylab.{info.name}")
        for info in pkgutil.iter_modules(reedylab.__path__)
    ]
    for module in modules:
        if getattr(module, "enumerate_homs", None) is real:
            monkeypatch.setattr(module, "enumerate_homs", counting)
    assert run_suite(SuiteConfig(suite=suite)).passed
    repeated = [(A.size, B.size, n) for (A, B), n in calls.items() if n > 1]
    assert repeated == []
    assert bool(calls) == (suite not in NO_HOM_SETS)


@pytest.mark.parametrize("suite", ["presheaf-ez", "cell-presentation"])
def test_no_latching_object_is_computed_twice_in_a_suite_run(monkeypatch, suite):
    import reedylab.presheaf as presheaf

    real, calls = presheaf.latching_objects, {}
    held = []  # every presheaf seen, kept alive so that no two share an id

    def counting(corpus, data):
        outcomes = real(corpus, data)
        # one (presheaf, r) outcome per part of a chunk and object of the base
        for (part, _), Ls in zip(corpus.chunks, outcomes):
            for X in corpus.presheaves[part.start : part.stop]:
                held.append(X)
                for r in range(len(Ls)):
                    calls[id(X), r] = calls.get((id(X), r), 0) + 1
        return outcomes

    monkeypatch.setattr(presheaf, "latching_objects", counting)
    run_suite(SuiteConfig(suite=suite))
    repeated = [(r, n) for (_, r), n in calls.items() if n > 1]
    assert calls and repeated == []
