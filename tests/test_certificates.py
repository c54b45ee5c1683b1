import numpy as np

from reedylab.certificates import FAIL, NO_CASES, PASS, Check, scan, scan_batches, verdict


def test_scan_stops_at_the_first_failure():
    examined = []

    def cases():
        for i, witness in enumerate([None, None, {"case": 2}, {"case": 3}, None]):
            examined.append(i)
            yield witness

    assert scan("c", cases()) == Check("c", FAIL, 3, {"case": 2})
    assert examined == [0, 1, 2]
    assert scan("c", [None, None]) == Check("c", PASS, 2)
    assert scan("c", []) == Check("c", FAIL, 0, NO_CASES)


def test_zero_cases_do_not_pass_unless_empty_by_design():
    assert scan("c", []) == Check("c", FAIL, 0, NO_CASES)
    assert verdict("c", True, 0) == Check("c", FAIL, 0, NO_CASES)
    assert verdict("c", True, 0, may_be_empty=True) == Check("c", PASS, 0)
    # a failure over zero cases keeps its own witness
    assert verdict("c", False, 0, {"w": 1}) == Check("c", FAIL, 0, {"w": 1})
    assert verdict("c", True, 1, {"w": 1}) == Check("c", PASS, 1)


def _batch(failed, name, built):
    """A batch over the booleans failed whose witness(k) records that it
    was built."""

    def witness(k):
        built.append((name, k))
        return {name: k}

    return np.array(failed, bool), witness


def test_scan_batches_stops_at_the_first_failing_batch():
    built, walked = [], []

    def batches():
        for name, failed in [("a", [0, 0]), ("b", [0]), ("c", [0, 1, 1]), ("d", [1])]:
            walked.append(name)
            yield _batch(failed, name, built)

    # the cases of a and b, then the second of c; only its witness is built
    assert scan_batches("c", batches()) == Check("c", FAIL, 5, {"c": 1})
    assert (walked, built) == (["a", "b", "c"], [("c", 1)])


def test_scan_batches_counts_empty_and_2d_batches_row_major():
    built = []
    block = [[0, 0, 0], [0, 0, 1], [1, 0, 0]]
    batches = [_batch([], "empty", built), _batch([0], "a", built), _batch(block, "2d", built)]
    # a 2-D block is read row by row: its first failure, at row 1 and
    # column 2, is its case k = 5, after the one case of a
    assert scan_batches("c", batches) == Check("c", FAIL, 7, {"2d": 5})
    assert built == [("2d", 5)]
    clean = [[0, 0], [0, 0]]
    passing = [_batch([0], "a", built), _batch([], "b", built), _batch(clean, "c", built)]
    assert scan_batches("c", passing) == Check("c", PASS, 5)


def test_scan_batches_over_no_cases_fail_unless_empty_by_design():
    built = []
    assert scan_batches("c", []) == Check("c", FAIL, 0, NO_CASES)
    assert scan_batches("c", [_batch([], "a", built)]) == Check("c", FAIL, 0, NO_CASES)
    assert scan_batches("c", [_batch([], "a", built)], may_be_empty=True) == Check("c", PASS, 0)
    # may_be_empty forgives no failure
    failing = [_batch([0, 1], "a", built)]
    assert scan_batches("c", failing, may_be_empty=True) == Check("c", FAIL, 2, {"a": 1})
    assert built == [("a", 1)]
