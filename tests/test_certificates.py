from reedylab.certificates import FAIL, NO_CASES, PASS, Check, scan, verdict


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
