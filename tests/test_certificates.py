from reedylab.certificates import FAIL, PASS, Check, scan


def test_scan_stops_at_the_first_failure():
    examined = []

    def cases():
        for i, witness in enumerate([None, None, {"case": 2}, {"case": 3}, None]):
            examined.append(i)
            yield witness

    assert scan("c", cases()) == Check("c", FAIL, 3, {"case": 2})
    assert examined == [0, 1, 2]
    assert scan("c", [None, None]) == Check("c", PASS, 2)
    assert scan("c", []) == Check("c", PASS, 0)
