"""Command-line behaviour: outputs, formats, and exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest

from cayleyunits import sequences
from cayleyunits.cli import main

EXPECTED_TABLE_MD = """\
| order | unit |
| --- | --- |
| 4 | -1/3 + 2/3*z - 4/3*z^2 + 2/3*z^3 |
| 8 | -5/3 + 4/3*z - 2/3*z^2 - 2/3*z^3 + 4/3*z^4 - 2/3*z^5 - 2/3*z^6 + 4/3*z^7 |
| 10 | -1/3 + 2/3*z - 4/3*z^2 + 2/3*z^3 + 2/3*z^4 - 4/3*z^5 + 2/3*z^6 + 2/3*z^7 - 4/3*z^8 + 2/3*z^9 |
| 14 | -5/3 + 4/3*z - 2/3*z^2 - 2/3*z^3 + 4/3*z^4 - 2/3*z^5 - 2/3*z^6 + 4/3*z^7 - 2/3*z^8 - 2/3*z^9 + 4/3*z^10 - 2/3*z^11 - 2/3*z^12 + 4/3*z^13 |
| 16 | -1/3 + 2/3*z - 4/3*z^2 + 2/3*z^3 + 2/3*z^4 - 4/3*z^5 + 2/3*z^6 + 2/3*z^7 - 4/3*z^8 + 2/3*z^9 + 2/3*z^10 - 4/3*z^11 + 2/3*z^12 + 2/3*z^13 - 4/3*z^14 + 2/3*z^15 |
"""


EXPECTED_VERIFY_MD = """\
PASS  the involution reverses products and squares to the identity
PASS  every skew generator materializes to a skew element
PASS  random skew elements lie in the span of the generator set
PASS  group elements are unitary exactly when their sign is +1
PASS  the regular representation is multiplicative
PASS  the Fibonacci-like sequence at q = 1 is the Fibonacci sequence
PASS  the binomial closed form matches the recurrence
PASS  difference-inverse coefficients solve their convolution system
PASS  period-3 inverse coefficients satisfy the defining system
PASS  the companion sequence starts 2, 2, -4, -16, -16, 32 and stays even
PASS  the companion closed form reproduces the period-3 coefficients
PASS  closed form and oracle agree on the order-4 unit
PASS  closed form and oracle agree on the order-8 unit
PASS  closed form and oracle agree on the order-10 unit
PASS  closed form and oracle agree on the order-14 unit
PASS  closed form and oracle agree on the order-16 unit
PASS  order 6 is refused by the closed form and singular for the oracle
PASS  order 12 is refused by the closed form and singular for the oracle
PASS  order 18 is refused by the closed form and singular for the oracle
PASS  the S3 difference unit matches its three-term formula
PASS  order-4 difference units match their formula in C4, Q8 and D4
PASS  both order-4 sum units in Q8 match the frozen coefficients
PASS  all D4 orientations: closed forms agree with the oracle
PASS  odd-order group elements are transforms of their skew preimage
PASS  the factorization identity holds across the q grid
PASS  y in rational S3 is unitary for the classical involution but is not a Cayley unit
PASS  the classical skew elements of S3 are the multiples of x - x^-1
PASS  no admissible witness factors y into two Cayley units
28 passed, 0 failed
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_default_markdown(capsys):
    code, out, err = run(capsys, "table")
    assert code == 0
    assert out == EXPECTED_TABLE_MD
    code2, out2, _ = run(capsys, "table")
    assert out2 == out


def test_table_csv_and_json_agree(capsys):
    code, out, _ = run(capsys, "table", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["order", "unit"]
    assert rows[1][0] == "4"
    assert rows[1][1] == "-1/3 + 2/3*z - 4/3*z^2 + 2/3*z^3"

    code, out, _ = run(capsys, "table", "--format", "json", "--orders", "4,6")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["invertible"] is True
    assert payload["rows"][0]["unit"]["coeffs"][0] == {"elem": "1", "value": "-1/3"}
    assert payload["rows"][1] == {"order": 6, "invertible": False}


def test_table_rejects_bad_orders(capsys):
    code, _, err = run(capsys, "table", "--orders", "4,banana")
    assert code == 3
    assert "error" in err
    code, _, err = run(capsys, "table", "--orders", "5")
    assert code == 3
    code, _, err = run(capsys, "table", "--orders", "2")
    assert code == 3


def test_unit_difference_s3(capsys):
    code, out, _ = run(
        capsys, "unit", "--group", "S3", "--orient", "x:+1,y:-1",
        "--kind", "L1", "--element", "x", "--q", "1",
    )
    assert code == 0
    assert "method: closed-form" in out
    assert "unit: x^2" in out
    assert "inverse of 1 + beta: 1/2 + 1/2*x^2" in out


def test_unit_json_matches_cli_fields(capsys):
    code, out, _ = run(
        capsys, "unit", "--group", "Q8", "--orient", "x:+1,y:-1",
        "--kind", "L3", "--element", "y", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed-form"
    assert payload["unit"]["coeffs"] == [
        {"elem": "1", "value": "-1/3"},
        {"elem": "x^2", "value": "-4/3"},
        {"elem": "y", "value": "2/3"},
        {"elem": "x^2*y", "value": "2/3"},
    ]


def test_unit_not_invertible_exit(capsys):
    code, out, err = run(
        capsys, "unit", "--group", "C6", "--orient", "x:-1", "--kind", "L3", "--element", "x",
    )
    assert code == 2
    assert "not invertible" in err
    code, _, _ = run(
        capsys, "unit", "--group", "S3", "--orient", "x:+1,y:-1",
        "--kind", "L2", "--element", "y", "--q", "1",
    )
    assert code == 2


def test_unit_generic_kind(capsys):
    code, out, _ = run(
        capsys, "unit", "--group", "C4", "--kind", "generic",
        "--element", "x - x^-1", "--q", "2",
    )
    assert code == 0
    assert "method: oracle" in out
    assert "unit: 1/17 - 4/17*x + 16/17*x^2 + 4/17*x^3" in out


def test_unit_invalid_inputs(capsys):
    code, _, err = run(capsys, "unit", "--group", "C9", "--kind", "L1", "--element", "x + y")
    assert code == 3
    code, _, err = run(capsys, "unit", "--group", "nope", "--kind", "L1", "--element", "x")
    assert code == 3
    code, _, err = run(
        capsys, "unit", "--group", "S3", "--orient", "x:-1,y:1", "--kind", "L1", "--element", "x",
    )
    assert code == 3
    code, _, err = run(capsys, "unit", "--group", "C5", "--kind", "generic", "--element", "x")
    assert code == 3
    code, _, err = run(
        capsys, "unit", "--group", "C8", "--orient", "x:-1", "--kind", "L3",
        "--element", "x", "--q", "2",
    )
    assert code == 3
    code, _, err = run(capsys, "unit", "--group", "C7", "--kind", "L1", "--element", "x", "--q", "a")
    assert code == 3


def test_unit_failed_certificate_exits_5(capsys, monkeypatch):
    correct = sequences.inverse_coeffs_sum
    monkeypatch.setattr(sequences, "inverse_coeffs_sum",
                        lambda n: [correct(n)[0] + 1] + correct(n)[1:])
    code, out, err = run(
        capsys, "unit", "--group", "C8", "--orient", "x:-1", "--kind", "L3", "--element", "x",
    )
    assert code == 5
    assert out == ""
    assert err.startswith("error: ")
    assert "(1 + beta) * inverse is not 1" in err


def test_skew_basis_output(capsys):
    code, out, _ = run(capsys, "skew-basis", "--group", "D4", "--orient", "x:-1,y:+1")
    assert code == 0
    assert out == (
        "| kind | base | element |\n"
        "| --- | --- | --- |\n"
        "| L3 | x | x + x^3 |\n"
        "| L2 | x*y | x*y |\n"
        "| L2 | x^3*y | x^3*y |\n"
    )
    code, out, _ = run(capsys, "skew-basis", "--group", "C2", "--orient", "x:-1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == [
        {"kind": "L2", "base": "x", "element": {"group": "C2", "coeffs": [
            {"elem": "x", "value": "1"}]}},
    ]


def test_skew_basis_classical(capsys):
    code, out, _ = run(capsys, "skew-basis", "--group", "S3")
    assert code == 0
    assert "| L1 | x | x - x^2 |" in out
    assert "L2" not in out


def test_inverse_command(capsys):
    code, out, _ = run(capsys, "inverse", "--group", "C3", "--element", "1 + x")
    assert code == 0
    assert "inverse: 1/2 - 1/2*x + 1/2*x^2" in out
    code, _, err = run(capsys, "inverse", "--group", "C4", "--element", "1 + x")
    assert code == 2
    assert "not invertible" in err
    code, _, err = run(capsys, "inverse", "--group", "C4", "--element", "1 + w")
    assert code == 3


def test_leading_minus_element_with_equals_sign(capsys):
    code, out, _ = run(capsys, "inverse", "--group", "C5", "--element=-x")
    assert code == 0
    assert "inverse: -x^4" in out


def test_inverse_json(capsys):
    code, out, _ = run(capsys, "inverse", "--group", "Q8", "--element", "y", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["inverse"]["coeffs"] == [{"elem": "x^2*y", "value": "1"}]


def test_group_table_file_input(capsys, tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n1\n")
    code, out, _ = run(capsys, "skew-basis", "--group", str(path))
    assert code == 0
    assert "| L1 | g0 | g0 - g0^3 |" in out


def test_verify_command(capsys):
    assert run(capsys, "verify", "--suite", "all") == (0, EXPECTED_VERIFY_MD, "")
    code, out, _ = run(capsys, "verify", "--suite", "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) > 0


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 3
    assert "error" in err


def test_missing_required_arguments_exit_invalid(capsys):
    code, _, err = run(capsys, "unit", "--group", "C4")
    assert code == 3
    code, _, err = run(capsys, "nonsense")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["inverse", "--group", "C5", "--element", "-x"],
    ["inverse", "--group", "C5", "--element", "-x + 2", "--format", "json"],
    ["unit", "--group", "C5", "--kind", "generic", "--element", "-x + x^4", "--q", "2"],
    ["unit", "--group", "C5", "--kind", "L1", "--element", "-x"],
])
def test_leading_minus_element_as_separate_argument(capsys, argv):
    i = argv.index("--element")
    joined = argv[:i] + [f"--element={argv[i + 1]}"] + argv[i + 2:]
    assert run(capsys, *argv) == run(capsys, *joined)


def test_cyclic_orders_above_the_cap_are_refused(capsys):
    from cayleyunits.cli import MAX_CYCLIC_ORDER

    assert MAX_CYCLIC_ORDER == 4096
    too_big = str(MAX_CYCLIC_ORDER + 1)
    for argv in (["inverse", "--group", f"C{too_big}", "--element", "x"],
                 ["unit", "--group", f"c{too_big}", "--kind", "L1", "--element", "x"],
                 ["skew-basis", "--group", f"C{10 ** 30}"],
                 ["table", "--orders", f"4,{too_big}"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and str(MAX_CYCLIC_ORDER) in err
