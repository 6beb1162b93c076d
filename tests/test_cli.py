"""End-to-end CLI runs: JSON in, JSON out, and the exit code contract."""

import ast
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import lienil
from lienil import cli
from lienil.cli import COMMANDS, build_parser, main
from lienil.scalars import MAX_ORDER

GRING = {"type": "grassmann", "g": 2, "root_order": 1}
PAIR = {"n": 2, "entries": [["1", "-1"], ["-1", "1"]]}
MIXED = {"n": 2, "entries": [["1", {"coeffs": {"1": "1"}}],
                             [{"coeffs": {"2": "1"}}, "2"]]}
SPEC = {"ring": GRING, "delta": "epsilon", "T": PAIR}
ELEM = {"ring": GRING, "delta": "epsilon", "element": {"coeffs": {"1": "1"}}}
# Every file-reading command: (argv before the file, argv after it, a valid
# document).
FILE_COMMANDS = [
    (["transitive", "check"], [], {"ring": GRING, "matrix": PAIR}),
    (["transitive", "build"], [], {"ring": GRING, "units": ["1", "-2"]}),
    (["transitive", "blowup"], [], {"ring": GRING, "matrix": PAIR,
                                    "cuts": [1, 3]}),
    (["transitive", "factor"], [], {"ring": GRING, "matrix": PAIR}),
    (["theta"], [], {"ring": GRING, "T": PAIR, "A": MIXED}),
    (["sdet"], [], {"ring": GRING, "matrix": MIXED}),
    (["preadjoint"], [], {"ring": GRING, "matrix": MIXED}),
    (["rdet"], ["--k", "2"], {"ring": GRING, "matrix": MIXED}),
    (["ldet"], [], {"ring": GRING, "matrix": MIXED}),
    (["charpoly"], [], {"ring": GRING, "matrix": MIXED}),
    (["ch-check"], [], {"ring": GRING, "matrix": MIXED}),
    (["embed"], ["--n", "2"], ELEM),
    (["conditions"], [], SPEC),
    (["membership"], [], {**SPEC, "matrix": MIXED}),
    (["sample"], ["--seed", "1"], SPEC),
    (["integrality"], ["--n", "2", "--k", "1"], ELEM),
]
ORING = {"type": "oracle", "variables": ["a", "b"]}
OMATRIX = {"n": 2, "entries": [["a", "2*b - 1"], ["a^2*b", "3/2"]]}
ORACLE_COMMANDS = [
    (["sdet"], [], {"ring": ORING, "matrix": OMATRIX}),
    (["preadjoint"], [], {"ring": ORING, "matrix": OMATRIX}),
    (["rdet"], ["--k", "2"], {"ring": ORING, "matrix": OMATRIX}),
    (["charpoly"], [], {"ring": ORING, "matrix": OMATRIX}),
]
CHECKS = {"transitive check", "ch-check", "membership", "integrality"}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_transitive_check_pass_and_fail(tmp_path, capsys):
    good = write(tmp_path, "good.json", {
        "ring": GRING,
        "matrix": {"n": 2, "entries": [["1", "-1"], ["-1", "1"]]}})
    code, doc = run(capsys, ["transitive", "check", good])
    assert code == 0 and doc == {"transitive": True}
    bad = write(tmp_path, "bad.json", {
        "ring": GRING,
        "matrix": {"n": 2, "entries": [["1", "1"], ["0", "1"]]}})
    code, doc = run(capsys, ["transitive", "check", bad])
    assert code == 1 and doc == {"transitive": False}


def test_transitive_build_factor_round_trip(tmp_path, capsys):
    src = write(tmp_path, "units.json", {"ring": GRING, "units": ["1", "-2"]})
    code, doc = run(capsys, ["transitive", "build", src])
    assert code == 0
    back = write(tmp_path, "mat.json", {"ring": GRING, "matrix": doc["matrix"]})
    code, doc2 = run(capsys, ["transitive", "factor", back])
    assert code == 0
    assert [c["coeffs"] for c in doc2["units"]] == [{"": "1"}, {"": "-2"}]


def test_blowup(tmp_path, capsys):
    src = write(tmp_path, "b.json", {
        "ring": GRING,
        "matrix": {"n": 2, "entries": [["1", "-1"], ["-1", "1"]]},
        "cuts": [1, 3]})
    code, doc = run(capsys, ["transitive", "blowup", src])
    assert code == 0 and doc["matrix"]["n"] == 3


def test_sdet_and_charpoly(tmp_path, capsys):
    src = write(tmp_path, "m.json", {
        "ring": GRING,
        "matrix": {"n": 2, "entries": [
            ["1", {"coeffs": {"1": "1"}}],
            [{"coeffs": {"2": "1"}}, "2"]]}})
    code, doc = run(capsys, ["sdet", src])
    assert code == 0
    assert doc["sdet"]["coeffs"] == {"": "4"}
    code, doc = run(capsys, ["charpoly", src, "--k", "1"])
    assert code == 0 and len(doc["coeffs"]) == 3
    code, doc = run(capsys, ["rdet", src, "--k", "1"])
    assert code == 0 and doc["rdet"]["coeffs"] == {"": "4"}
    code, doc = run(capsys, ["ldet", src, "--k", "1"])
    assert code == 0 and doc["ldet"]["coeffs"] == {"": "4"}


def test_ch_check_exit_codes(tmp_path, capsys):
    src = write(tmp_path, "m.json", {
        "ring": GRING,
        "matrix": {"n": 2, "entries": [
            ["1", {"coeffs": {"1": "1"}}],
            [{"coeffs": {"2": "1"}}, "2"]]}})
    code, doc = run(capsys, ["ch-check", src, "--k", "2"])
    assert code == 0 and doc["zero"] is True
    # k = 1 fails over a noncommutative ring
    code, doc = run(capsys, ["ch-check", src, "--k", "1"])
    assert code == 1 and doc["zero"] is False


def test_membership_sample_conditions(tmp_path, capsys):
    spec = {"ring": GRING, "delta": "epsilon",
            "T": {"n": 2, "entries": [["1", "-1"], ["-1", "1"]]}}
    src = write(tmp_path, "spec.json", spec)
    code, doc = run(capsys, ["sample", src, "--seed", "5"])
    assert code == 0
    memb = write(tmp_path, "memb.json", {**spec, "matrix": doc["matrix"]})
    code, doc = run(capsys, ["membership", memb])
    assert code == 0 and doc["member"] is True
    non = write(tmp_path, "non.json", {**spec, "matrix": {
        "n": 2, "entries": [["1", "0"], ["0", "1"]]}})
    code, doc = run(capsys, ["membership", non])
    # the identity is even everywhere: diagonal OK but it is a member
    assert doc["member"] is True and code == 0
    odd_diag = write(tmp_path, "odd.json", {**spec, "matrix": {
        "n": 2, "entries": [[{"coeffs": {"1": "1"}}, "0"], ["0", "1"]]}})
    code, doc = run(capsys, ["membership", odd_diag])
    assert code == 1 and doc["member"] is False
    code, doc = run(capsys, ["conditions", src])
    assert code == 0 and doc["t_power_n_is_one"] is True


def test_conditions_output_bytes(tmp_path, capsys):
    """The condition report of M_2(E, epsilon, P), byte for byte, compact
    and under --pretty."""
    src = write(tmp_path, "spec.json", SPEC)
    assert main(["conditions", src]) == 0
    assert capsys.readouterr().out == (
        '{"delta_order_n":true,"first_column_central_units":true,'
        '"has_inverse_of_n":true,"inverse_power_sums_vanish":true,'
        '"inverse_sum_condition_redundant":true,"notes":[],'
        '"one_minus_t_nonzero_divisor":true,"power_sums_vanish":true,'
        '"regimes":{"ring_embedding":true,"scalar":true,'
        '"supermatrix_embedding":true},"t_in_fixed_ring":true,'
        '"t_power_n_is_one":true}\n')
    assert main(["conditions", src, "--pretty"]) == 0
    assert capsys.readouterr().out == """{
  "delta_order_n": true,
  "first_column_central_units": true,
  "has_inverse_of_n": true,
  "inverse_power_sums_vanish": true,
  "inverse_sum_condition_redundant": true,
  "notes": [],
  "one_minus_t_nonzero_divisor": true,
  "power_sums_vanish": true,
  "regimes": {
    "ring_embedding": true,
    "scalar": true,
    "supermatrix_embedding": true
  },
  "t_in_fixed_ring": true,
  "t_power_n_is_one": true
}
"""


def test_embed_and_integrality(tmp_path, capsys):
    src = write(tmp_path, "e.json", {
        "ring": GRING, "delta": "epsilon",
        "element": {"coeffs": {"1": "1"}}})
    code, doc = run(capsys, ["embed", src, "--n", "2"])
    assert code == 0
    assert doc["matrix"]["entries"][0][1]["coeffs"] == {"1": "1"}
    assert doc["matrix"]["entries"][0][0]["coeffs"] == {}
    code, doc = run(capsys, ["integrality", src, "--n", "2", "--k", "2"])
    assert code == 0 and doc["right_holds"] and doc["left_holds"]
    # rho over Q(zeta_70): a root of unity of order above 64, at n = 70
    src = write(tmp_path, "rho.json", {
        "ring": {"type": "grassmann", "g": 2, "root_order": 70},
        "delta": "rho_e:70", "element": {"coeffs": {"1": "1"}}})
    code, doc = run(capsys, ["embed", src, "--n", "70"])
    assert code == 0 and doc["matrix"]["n"] == 70
    # rho(v1) = e v1, so the image of v1 is v1 times a cyclic shift
    entries = doc["matrix"]["entries"]
    assert all(entries[i][j]["coeffs"] == ({"1": "1"} if j == (i - 1) % 70
                                           else {})
               for i in range(70) for j in range(70))


def test_example_command(capsys):
    code, doc = run(capsys, ["example", "5.2", "--n", "2", "--g", "2"])
    assert code == 0
    assert doc["spec"]["n"] == 2
    assert len(doc["shape"]) == 2 and doc["shape"][0][0]["dim"] == 2


def test_removed_options_are_usage_errors(tmp_path, capsys):
    """The embedding's root is fixed by n, and the degree-9 instance is a
    test, so neither ``embed --root`` nor ``reproduce-all --slow`` parses."""
    src = write(tmp_path, "e.json", ELEM)
    for argv in (["embed", src, "--n", "3", "--root", "3"],
                 ["reproduce-all", "--slow"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


def test_invalid_input_exit_code(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "nope.json")
    assert main(["sdet", missing]) == 2
    capsys.readouterr()
    malformed = [
        {"ring": {"type": "mystery"}},
        [1, 2, 3],
        {"ring": GRING, "matrix": {"n": 2, "entries": [[1, 2], [3, 4]]}},
        {"ring": GRING, "matrix": {"n": 1, "entries": ["1"]}},
    ] + [{"ring": {"type": "oracle", "variables": ["a"]},
          "matrix": {"n": 1, "entries": [[text]]}}
         for text in ("1/0", "0/0", "a - oo", "a/0",
                      # refused by the token check or the parser
                      '__import__("os").getpid()', "zz", "1.5", "sin(a)",
                      # not a polynomial, or not finite
                      "1/a", "a**(1/2)", "a**-1", "(a - a)**0/0", 5)] + [
        {"ring": {"type": "oracle", "variables": names},
         "matrix": {"n": 1, "entries": [["1"]]}}
        for names in (["x y"], ["lambda"], ["a.b"], [3], ["a", "a"])] + [
        {"ring": 5, "matrix": {"n": 1, "entries": [["1"]]}},
        {"ring": {"type": "grassmann", "g": "x"},
         "matrix": {"n": 1, "entries": [["1"]]}},
        {"ring": {"type": "grassmann", "g": 2, "root_order": "3"},
         "matrix": {"n": 1, "entries": [["1"]]}},
        {"ring": {"type": "oracle", "variables": 5},
         "matrix": {"n": 1, "entries": [["1"]]}},
        {"ring": GRING, "matrix": {"n": 1, "entries": [[{"coeffs": {"": 3}}]]}},
        {"ring": GRING, "matrix": {"n": 1, "entries": [[{"coeffs": [1]}]]}},
    ] + [{"ring": GRING, "matrix": {"n": 1, "entries": [[entry]]}}
         for entry in ("1/0", "[1/0]", {"coeffs": {"1": "2/0"}},
                       # a key other than distinct ascending indices
                       {"coeffs": {"2,1": "1"}}, {"coeffs": {"1,1": "1"}},
                       {"coeffs": {"1,2": "1", "2,1": "1"}})] + [
        # a matrix field that nothing reads, or an "n" that is not the row
        # count ("n" itself is optional)
        {"ring": {"type": "grassmann", "g": 2},
         "matrix": {"n": 7, "entries": [["1", "2"], ["3", "4"]], "typo": 1}},
        {"ring": GRING, "matrix": {"entries": [["1"]], "typo": 1}},
        {"ring": GRING, "matrix": {"n": 7, "entries": [["1", "2"], ["3", "4"]]}},
        {"ring": GRING, "matrix": {"n": 0, "entries": [["1"]]}},
        {"ring": GRING, "matrix": {"n": "1", "entries": [["1"]]}},
        {"ring": GRING, "matrix": {"n": True, "entries": [["1"]]}}]
    for i, doc in enumerate(malformed):
        bad = write(tmp_path, f"bad{i}.json", doc)
        assert main(["sdet", bad]) == 2, doc
        out, err = capsys.readouterr()
        assert out == "" and "error" in json.loads(err), doc
    src = write(tmp_path, "embed.json", {
        "ring": GRING, "delta": "epsilon", "element": "1"})
    assert main(["embed", src, "--n", "0"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)
    # no embedding: delta^n is not the identity
    rho70 = write(tmp_path, "rho70.json", {
        "ring": {"type": "grassmann", "g": 2, "root_order": 70},
        "delta": "rho_e:70", "element": {"coeffs": {"1": "1"}}})
    eps3 = write(tmp_path, "eps3.json", {
        "ring": dict(GRING, root_order=3), "delta": "epsilon",
        "element": "1"})
    for argv in (["embed", rho70, "--n", "2"],
                 ["embed", eps3, "--n", "3"],
                 ["integrality", eps3, "--n", "3", "--k", "1"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "error" in json.loads(err), argv
    garbage = write(tmp_path, "garbage.json", {
        "ring": GRING, "delta": "rho_e_garbage", "element": "1"})
    assert main(["embed", garbage, "--n", "2"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)
    # every endomorphism descriptor names a Grassmann map, and JSON nested
    # past the decoder's recursion limit is bad input too
    one = {"entries": [["1"]]}
    refused = [
        (["conditions"], {"ring": ORING, "delta": "epsilon", "T": one}),
        (["membership"], {"ring": ORING, "delta": "epsilon", "T": one,
                          "matrix": {"entries": [["a"]]}}),
        (["embed", "--n", "2"], {"ring": ORING, "delta": "epsilon",
                                 "element": "a"}),
        (["integrality", "--n", "2", "--k", "1"],
         {"ring": ORING, "delta": "epsilon", "element": "a"}),
    ] + [(["embed", "--n", "2"], {"ring": ORING, "delta": delta,
                                  "element": "a"})
         for delta in ("rho_e", "sigma", {"generator_images": ["a", "b"]})] + [
        # a spec whose "n" is not T's size, and a generator-image descriptor
        # with a field that nothing reads
        (["membership"], {**SPEC, "n": 9, "matrix": MIXED}),
        (["conditions"], {**SPEC, "n": 1}),
        (["sample", "--seed", "1"], {**SPEC, "n": "2"}),
        (["embed", "--n", "2"], {"ring": GRING, "element": "1", "delta": {
            "generator_images": ["1", "1"], "typo": 1}})]
    for i, (cmd, doc) in enumerate(refused):
        src = write(tmp_path, f"refused{i}.json", doc)
        assert main(cmd[:1] + [src] + cmd[1:]) == 2, (cmd, doc)
        out, err = capsys.readouterr()
        assert out == "" and "error" in json.loads(err), (cmd, doc)
    deep = tmp_path / "deep.json"
    deep.write_text('{"ring": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["sdet", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error" in json.loads(err)
    # each top-level field is type-checked by its reader
    fields = [
        (["transitive", "blowup"], {"ring": GRING, "matrix": PAIR, "cuts": "12"}),
        (["transitive", "blowup"], {"ring": GRING, "matrix": PAIR,
                                    "cuts": [1.5, 3]}),
        (["transitive", "blowup"], {"ring": GRING, "matrix": PAIR,
                                    "cuts": [True, 3]}),
        (["transitive", "blowup"], {"ring": GRING, "matrix": PAIR}),
        (["transitive", "build"], {"ring": GRING, "units": 5}),
        (["transitive", "build"], {"units": ["1"]}),
        (["embed"], {"ring": GRING, "delta": {"generator_images": 5},
                     "element": "1"}),
        (["embed"], {"ring": GRING, "delta": "epsilon", "element": 5}),
        (["theta"], {"ring": GRING, "T": PAIR, "A": [["1"]]}),
    ]
    for i, (cmd, doc) in enumerate(fields):
        src = write(tmp_path, f"field{i}.json", doc)
        argv = cmd + [src] + (["--n", "2"] if cmd == ["embed"] else [])
        assert main(argv) == 2, doc
        assert "error" in json.loads(capsys.readouterr().err), doc
    # an unwritable --report path is bad input too, not a traceback
    import lienil.acceptance as acceptance
    monkeypatch.setattr(acceptance, "reproduce_all",
                        lambda: ({"results": [], "all_passed": True}, {}))
    report = str(tmp_path / "absent" / "report.json")
    assert main(["reproduce-all", "--report", report]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_missing_keys_name_the_field(tmp_path, capsys, monkeypatch):
    """A Grassmann ring without "g", a matrix without "entries" and an
    element object without "coeffs" (which is not zero) are bad input, and
    so is a field that an element object or a ring descriptor does not
    have (a misspelled "root_order" does not fall back to Q): the error
    names the field.  A KeyError from inside the library is not bad input:
    it is not turned into exit 2."""
    def one(entry):
        return {"n": 1, "entries": [[entry]]}

    cases = [
        ("missing field 'g'", {"ring": {"type": "grassmann"}, "matrix": PAIR}),
        ("missing field 'entries'", {"ring": GRING, "matrix": {"n": 2}}),
        ("missing field 'coeffs'", {"ring": GRING, "matrix": one({"g": 2})}),
        ("a Grassmann element has an unknown field '1'",
         {"ring": GRING, "matrix": one({"1": "2"})}),
        ("a Grassmann ring has an unknown field 'root_ordr'",
         {"ring": {"type": "grassmann", "g": 2, "root_ordr": 3},
          "matrix": PAIR}),
        ("an oracle ring has an unknown field 'g'",
         {"ring": dict(ORING, g=2), "matrix": OMATRIX})]
    for i, (error, doc) in enumerate(cases):
        assert main(["sdet", write(tmp_path, f"case{i}.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "", error
        assert json.loads(err)["error"] == "SerializationError: " + error
    from lienil import dets

    def broken(A):
        raise KeyError("internal")

    monkeypatch.setattr(dets, "sdet", broken)
    src = write(tmp_path, "ok.json", {"ring": GRING, "matrix": PAIR})
    with pytest.raises(KeyError):
        main(["sdet", src])


def test_generator_images_descriptor(tmp_path, capsys):
    """Images [-v1, -v2] on g = 2 name epsilon, so ``conditions`` and
    ``membership`` print what the "epsilon" descriptor prints.  Images
    that do not extend to an endomorphism are bad input."""
    minus = {"generator_images": [{"coeffs": {"1": "-1"}},
                                  {"coeffs": {"2": "-1"}}]}
    for cmd, extra in ((["conditions"], {}),
                       (["membership"], {"matrix": MIXED}),
                       (["membership"], {"matrix": PAIR})):
        replies = []
        for i, delta in enumerate(("epsilon", minus)):
            src = write(tmp_path, f"images{i}.json",
                        {**SPEC, **extra, "delta": delta})
            replies.append((main(cmd + [src]), capsys.readouterr().out))
        assert replies[0] == replies[1], (cmd, extra)
    assert replies[0][0] == 1           # PAIR is not a member
    ones = write(tmp_path, "ones.json", {
        **SPEC, "delta": {"generator_images": ["1", "1"]}, "matrix": MIXED})
    for cmd in (["conditions"], ["membership"]):
        assert main(cmd + [ones]) == 2, cmd
        out, err = capsys.readouterr()
        assert out == "" and "error" in json.loads(err), cmd


def test_cost_cap_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIENIL_MAX_N", "6")     # the cap is fixed at n <= 5
    n = 6
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    src = write(tmp_path, "big.json", {
        "ring": GRING, "matrix": {"n": n, "entries": ident}})
    assert main(["sdet", src]) == 3
    capsys.readouterr()
    # field and root-of-unity orders are capped too
    too_big = MAX_ORDER + 1
    src = write(tmp_path, "order.json", {
        "ring": {"type": "grassmann", "g": 2, "root_order": too_big},
        "matrix": {"n": 1, "entries": [["1"]]}})
    elem = write(tmp_path, "embed.json", {
        "ring": GRING, "delta": "epsilon", "element": "1"})
    elem6 = write(tmp_path, "embed6.json", {
        "ring": dict(GRING, root_order=6), "delta": "epsilon", "element": "1"})
    # charpoly degree n^k (also through ch-check and integrality), blow-up
    # size (also through examples 5.1 and 5.3) and the solver's g
    small = write(tmp_path, "small.json", {"ring": GRING, "matrix": PAIR})
    cuts = write(tmp_path, "cuts.json", {
        "ring": GRING, "matrix": PAIR, "cuts": [1, 100000000]})
    for argv in (["sdet", src],
                 ["example", "5.2", "--n", str(too_big), "--g", "2"],
                 ["embed", elem, "--n", str(too_big)],
                 ["charpoly", small, "--k", "10"],
                 ["charpoly", small, "--k", "1000000000"],
                 ["ch-check", small, "--k", "10", "--side", "left"],
                 ["integrality", elem, "--n", "2", "--k", "10"],
                 ["integrality", elem6, "--n", "6", "--k", "2"],
                 ["transitive", "blowup", cuts],
                 ["example", "5.1", "--n", str(too_big), "--g", "2"],
                 ["example", "5.3", "--n", str(too_big), "--g", "2"],
                 ["example", "5.1", "--n", "2", "--g", "13"]):
        assert main(argv) == 3, argv
        assert "error" in json.loads(capsys.readouterr().err), argv
    # the degree cap n^k <= 512 still admits 2^9
    assert main(["charpoly", small, "--k", "9"]) == 0
    # every adjoint chain has that cap, and k <= 512 holds a 1x1 chain
    one = write(tmp_path, "one.json", {"ring": GRING, "matrix": {
        "n": 1, "entries": [["2"]]}})
    for argv, code in ((["rdet", small, "--k", "9"], 0),
                       (["rdet", small, "--k", "10"], 3),
                       (["ldet", one, "--k", "512"], 0),
                       (["ldet", one, "--k", "513"], 3),
                       (["rdet", one, "--k", "1000000"], 3),
                       (["charpoly", one, "--k", "512"], 0),
                       (["charpoly", one, "--k", "513"], 3)):
        assert main(argv) == code, argv
        capsys.readouterr()
    # shapes: n^2 4^g is capped before any solve
    assert main(["example", "5.3", "--n", "100", "--g", "6"]) == 3
    assert "error" in json.loads(capsys.readouterr().err)
    # an exact result whose decimal text is over CPython's digit limit
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        big = "1" + "0" * 2999
        for i, doc in enumerate((
                {"ring": {"type": "oracle", "variables": ["a"]},
                 "matrix": {"n": 4, "entries": [
                     ["2**4096" if i == j else "0" for j in range(4)]
                     for i in range(4)]}},
                {"ring": GRING, "matrix": {"n": 2, "entries": [
                    [big, "0"], ["0", big]]}})):
            assert main(["sdet", write(tmp_path, f"long{i}.json", doc)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "error" in json.loads(err), doc


def test_pretty_output_is_the_same_json(tmp_path, capsys, monkeypatch):
    """--pretty only indents: for every subcommand it parses to the same
    object as the compact output, with the same exit code."""
    import lienil.acceptance as acceptance
    results = [{"criterion": 1, "name": "transitivity", "passed": True,
                "details": {"examples": 3}}]
    monkeypatch.setattr(acceptance, "reproduce_all",
                        lambda: ({"results": results, "all_passed": True},
                                 {"1": 0.5}))
    commands = [before + [write(tmp_path, f"doc{i}.json", doc)] + after
                for i, (before, after, doc) in enumerate(FILE_COMMANDS)]
    commands += [["example", "5.3", "--n", "3", "--g", "2"], ["reproduce-all"]]
    for argv in commands:
        code = main(argv)
        compact = capsys.readouterr().out
        pretty_code = main(argv + ["--pretty"])
        pretty = capsys.readouterr().out
        assert code == pretty_code, argv
        assert json.loads(pretty) == json.loads(compact), argv
        assert "\n" not in compact.rstrip("\n"), argv
        assert pretty.startswith(("{\n  ", "[\n  ")), argv
    code = main(["reproduce-all"])
    assert code == 0
    assert capsys.readouterr().out == acceptance.canonical_report(results) + "\n"


# --- boundary fuzz: random JSON at the top level and in each known field ---

# Leaves mix valid fragments of the formats with arbitrary values, so that
# the fuzz reaches past the outermost type checks.
TOKENS = ["1", "-1", "0", "2/3", "1/0", "[0, 1]", "[1", "1,2", "2", "x",
          "epsilon", "sigma", "rho_e:2", "rho_e:x", "grassmann", "oracle", ""]
KEYS = ["ring", "matrix", "entries", "n", "coeffs", "g", "type",
        "root_order", "generator_images", "T", "A", "units", "cuts", "",
        "1", "1,2"]
# Oracle entry text: small expressions in its grammar, and strings of its
# characters mixed with quotes, dots, underscores and brackets.
ORACLE_TEXT = st.recursive(
    st.sampled_from(["a", "b", "c", "0", "1", "2", "9", "1/0", "a_b", "1.5"]),
    lambda inner: st.builds(lambda x, op, y: f"({x}{op}{y})", inner,
                            st.sampled_from(["+", "-", "*", "/", "**", "^"]),
                            inner),
    max_leaves=4) | st.text(alphabet="ab_0129.'\"[](){}+-*/^ ", max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.floats(-4, 4, allow_nan=False) | st.sampled_from(TOKENS)
    | st.text(max_size=4) | ORACLE_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=10)
square_matrices = st.integers(1, 2).flatmap(lambda n: st.builds(
    lambda rows: {"n": n, "entries": rows},
    st.lists(st.lists(ORACLE_TEXT, min_size=n, max_size=n),
             min_size=n, max_size=n)))
MISSING = object()


@pytest.mark.parametrize(
    "command", FILE_COMMANDS + ORACLE_COMMANDS,
    ids=[" ".join(c[0]) for c in FILE_COMMANDS]
    + ["oracle " + " ".join(c[0]) for c in ORACLE_COMMANDS])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_documents_exit_cleanly(command, data, monkeypatch):
    """Every document ends in exit 0-3 and never raises: exit 1 only from a
    check command, and on exit 2 or 3 stderr is one JSON error object."""
    before, after, valid = command
    key = data.draw(st.sampled_from([None] + sorted(valid)), label="field")
    if key is None:
        doc = data.draw(json_values, label="document")
    else:
        doc = dict(valid)
        value = data.draw(st.just(MISSING) | json_values | square_matrices,
                          label="value")
        if value is MISSING:
            del doc[key]
        else:
            doc[key] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(before + ["-"] + after)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert " ".join(before) in CHECKS
    if code in (0, 1):
        assert isinstance(json.loads(out.getvalue()), dict)
    else:
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())


def fresh_run(args, **kwargs):
    """``python args`` in a fresh interpreter that imports this lienil,
    with stdout block-buffered, as it is by default, unless args say -u."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lienil.__file__))
    return subprocess.run([sys.executable] + args, env=env, timeout=120,
                          **kwargs)


def fresh(script):
    """stdout of ``script`` run in a fresh interpreter that imports this
    lienil; the script must exit 0."""
    proc = fresh_run(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_no_request_loads_sympy(tmp_path):
    """In a fresh interpreter neither a Grassmann nor an oracle request, nor
    the acceptance suite's import, loads sympy, and the oracle requests
    print the bytes that the sympy-backed oracle printed for the same
    document."""
    grassmann = write(tmp_path, "g.json", {"ring": GRING, "matrix": MIXED})
    oracle = write(tmp_path, "o.json", {
        "ring": {"type": "oracle", "variables": ["a", "b", "c"]},
        "matrix": {"n": 2, "entries": [["a^2 - 3*b/2", "2*(a + 1)"],
                                       ["-b*c + 7", "(a - b)**2/3"]]}})
    script = (
        "import sys, lienil, lienil.cli, lienil.acceptance\n"
        f"assert lienil.cli.main(['sdet', {grassmann!r}]) == 0\n"
        f"assert lienil.cli.main(['sdet', {oracle!r}]) == 0\n"
        f"assert lienil.cli.main(['preadjoint', {oracle!r}]) == 0\n"
        f"assert lienil.cli.main(['charpoly', {oracle!r}]) == 0\n"
        "assert 'sympy' not in sys.modules\n")
    sdet = (b'2*a**4/3 - 4*a**3*b/3 + 2*a**2*b**2/3 - a**2*b + 2*a*b**2'
            b' + 4*a*b*c - 28*a - b**3 + 4*b*c - 28')
    assert fresh(script) == (
        b'{"sdet":{"coeffs":{"":"4"},"g":2}}\n'
        b'{"sdet":"' + sdet + b'"}\n'
        b'{"matrix":{"entries":[["a**2/3 - 2*a*b/3 + b**2/3","-2*a - 2"],'
        b'["b*c - 7","a**2 - 3*b/2"]],"n":2}}\n'
        b'{"coeffs":["' + sdet + b'","-8*a**2/3 + 4*a*b/3 - 2*b**2/3 + 3*b",'
        b'"2"],"k":1,"side":"right"}\n')


def test_requests_load_only_the_modules_they_run(tmp_path):
    """In a fresh interpreter ``import lienil`` loads none of its modules;
    a Grassmann sdet loads neither lienil.supermatrix, lienil.oracle,
    lienil.linalg nor dataclasses or inspect; an oracle sdet loads
    lienil.oracle; an example loads lienil.linalg but no lienil.dets; and
    integrality, which needs both, prints the bytes it printed when every
    module loaded eagerly."""
    grassmann = write(tmp_path, "g.json", {"ring": GRING, "matrix": MIXED})
    oracle = write(tmp_path, "o.json", {"ring": ORING, "matrix": OMATRIX})
    elem = write(tmp_path, "e.json", ELEM)
    fresh("import sys, lienil\n"
          "assert not [m for m in sys.modules if m.startswith('lienil.')]\n")
    fresh("import sys, lienil.cli\n"
          f"assert lienil.cli.main(['sdet', {grassmann!r}]) == 0\n"
          "assert 'lienil.dets' in sys.modules\n"
          "for m in ('lienil.supermatrix', 'lienil.oracle', 'lienil.linalg',"
          " 'dataclasses', 'inspect'):\n"
          "    assert m not in sys.modules, m\n")
    fresh("import sys, lienil.cli\n"
          f"assert lienil.cli.main(['sdet', {oracle!r}]) == 0\n"
          "assert 'lienil.oracle' in sys.modules\n")
    fresh("import sys, lienil.cli\n"
          "assert lienil.cli.main(['example', '5.2', '--n', '3', '--g', '4'])"
          " == 0\n"
          "assert 'lienil.supermatrix' in sys.modules\n"
          "assert 'lienil.linalg' in sys.modules\n"
          "assert 'lienil.dets' not in sys.modules\n")
    zero = b'{"coeffs":{},"g":2}'
    assert fresh("import lienil.cli\n"
                 f"assert lienil.cli.main(['integrality', {elem!r}, '--n', "
                 "'2', '--k', '2']) == 0\n") == (
        b'{"coefficients_fixed":true,"degree":4,"left_coeffs":['
        + b",".join([zero] * 4) + b'],"left_holds":true,"right_coeffs":['
        + b",".join([zero] * 4) + b'],"right_holds":true}\n')


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus"], ["sdet"], ["sdet", "-h"], ["sdet", "--nope", "x"],
    ["sdet", "x", "extra"], ["rdet", "x", "--k", "two"],
    ["example", "5.9", "--n", "2"], ["charpoly", "--k", "2", "x"],
    ["--pretty", "sdet", "x"]], ids=lambda argv: " ".join(argv) or "none")
def test_one_subcommand_parser_parses_like_the_full_parser(argv):
    """``build_parser(argv)`` builds only argv[0]'s subparser when it names
    one; it prints the same bytes, exits with the same code and gives the
    same namespace as the parser of every subcommand."""
    def outcome(parser):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as exc:
                result = exc.code
        return out.getvalue(), err.getvalue(), result

    assert outcome(build_parser(argv)) == outcome(build_parser())
    listed = build_parser(argv).format_help()
    helps = {name: help for name, _, help, _ in COMMANDS}
    shown = [name for name, help in helps.items() if help in listed]
    assert shown == (argv[:1] if argv and argv[0] in helps else list(helps))


# --- the process entry: console_main ---

@pytest.mark.parametrize("argv, doc, code", [
    (["sdet"], {"ring": GRING, "matrix": MIXED}, 0),
    (["transitive", "check"], {"ring": GRING, "matrix": {
        "n": 2, "entries": [["1", "1"], ["0", "1"]]}}, 1),
    (["sdet"], {"ring": {"type": "mystery"}, "matrix": PAIR}, 2),
    (["sdet"], {"ring": GRING, "matrix": {"n": 6, "entries": [
        ["1" if i == j else "0" for j in range(6)] for i in range(6)]}}, 3)],
    ids=["exit-0", "exit-1", "exit-2", "exit-3"])
def test_a_cold_process_replies_as_main_does(tmp_path, capsys, argv, doc,
                                             code):
    """``python -m lienil.cli`` gives the exit code, stdout and stderr of
    ``main`` run in this process on the same document."""
    argv = argv + [write(tmp_path, "doc.json", doc)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    proc = fresh_run(["-m", "lienil.cli"] + argv, capture_output=True,
                     text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    """Only the process entry freezes the heap: ``main`` returning or
    exiting through argparse moves nothing to the permanent generation."""
    frozen = gc.get_freeze_count()
    assert main(["sdet", write(tmp_path, "g.json",
                               {"ring": GRING, "matrix": MIXED})]) == 0
    with pytest.raises(SystemExit):
        main(["sdet"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, code", [
    (["sdet", "{file}"], 0), (["sdet"], 2), (["-h"], 0)],
    ids=["returns", "usage-error", "help"])
def test_console_main_freezes_the_heap_before_it_exits(tmp_path, argv, code):
    """``console_main`` exits with main's code, or argparse's, and has
    frozen the heap by then, so shutdown collections skip it."""
    argv = [a.replace("{file}", write(tmp_path, "g.json",
                                      {"ring": GRING, "matrix": MIXED}))
            for a in argv]
    script = ("import gc, sys\n"
              "from lienil import cli\n"
              f"sys.argv = ['lienil'] + {argv!r}\n"
              "try:\n"
              "    cli.console_main()\n"
              "except SystemExit as exc:\n"
              "    print(exc.code, gc.get_freeze_count() > 0,"
              " file=sys.stderr)\n")
    proc = fresh_run(["-c", script], capture_output=True, text=True)
    assert proc.stderr.splitlines()[-1] == f"{code} True"


def test_the_project_script_is_the_main_block_entry():
    """``[project.scripts]`` names the function that ``python -m
    lienil.cli`` calls."""
    tomllib = pytest.importorskip("tomllib")         # Python 3.11+
    root = Path(lienil.__file__).resolve().parents[2]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())[
        "project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    calls = [ast.unparse(node.func) for node in ast.walk(block)
             if isinstance(node, ast.Call)]
    assert calls == ["console_main"]
    assert scripts == {"lienil": "lienil.cli:console_main"}


def closed_pipe_run(args, stream):
    """(exit code, bytes on the other stream) of a fresh ``python args``
    whose ``stream`` ("stdout" or "stderr") is a pipe whose reader has
    closed."""
    reader, writer = os.pipe()
    os.close(reader)
    other = "stderr" if stream == "stdout" else "stdout"
    try:
        proc = fresh_run(args, **{stream: writer, other: subprocess.PIPE})
    finally:
        os.close(writer)
    return proc.returncode, getattr(proc, other)


@pytest.mark.parametrize("flags", [[], ["-u"]],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["example", "5.3", "--n", "3", "--g", "4"], ["sdet", "{file}"], ["-h"],
    ["sdet", "-h"]], ids=["example", "sdet", "help", "sdet-help"])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, argv, flags):
    """A reply or a help text written to a pipe whose reader has gone,
    whether it fails in the write (unbuffered) or at the flush before exit
    (buffered): exit 2 and one JSON error on stderr, with no traceback and
    no "Exception ignored"."""
    argv = [a.replace("{file}", write(tmp_path, "g.json",
                                      {"ring": GRING, "matrix": MIXED}))
            for a in argv]
    code, err = closed_pipe_run(flags + ["-m", "lienil.cli"] + argv,
                                "stdout")
    assert code == 2
    assert json.loads(err)["error"].startswith("BrokenPipeError: ")


def test_a_closed_stderr_exits_2_without_a_traceback(tmp_path):
    """The JSON error of an exit 2, and reproduce-all's timing lines, to a
    closed pipe: exit 2 and nothing on stdout."""
    missing = str(tmp_path / "none.json")
    assert closed_pipe_run(["-m", "lienil.cli", "sdet", missing],
                           "stderr") == (2, b"")
    script = ("import sys\n"
              "from lienil import acceptance, cli\n"
              "acceptance.CORE_CRITERIA = [(1, 'passes', lambda: (True, {}))]\n"
              "acceptance.RERUN = 'import sys; sys.stdout.write(%r)' % (\n"
              "    acceptance.canonical_report(acceptance.run_core()[0]))\n"
              "sys.argv = ['lienil', 'reproduce-all']\n"
              "cli.console_main()\n")
    assert closed_pipe_run(["-c", script], "stderr") == (2, b"")
