"""End-to-end CLI runs: JSON in, JSON out, and the exit code contract."""

import json

import pytest

from lienil.cli import main
from lienil.scalars import MAX_ORDER

GRING = {"type": "grassmann", "g": 2, "root_order": 1}


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
    # rho over Q(zeta_70): a root of unity of order above 64
    src = write(tmp_path, "rho.json", {
        "ring": {"type": "grassmann", "g": 2, "root_order": 70},
        "delta": "rho_e:70", "element": {"coeffs": {"1": "1"}}})
    code, doc = run(capsys, ["embed", src, "--n", "2", "--root", "70"])
    assert code == 0 and doc["matrix"]["n"] == 2


def test_example_command(capsys):
    code, doc = run(capsys, ["example", "5.2", "--n", "2", "--g", "2"])
    assert code == 0
    assert doc["spec"]["n"] == 2
    assert len(doc["shape"]) == 2 and doc["shape"][0][0]["dim"] == 2


def test_invalid_input_exit_code(tmp_path, capsys):
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
         for text in ("1/0", "0/0", "a - oo", "a/0")] + [
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
         for entry in ("1/0", "[1/0]", {"coeffs": {"1": "2/0"}})]
    for i, doc in enumerate(malformed):
        bad = write(tmp_path, f"bad{i}.json", doc)
        assert main(["sdet", bad]) == 2, doc
        assert "error" in json.loads(capsys.readouterr().err), doc
    src = write(tmp_path, "embed.json", {
        "ring": GRING, "delta": "epsilon", "element": "1"})
    assert main(["embed", src, "--n", "0"]) == 2
    assert "error" in json.loads(capsys.readouterr().err)


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
    for argv in (["sdet", src],
                 ["example", "5.2", "--n", str(too_big), "--g", "2"],
                 ["embed", elem, "--n", "2", "--root", str(too_big)],
                 ["embed", elem, "--n", str(too_big)],
                 ["embed", elem, "--n", str(too_big), "--root", "1"]):
        assert main(argv) == 3, argv
        assert "error" in json.loads(capsys.readouterr().err), argv
