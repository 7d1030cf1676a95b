import hashlib
import json
import time

import pytest

from kleinfour import cli, zeta
from kleinfour.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert doc["schema"] == "k4/1"
    return code, doc


def test_check_exit_codes(capsys):
    code, doc = run_json(capsys, "check", "-g", "6", "-s", "5")
    assert code == 1 and doc["exists"] is False

    code, doc = run_json(capsys, "check", "-g", "5", "-s", "1", "-p", "3,1,1")
    assert code == 0 and doc["exists"] is True and doc["clause"] == "none"

    code, _, err = run(capsys, "check", "-g", "5", "-s", "1", "-p", "4,1,0")
    assert code == 2 and "error" in err

    code, doc = run_json(capsys, "check", "-g", "6", "-s", "3", "-p", "3,2,1")
    assert code == 1 and doc["clause"] == "v"


def test_check_rank_only(capsys):
    code, doc = run_json(capsys, "check", "-g", "7", "-s", "7")
    assert code == 0 and doc["exists"] is True
    code, doc = run_json(capsys, "check", "-g", "6", "-s", "1")
    assert code == 1


def test_construct_witness(capsys):
    code, doc = run_json(capsys, "construct", "-g", "5", "-s", "2",
                         "-p", "2,2,1")
    assert code == 0
    w = doc["witness"]
    assert w["genus"] == 5 and w["two_rank"] == 2
    assert w["type"] == [2, 2, 1]
    assert doc["recipe"]["lemma"] == "S2"

    code, doc = run_json(capsys, "construct", "-g", "9", "-s", "5",
                         "-p", "3,3,3", "--verify-depth", "4")
    assert code == 0
    assert doc["report"]["status"] == "confirmed"

    code, doc = run_json(capsys, "construct", "-g", "9", "-s", "2",
                         "-p", "3,3,3")
    assert code == 1 and doc["clause"] == "iii"


def test_construct_refuses_a_negative_verify_depth(capsys):
    code, out, err = run(capsys, "construct", "-g", "5", "-s", "2",
                         "-p", "2,2,1", "--verify-depth", "-3")
    assert code == 2 and out == "" and "verify depth" in err


@pytest.mark.parametrize("partition", ["1,1", "a,b,c"])
def test_a_malformed_partition_is_bad_input(capsys, partition):
    for command in ("check", "construct"):
        code, out, err = run(capsys, command, "-g", "5", "-s", "1",
                             "-p", partition)
        assert code == 2 and out == "" and "three integers" in err


def test_an_unknown_default_field_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("K4_DEFAULT_FIELD", "gf8")
    code, out, err = run(capsys, "invariants", "-f", "x^3")
    assert code == 2 and out == "" and "unknown field 'gf8'" in err


def test_a_report_not_confirmed_exits_3(capsys, monkeypatch):
    # the count oracle's report, marked as a mismatch, as a wrong witness
    # or a wrong count would leave it
    def mismatched(target, depth=None):
        report = zeta.verify(target, depth)
        report.status = "mismatch"
        return report

    monkeypatch.setattr(cli, "verify", mismatched)
    code, doc = run_json(capsys, "construct", "-g", "5", "-s", "2",
                         "-p", "2,2,1", "--verify-depth", "2")
    assert code == 3 and doc["report"]["status"] == "mismatch"
    code, doc = run_json(capsys, "table", "-g", "3", "--verify", "--json")
    assert code == 3
    verified = [row["verified"] for row in doc["rows"] if row["exists"]]
    assert verified and not any(verified)


def test_invariants(capsys):
    code, doc = run_json(capsys, "invariants", "-f", "x^3")
    assert code == 0 and (doc["genus"], doc["two_rank"]) == (1, 0)
    code, doc = run_json(capsys, "invariants", "-f", "1/(x^2+x+1)")
    assert code == 0 and (doc["genus"], doc["two_rank"]) == (1, 1)
    code, _, err = run(capsys, "invariants", "-f", "1/(x^2) + 1/x")
    assert code == 2  # degenerate
    code, _, err = run(capsys, "invariants", "-f", "a*x", "--field", "gf4")
    assert code == 0


def test_invariants_refuses_a_huge_exponent(capsys):
    t0 = time.perf_counter()
    for f in ("x^99999999", "1/x^257 + x", "x^3 + 1/(x^99999999+1)"):
        code, _, err = run(capsys, "invariants", "-f", f)
        assert code == 2 and "exceeds the cap of 256" in err
    assert time.perf_counter() - t0 < 1
    code, doc = run_json(capsys, "invariants", "-f", "x^256")
    assert code == 0


def test_invariants_refuses_a_high_degree_denominator(capsys):
    t0 = time.perf_counter()
    for f in ("1/(x^250+x^2+1) + 1/(x^251+x+1)", "1/(x^2+x+1)^129",
              "1/(x+1)^257"):
        code, out, err = run(capsys, "invariants", "-f", f)
        assert code == 2 and not out and "cap of 256" in err, f
    assert time.perf_counter() - t0 < 1


def test_invariants_names_a_bad_exponent_and_its_term(capsys):
    for f, exp, term in (("x^3 + (x+1)^2*x", "2*x", "(x+1)^2*x"),
                         ("x^a + 1", "a", "x^a"),
                         ("1/(x+1)^-1", "-1", "(x+1)^-1")):
        code, out, err = run(capsys, "invariants", "-f", f)
        assert code == 2 and not out, f
        assert f"exponent {exp!r} in term {term!r}" in err, err


def test_invariants_parses_a_power_of_a_polynomial(capsys):
    t0 = time.perf_counter()
    code, doc = run_json(capsys, "invariants", "-f", "1/(x+1)^2")
    assert code == 0 and (doc["genus"], doc["two_rank"]) == (0, 0)
    code, doc = run_json(capsys, "invariants", "-f", "x^3 + 1/(x^2+x+1)^3")
    assert code == 0 and (doc["genus"], doc["two_rank"]) == (5, 2)
    code, doc = run_json(capsys, "invariants", "--field", "gf4",
                         "-f", "a*(x+a)^2 + 1/(a*x+1)^3")
    assert code == 0 and (doc["genus"], doc["two_rank"]) == (2, 1)
    assert time.perf_counter() - t0 < 1


def test_invariants_env_field(capsys, monkeypatch):
    monkeypatch.setenv("K4_DEFAULT_FIELD", "gf4")
    code, doc = run_json(capsys, "invariants", "-f", "a*x^3")
    assert code == 0 and doc["genus"] == 1


def test_table_tsv(capsys):
    code, out, _ = run(capsys, "table", "-g", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["g", "sigma", "type", "exists", "clause"]
    rows = [ln.split("\t") for ln in lines[1:]]
    # sigma = 3 (= g-1) impossible throughout, clause iv; sigma = 1 clause ii
    for row in rows:
        if row[1] == "3":
            assert row[3] == "False" and row[4] == "iv"
        if row[1] == "1":
            assert row[3] == "False" and row[4] == "ii"


def test_table_g3_balanced_row(capsys):
    code, doc = run_json(capsys, "table", "-g", "3", "--json")
    assert code == 0
    rows = {(r["sigma"], tuple(r["type"])): r for r in doc["rows"]}
    assert rows[(2, (1, 1, 1))]["clause"] == "iii"


def test_table_verify(capsys):
    code, doc = run_json(capsys, "table", "-g", "5", "--verify", "--json")
    assert code == 0
    for row in doc["rows"]:
        if row["exists"]:
            assert row["verified"] is True


def test_table_verify_g12(capsys):
    code, doc = run_json(capsys, "table", "-g", "12", "--verify", "--json")
    assert code == 0
    verified = [r for r in doc["rows"] if r["exists"]]
    assert verified and all(r["verified"] for r in verified)


def test_table_verify_g13(capsys):
    # every g = 13 witness is over GF(2) or GF(4), so every count fits the
    # tables; a GF(16) witness here once kept this from finishing
    code, doc = run_json(capsys, "table", "-g", "13", "--verify", "--json")
    assert code == 0
    verified = [r for r in doc["rows"] if r["exists"]]
    assert len(verified) == 85 and all(r["verified"] for r in verified)


@pytest.mark.parametrize("cell", [("33", "31", "17,13,3"),
                                  ("90", "88", "45,41,4")])
def test_construct_once_refused_cells(capsys, cell):
    g, s, p = cell
    code, doc = run_json(capsys, "construct", "-g", g, "-s", s, "-p", p)
    assert code == 0
    assert (doc["witness"]["genus"], doc["witness"]["two_rank"]) == (
        int(g), int(s))


# sha256 of the stdout of `k4 construct -g 300 -s 300 -p 100,100,100`,
# recorded when one place step replaced the +3 induction chain
CONSTRUCT_G300_SHA256 = (
    "4017946a3725a9bd3f050889f0c36123a511bd4132f6d6f729e9014b22f17693")


def test_construct_g300_output_is_pinned(capsys):
    code, out, _ = run(capsys, "construct", "-g", "300", "-s", "300",
                       "-p", "100,100,100")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_G300_SHA256


def test_census_command(capsys):
    code, doc = run_json(capsys, "census", "--field", "gf4", "--max-deg", "1",
                         "--json")
    assert code == 0
    cells = {(c["g"], c["sigma"], tuple(c["type"])) for c in doc["cells"]}
    assert (0, 0, (0, 0, 0)) in cells
    assert (1, 1, (1, 0, 0)) in cells
    code, _, err = run(capsys, "census", "--max-deg", "9")
    assert code == 2
    code, out, err = run(capsys, "census", "--max-deg", "-1")
    assert code == 2 and not out and "error" in err


def test_negative_genus_is_bad_input(capsys):
    for argv in (["check", "-g", "-1", "-s", "0"],
                 ["check", "-g", "-1", "-s", "0", "-p", "0,0,-1"],
                 ["construct", "-g", "-1", "-s", "0", "-p", "0,0,-1"],
                 ["hyperelliptic", "-g", "-1", "-s", "0"],
                 ["table", "-g", "-2"],
                 ["table", "-g", "-2", "--json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert "genus must be >= 0" in err, argv


def test_genus_cap(capsys):
    from kleinfour.klein4 import MAX_GENUS
    assert MAX_GENUS >= 30  # the g <= 30 sweep still constructs
    g = MAX_GENUS + 1
    third = g // 3
    triple = f"{g - 2 * third},{third},{third}"
    for argv in (["table", "-g", str(g)],
                 ["table", "-g", str(g), "--json"],
                 ["table", "-g", str(g), "--verify"],
                 ["construct", "-g", str(g), "-s", str(g), "-p", triple]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert f"up to {MAX_GENUS}" in err, argv
        assert time.perf_counter() - start < 1, argv
    # the decision procedure stays uncapped
    for argv in (["check", "-g", "100000", "-s", "5"],
                 ["check", "-g", "100000", "-s", "5", "-p",
                  "40000,30000,30000"],
                 ["hyperelliptic", "-g", "100000", "-s", "5"]):
        start = time.perf_counter()
        code, _ = run_json(capsys, *argv)
        assert code in (0, 1), argv
        assert time.perf_counter() - start < 1, argv


def test_hyperelliptic(capsys):
    code, doc = run_json(capsys, "hyperelliptic", "-g", "5", "-s", "3")
    assert code == 0 and doc["extra_involution"] is True
    code, doc = run_json(capsys, "hyperelliptic", "-g", "5", "-s", "2")
    assert code == 0 and doc["extra_involution"] is False
    code, doc = run_json(capsys, "hyperelliptic", "-g", "0", "-s", "0")
    assert code == 0 and doc["extra_involution"] is True


def test_seed_flag_accepted(capsys):
    code, _ = run_json(capsys, "--seed", "7", "invariants", "-f", "x^3")
    assert code == 0
    # --seed is a no-op: the output is the same bytes without it
    code, seeded, _ = run(capsys, "--seed", "7", "table", "-g", "6", "--json")
    assert code == 0
    code, plain, _ = run(capsys, "table", "-g", "6", "--json")
    assert code == 0 and seeded == plain


# sha256 of verify outputs: the first two as printed by the oracle that
# evaluated each closed point with a scalar log-domain Horner loop, the
# 16-bit counts of g = 16 as printed by the lane kernel that mapped each
# lane through per-field state tables.
VERIFY_OUTPUT_SHA256 = {
    "table -g 12 --verify --json":
        "253cfee194f0e966556488552a517b01"
        "2e911ce98c2b5ce9e9dc7770fa7b5c5c",
    "table -g 16 --verify --json":
        "cec2ce9c1caf75464cf20ff8c96dd859"
        "56f83764a9f5e411ef16f23c029ff7c7",
    "construct -g 9 -s 5 -p 3,3,3 --verify-depth 4":
        "1786fdbdb32bd2bad39ad4c9283cf06f"
        "944ca89e752e919566922efde0d48f71",
}


@pytest.mark.parametrize("argv", sorted(VERIFY_OUTPUT_SHA256))
def test_verify_output_is_unchanged(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_OUTPUT_SHA256[argv]


# sha256 of outputs with no oracle in them: the full g = 20 table, and
# canonical forms of inputs with even-order poles at several places,
# degree-2 places of order 4 and 6 among them, as printed when
# partial fractions were still lists of digit polynomials.
OUTPUT_SHA256 = {
    "table -g 20 --json":
        "4330db43ef45898cfa6408f510d199bc"
        "0fa9a2595052479d84db6a3dfb3c977b",
    "invariants --field gf2 -f x^4+1/x^2+1/(x+1)^4":
        "c1a8d7c26506e21dcb3c49c747000c9e"
        "92a6ab46240f68d326757d91009212b5",
    "invariants --field gf2 -f 1/(x^2+x+1)^4+x^6+1/x^2":
        "e6c41293d6957867400fbd3dd1e81122"
        "379547e52cdca5e3dcf519e2a98a3bc4",
    "invariants --field gf2 -f x/(x^2+x+1)^6+1/(x+1)^2+x^2":
        "a27fe48b1174d8ed91c1e501fd1a6c26"
        "975557f2ec6a09f473203b8177c609be",
    "invariants --field gf4 -f a/(x^2+x+a)^4+x^2+(a+1)/x^4":
        "ef95faf6f9c74fd404df59aa1b609357"
        "284522f91dc87566d63a488cf285db3b",
    "invariants --field gf4 -f 1/(x^2+x+a)^6+a*x^4+1/(x+a)^2":
        "2783ba91c440cb5ded13f9f9c7801589"
        "c895bce211546598444095290b7b1d47",
    "invariants --field gf4 -f (a*x+1)/(x^3+x+1)^2+1/(x+1)^4+x^8":
        "12644df04d3fd9b69cc54f6c2f7d9886"
        "d9f5cba3f65e2285fcf8a84423f4c5da",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256))
def test_output_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[argv]
