"""End-to-end runs of the b1 command line tool."""
import pytest

from b1algebra import monogenic
from b1algebra.cli import run

CHAIN_ALGEBRA = """\
kind algebra
size 3
names 0 1 a
sum
0 1 a
1 1 1
a 1 a
mul
0 0 0
0 1 a
0 a a
"""

MU2 = "kind monoid\nsize 2\nnames 1 g\nmul\n1 g\ng 1\none 1\n"
B1 = "kind algebra\nsize 2\nnames 0 1\nsum\n0 1\n1 1\nmul\n0 0\n0 1\n"


@pytest.fixture()
def chain_file(tmp_path):
    p = tmp_path / "chain.alg"
    p.write_text(CHAIN_ALGEBRA)
    return str(p)


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_check_valid_algebra(capsys, chain_file):
    code, out = invoke(capsys, "check", chain_file)
    assert code == 0
    assert out == (
        "kind: algebra\nsize: 3\nvalid: true\n"
        "distributive: true\nmodular: true\n"
    )


def test_check_reports_law_violations(capsys, tmp_path):
    p = tmp_path / "bad.mod"
    p.write_text("kind module\nsize 2\nnames 0 t\nsum\n0 t\nt 0\n")
    code, out = invoke(capsys, "check", str(p))
    assert code == 1
    assert out.startswith("valid: false\nerror: NotIdempotent")


def test_check_reports_poset_law_violations(capsys, tmp_path):
    p = tmp_path / "bad.pos"
    p.write_text("kind poset\nsize 2\nleq\n1 1\n1 1\n")
    code, out = invoke(capsys, "check", str(p))
    assert code == 1
    assert out == "valid: false\nerror: LawViolation: leq is not antisymmetric\n"


def test_check_reports_parse_errors_with_location(capsys, tmp_path):
    p = tmp_path / "bad.mod"
    p.write_text("kind module\nsize 2\nnames 0 t\nsum\n0 t\nt q\n")
    code, out = invoke(capsys, "check", str(p))
    assert code == 2
    assert out == "parse error: unknown element `q` (line 6, column 3)\n"


def test_missing_file(capsys, tmp_path):
    code, out = invoke(capsys, "check", str(tmp_path / "nope.alg"))
    assert code == 2
    assert out.endswith("no such file\n")


def test_birkhoff_report(capsys, chain_file):
    code, out = invoke(capsys, "birkhoff", chain_file)
    assert code == 0
    assert out == (
        "size: 3\njoin_irreducibles: 1 a\ndownsets: 3\n"
        "birkhoff_bijective: true\ndistributive: true\n"
        "modular: true\nprojective: true\n"
    )


def test_gl_lists_the_symmetric_group(capsys):
    code, out = invoke(capsys, "gl", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: 6"
    assert len(lines) == 7
    assert lines[1] == "aut 0: ()"
    assert "aut 3: (0 1 2)" in lines


def test_gl_maps_flag(capsys):
    code, out = invoke(capsys, "gl", "1", "--maps")
    assert code == 0
    assert out == "order: 1\naut 0: ()\n  map: 0 1\n"


def test_monogenic_listing_and_oracle(capsys):
    code, out = invoke(capsys, "monogenic", "4", "--list", "--oracle")
    assert code == 0
    assert out == (
        "enumerated=7\nunmarked=7\noracle=7\n"
        "0: a^3=0; a+1=1\n1: a^3=a^2; a+1=1\n2: a^3=a^2; a+1=a\n"
        "3: a^2=0\n4: a^2=1\n5: a^2=a\n6: a+1=a^2\n"
    )


def test_monogenic_formula_agrees_through_size_five(capsys):
    code, out = invoke(capsys, "monogenic", "5", "--formula")
    assert code == 0
    assert out == "enumerated=14 formula=14\nunmarked=14\n"


def test_monogenic_formula_mismatch_is_a_finding(capsys):
    # the quadratic undercounts from size 6 on; the tool must say so
    code, out = invoke(capsys, "monogenic", "6", "--formula")
    assert code == 1
    assert out == "enumerated=32 formula=24\nunmarked=32\n"


def test_monogenic_input_errors(capsys):
    code, out = invoke(capsys, "monogenic", "1")
    assert code == 2
    assert "sizes start at 2" in out
    code, out = invoke(capsys, "monogenic", "9")
    assert code == 2
    assert "SizeTooLarge" in out


def test_monogenic_size_cap_is_fixed(capsys, monkeypatch):
    code, out = invoke(capsys, "monogenic", "9")
    assert code == 2
    assert out == "input error: SizeTooLarge: enumeration capped at 8\n"

    # refused before any lattice is enumerated
    def no_lattices(n):
        pytest.fail("enumerated lattices for a size beyond the cap")

    monkeypatch.setattr(monogenic, "enumerate_lattices", no_lattices)
    code, out = invoke(capsys, "monogenic", "13")
    assert code == 2
    assert out == "input error: SizeTooLarge: enumeration capped at 8\n"
    # the cap is not an option
    code, out = invoke(capsys, "monogenic", "3", "--max-n", "3")
    assert code == 2
    assert out == ""


def test_bad_integer_arguments_exit_2(capsys):
    assert invoke(capsys, "gl", "-1") == (
        2, "input error: basis size must be nonnegative\n"
    )
    for n in ("0", "11"):
        assert invoke(capsys, "maxspec", n) == (
            2, "input error: the variable count runs from 1 to 10\n"
        )


def test_maxspec_report(capsys):
    code, out = invoke(capsys, "maxspec", "2")
    assert code == 0
    assert out == (
        "variables: x1 x2\npoints: 4\nbattery_size: 130\nsampled: false\n"
        "pairwise_distinguished: true\nall_verified: true\n"
    )


def test_eval_in_a_file_algebra(capsys, chain_file):
    code, out = invoke(
        capsys, "eval", "--vars", "x,y", "--into", chain_file,
        "--map", "x=a,y=1", "x^2*y + x",
    )
    assert code == 0
    assert out == "a\n"


def test_eval_input_errors(capsys, chain_file):
    for bad_map in ("x=a", "x=a,z=1", "x=a,y=q", "xy"):
        code, out = invoke(
            capsys, "eval", "--vars", "x,y", "--into", chain_file,
            "--map", bad_map, "x + y",
        )
        assert code == 2
        assert out.startswith("input error:")


def test_simI_true_and_false(capsys):
    code, out = invoke(capsys, "simI", "--vars", "x,y", "--zero-set", "y",
                       "x + y", "x")
    assert (code, out) == (0, "true\n")
    code, out = invoke(capsys, "simI", "--vars", "x,y", "--zero-set", "y",
                       "x", "y")
    assert (code, out) == (1, "false\n")


def test_simI_parse_error_has_position(capsys):
    code, out = invoke(capsys, "simI", "--vars", "x", "--zero-set", "",
                       "x ++ 1", "x")
    assert code == 2
    assert out == "parse error: expected a variable, found '+' (at position 3)\n"


def test_simI_refuses_a_huge_exponent(capsys):
    code, out = invoke(capsys, "simI", "--vars", "x", "--zero-set", "x",
                       "x^" + "9" * 5000, "0")
    assert code == 2
    assert out == (
        "parse error: exponent is above the limit of 10000 (at position 2)\n"
    )


def test_functor_emits_a_loadable_algebra(capsys, tmp_path):
    mon = tmp_path / "mu2.mon"
    mon.write_text(MU2)
    code, out = invoke(capsys, "functor", str(mon))
    assert code == 0
    assert out.startswith("kind algebra\nsize 4\nnames {} {1} {g} {1,g}\n")
    emitted = tmp_path / "fmu2.alg"
    emitted.write_text(out)
    code, out = invoke(capsys, "check", str(emitted))
    assert code == 0
    assert "valid: true" in out


def test_eval_handles_braced_element_names(capsys, tmp_path):
    mon = tmp_path / "mu2.mon"
    mon.write_text(MU2)
    code, out = invoke(capsys, "functor", str(mon))
    emitted = tmp_path / "fmu2.alg"
    emitted.write_text(out)
    code, out = invoke(
        capsys, "eval", "--vars", "x", "--into", str(emitted),
        "--map", "x={g}", "x^2",
    )
    assert (code, out) == (0, "{1}\n")


def test_adjoint_counts_match(capsys, tmp_path):
    mon = tmp_path / "mu2.mon"
    mon.write_text(MU2)
    alg = tmp_path / "b1.alg"
    alg.write_text(B1)
    code, out = invoke(capsys, "adjoint", str(mon), str(alg))
    assert code == 0
    assert out == "hom_algebra: 1\nhom_monoid: 1\n"


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["gl"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "monogenic", "4", "--list")
    second = invoke(capsys, "monogenic", "4", "--list")
    assert first == second
    assert invoke(capsys, "gl", "3") == invoke(capsys, "gl", "3")


def test_consecutive_runs_share_no_state(capsys):
    # the parser is built once per process; flags must not carry over
    code, out = invoke(capsys, "gl", "2", "--maps")
    assert code == 0 and "map:" in out
    code, out = invoke(capsys, "gl", "2")
    assert code == 0
    assert out == "order: 2\naut 0: ()\naut 1: (0 1)\n"
    assert run(["gl"]) == 2
    capsys.readouterr()
    assert invoke(capsys, "gl", "1") == (0, "order: 1\naut 0: ()\n")
