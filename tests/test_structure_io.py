"""Reading and writing the line-oriented structure files."""
import pytest

from b1algebra import (
    FinAlgebra,
    FinModule,
    FinMonoid,
    FinPoset,
    b1_algebra,
    close_presentation,
    cyclic_group,
    free_module,
    parse_presentation,
    parse_structure,
    render_structure,
)
from b1algebra.errors import LawViolation, NoBottom, NoUnit, StructureParseError
from b1algebra.structure_io import MAX_SIZE

ALGEBRA_TEXT = """\
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


def test_parse_algebra():
    alg = parse_structure(ALGEBRA_TEXT)
    assert isinstance(alg, FinAlgebra)
    assert alg.names == ("0", "1", "a")
    assert alg.bottom == 0 and alg.unit == 1
    assert alg.mul[2][2] == 2  # a^2 = a


def test_parse_module_and_default_names():
    mod = parse_structure("kind module\nsize 2\nsum\ne0 e1\ne1 e1\n")
    assert isinstance(mod, FinModule)
    assert mod.names == ("e0", "e1")
    assert mod.bottom == 0


def test_parse_poset():
    pos = parse_structure("kind poset\nsize 2\nnames x y\nleq\n1 1\n0 1\n")
    assert isinstance(pos, FinPoset)
    assert pos.leq == ((1, 1), (0, 1))


@pytest.mark.parametrize(
    "rows, law, witness",
    [
        ("1 0\n0 0\n", "reflexive", (1,)),
        ("1 1\n1 1\n", "antisymmetric", (0, 1)),
        ("1 1 0\n0 1 1\n0 0 1\n", "transitive", (0, 1, 2)),
    ],
)
def test_poset_laws_are_checked(rows, law, witness):
    size = rows.count("\n")
    with pytest.raises(LawViolation) as info:
        parse_structure(f"kind poset\nsize {size}\nleq\n{rows}")
    assert str(info.value) == f"leq is not {law}"
    assert info.value.witness == witness


def test_parse_monoid():
    mon = parse_structure(
        "kind monoid\nsize 2\nnames 1 g\nmul\n1 g\ng 1\none 1\n"
    )
    assert isinstance(mon, FinMonoid)
    assert mon.unit == 0


def test_comments_and_blank_lines_are_skipped():
    noisy = (
        "# header comment\n\nkind module\n size 2   # inline\n"
        "names 0 t\nsum\n0 t\nt t  \n\n# trailing\n"
    )
    assert parse_structure(noisy).names == ("0", "t")


def test_round_trips():
    cases = [
        b1_algebra(),
        free_module(2),
        cyclic_group(3),
        parse_structure(ALGEBRA_TEXT),
        close_presentation(parse_presentation("a^2 = a + 1")).algebra,
    ]
    for obj in cases:
        back = parse_structure(render_structure(obj))
        assert back.names == obj.names
        assert isinstance(obj, type(back))  # files reload as the base kinds
        if hasattr(obj, "sum"):
            assert back.sum == obj.sum
        if hasattr(obj, "mul"):
            assert back.mul == obj.mul
        if isinstance(obj, FinPoset):
            assert back.leq == obj.leq


def test_quotient_names_survive_the_file_format():
    # generated element names like a+1 are written without spaces on purpose
    alg = close_presentation(parse_presentation("a^2 = a + 1")).algebra
    assert "a+1" in alg.names
    assert parse_structure(render_structure(alg)).names == alg.names


def test_poset_render_uses_bit_rows():
    text = render_structure(FinPoset(("x", "y"), ((1, 1), (0, 1))))
    assert "leq\n1 1\n0 1\n" in text


def err(text):
    with pytest.raises(StructureParseError) as info:
        parse_structure(text)
    return info.value


def test_empty_input():
    e = err("")
    assert e.line == 1
    assert "empty" in str(e)


def test_unknown_kind():
    e = err("kind widget\nsize 1\n")
    assert e.line == 1
    assert "kind must be one of" in str(e)


def test_missing_keyword_reports_what_it_saw():
    e = err("kind module\nsum\n0\n")
    assert e.line == 2
    assert "expected `size`" in str(e)


def test_bad_size():
    assert err("kind module\nsize zero\n").line == 2
    assert err("kind module\nsize 0\n").line == 2
    assert err("kind module\nsize \u00b2\n").line == 2
    # refused before any name or row is built for it
    for size in (str(10**12), "9" * 5000, "0" * 5000 + "65"):
        e = err(f"kind module\nsize {size}\n")
        assert e.line == 2
        assert "above the limit of 64" in str(e)
    assert parse_structure("kind module\nsize 001\nsum\ne0\n").size == 1


def test_size_limit_admits_the_largest_built_structure():
    free = free_module(6)
    assert free.size == MAX_SIZE
    back = parse_structure(render_structure(free))
    assert (back.names, back.sum) == (free.names, free.sum)


def test_wrong_name_count():
    e = err("kind module\nsize 2\nnames a b c\nsum\na b\nb b\n")
    assert e.line == 3
    assert "3 names for size 2" in str(e)


def test_duplicate_names():
    e = err("kind module\nsize 2\nnames a a\nsum\na a\na a\n")
    assert e.line == 3
    assert "not distinct" in str(e)


def test_unknown_element_has_line_and_column():
    e = err("kind module\nsize 2\nnames 0 t\nsum\n0 t\nt q\n")
    assert (e.line, e.column) == (6, 3)
    assert "unknown element `q`" in str(e)
    assert "line 6, column 3" in str(e)


def test_short_row():
    e = err("kind module\nsize 2\nnames 0 t\nsum\n0 t\nt\n")
    assert e.line == 6
    assert "1 entries, expected 2" in str(e)


def test_missing_row_points_at_the_block_header():
    e = err("kind module\nsize 2\nnames 0 t\nsum\n0 t\n")
    assert e.line == 4
    assert "missing row 2" in str(e)


def test_bad_leq_entry():
    e = err("kind poset\nsize 2\nleq\n1 1\n0 2\n")
    assert (e.line, e.column) == (5, 3)
    assert "0 or 1" in str(e)


def test_trailing_content():
    e = err("kind poset\nsize 1\nleq\n1\nextra\n")
    assert e.line == 5
    assert "trailing" in str(e)


def test_monoid_one_must_name_the_neutral_element():
    with pytest.raises(NoUnit):
        parse_structure("kind monoid\nsize 2\nnames 1 g\nmul\n1 g\ng 1\none g\n")
    e = err("kind monoid\nsize 2\nnames 1 g\nmul\n1 g\ng 1\none q\n")
    assert "unknown element `q`" in str(e)


def test_module_bottom_must_sit_at_index_zero():
    with pytest.raises(NoBottom):
        parse_structure("kind module\nsize 2\nnames t 0\nsum\nt t\nt 0\n")


def test_algebra_unit_must_sit_at_index_one():
    text = (
        "kind algebra\nsize 3\nnames 0 x 1\n"
        "sum\n0 x 1\nx x 1\n1 1 1\n"
        "mul\n0 0 0\n0 x x\n0 x 1\n"
    )
    with pytest.raises(NoUnit):
        parse_structure(text)
