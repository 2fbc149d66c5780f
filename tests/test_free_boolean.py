import pytest

from b1algebra import (
    Permutation,
    automorphisms,
    brute_force_automorphisms,
    free_extend,
    free_module,
    perm_to_aut,
    validate_module,
)
from b1algebra.errors import SizeTooLarge


def three_chain():
    return validate_module(("0", "u", "v"), ((0, 1, 2), (1, 1, 2), (2, 2, 2)))


def test_free_module_is_the_powerset():
    f = free_module(3)
    assert f.size == 8
    assert f.basis_size == 3
    assert f.names[0] == "{}"
    assert f.sum[1][2] == 3  # {0}+{1} = {0,1}


def test_free_module_rank_zero():
    f = free_module(0)
    assert f.size == 1


def test_free_extend_sends_generators_and_joins():
    f = free_module(2)
    ch = three_chain()
    rho = free_extend(f, ch, (1, 2))  # x -> u, y -> v
    assert rho.map[1] == 1
    assert rho.map[2] == 2
    assert rho.map[3] == 2  # {x,y} -> u+v = v
    assert rho.map[0] == 0


def test_free_extend_is_a_morphism_for_every_image_choice():
    f = free_module(2)
    ch = three_chain()
    for i in range(3):
        for j in range(3):
            rho = free_extend(f, ch, (i, j))
            for a in range(f.size):
                for b in range(f.size):
                    assert rho.map[a | b] == ch.sum[rho.map[a]][rho.map[b]]


def test_free_extend_checks_image_count():
    with pytest.raises(ValueError):
        free_extend(free_module(2), three_chain(), (1,))


@pytest.mark.parametrize("image", [1.0, "1", -1, 3])
def test_free_extend_checks_that_each_image_is_a_target_index(image):
    with pytest.raises(ValueError, match="is not an element of the target"):
        free_extend(free_module(2), three_chain(), (1, image))


def test_automorphism_counts_are_factorials():
    assert [len(automorphisms(n)) for n in range(1, 5)] == [1, 2, 6, 24]


def test_transposition_swaps_singletons():
    swap = perm_to_aut(Permutation((1, 0)))
    assert swap.map == (0, 2, 1, 3)


def test_three_cycle_moves_singletons_in_one_orbit():
    rho = perm_to_aut(Permutation((1, 2, 0)))
    singles = [1 << i for i in range(3)]
    seen = {singles[0]}
    x = singles[0]
    for _ in range(3):
        x = rho.map[x]
        seen.add(x)
    assert seen == set(singles)


def test_every_automorphism_comes_from_its_permutation():
    for n in range(1, 5):
        for aut in automorphisms(n):
            assert aut.map == perm_to_aut(aut.permutation).map


def test_automorphisms_fix_bottom_and_top():
    for aut in automorphisms(3):
        assert aut.map[0] == 0
        assert aut.map[7] == 7


def test_brute_force_arm_finds_no_extra_automorphisms():
    # the oracle drops the permutation assumption entirely
    for n in range(1, 4):
        brute = sorted(f.map for f in brute_force_automorphisms(n))
        induced = sorted(f.map for f in automorphisms(n))
        assert brute == induced


def test_brute_force_arm_is_capped():
    with pytest.raises(SizeTooLarge):
        brute_force_automorphisms(4)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0))


def test_automorphism_group_is_closed_under_composition():
    auts = automorphisms(3)
    maps = {a.map for a in auts}
    for f in auts:
        for g in auts:
            comp = tuple(f.map[g.map[x]] for x in range(len(f.map)))
            assert comp in maps
