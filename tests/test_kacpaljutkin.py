"""Gate for the optional 8-dimensional quantum-group catalog entry.

The entry ships only because this verification passes: every axiom holds
exactly, the algebra is saturated, and it is neither commutative nor
cocommutative (so it is not a function or group algebra in disguise).
"""
from hopfcoh.amenability import check_codiagonal_vanishing, find_codiagonal
from hopfcoh.cochain import Workspace
from hopfcoh.catalog import get_algebra
from hopfcoh.hopf import check_axioms, check_saturated, counit_find
from hopfcoh.kacpaljutkin import kac_paljutkin
from hopfcoh.linalg import tensor_permutation
from reference import ref_kac_paljutkin


def test_kp8_axioms_exact():
    h = kac_paljutkin()
    report = check_axioms(h)
    assert report.ok, [c.name for c in report.checks if not c.passed]


def test_kp8_tensors_equal_the_fraction_derivation():
    """The integer word table gives the same mult, comult and star, numerators and den."""
    h = kac_paljutkin()
    assert (h.mult, h.comult, h.star) == ref_kac_paljutkin()


def test_kp8_saturated():
    assert check_saturated(kac_paljutkin()) == (True, True)


def test_kp8_neither_commutative_nor_cocommutative():
    h = kac_paljutkin()
    swap = tensor_permutation([8, 8], [1, 0])
    assert h.mult != h.mult @ swap
    assert h.comult != swap @ h.comult


def test_kp8_counit_two_sided():
    res = counit_find(kac_paljutkin())
    assert res.functional is not None and res.two_sided


def test_kp8_codiagonal_and_vanishing():
    h = get_algebra("kp8")
    assert find_codiagonal(h).certificate is not None
    out = check_codiagonal_vanishing(Workspace(h, 3))
    assert out.passed, out.details


def test_kp8_degree_zero_sees_the_block_structure():
    # the dual algebra is self-dual with centre C^4 (+) centre(M_2): dim 5
    from hopfcoh.cochain import build_complex, cohomology
    from hopfcoh.comodule import Bicomodule, regular_left_coaction, regular_right_coaction

    h = kac_paljutkin()
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    assert cohomology(build_complex(b, "dual", 1), 0).dim == 5
