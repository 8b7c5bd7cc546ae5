from fractions import Fraction

import pytest

from hopfcoh.scalars import Scalar, format_scalar, parse_scalar


def test_exact_addition_roundtrip():
    a = Scalar(Fraction(1, 3), Fraction(-2, 7))
    b = Scalar(Fraction(5, 11), Fraction(9, 13))
    assert (a + b) - b == a


def test_multiplication_and_division():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a * b == Scalar(5, 5)
    assert (a * b) / b == a
    assert a / a == Scalar(1)


def test_conjugate_and_abs2():
    z = Scalar(Fraction(2, 3), Fraction(1, 5))
    assert z * z.conjugate() == Scalar(z.re * z.re + z.im * z.im)
    assert z.conjugate().conjugate() == z


def test_real_comparisons_only():
    assert Scalar(Fraction(1, 2)) < Scalar(1)
    with pytest.raises(ValueError):
        _ = Scalar(0, 1) < Scalar(1)


def test_format_canonical():
    assert format_scalar(Scalar(Fraction(3, 4))) == "3/4"
    assert format_scalar(Scalar(-2)) == "-2"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
    assert format_scalar(Scalar(0, Fraction(-1, 2))) == "-1/2i"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"


def test_parse_forms():
    assert parse_scalar("7") == Scalar(7)
    assert parse_scalar("-3/5") == Scalar(Fraction(-3, 5))
    assert parse_scalar("1/2+1/3 i") == Scalar(Fraction(1, 2), Fraction(1, 3))
    assert parse_scalar("1/2-1/3i") == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("3i") == Scalar(0, 3)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("1/0+2/3i")


def test_parse_format_roundtrip():
    for text in ("0", "5", "-7/3", "1/2+8/9i", "-4-i", "2/7i"):
        z = parse_scalar(text)
        assert parse_scalar(format_scalar(z)) == z
