import math

import pytest
from hypothesis import given, strategies as st

from carpetauto.words import PeriodicWord, common_prefix_length, parse_word


def test_period_reduced_to_primitive_root():
    w = PeriodicWord((), (2, 1, 2, 1))
    assert w.period == (2, 1)


def test_preperiod_absorbed_into_period_rotation():
    # 1.2(1.2) is the same sequence as (1.2)
    w = PeriodicWord((1, 2), (1, 2))
    assert w == PeriodicWord((), (1, 2))


def test_trailing_letter_rotates_into_period():
    # 3.1(2.1) = 3(1.2)
    w = PeriodicWord((3, 1), (2, 1))
    assert w.preperiod == (3,)
    assert w.period == (1, 2)


def test_letters_are_one_indexed():
    w = PeriodicWord((5,), (1, 2))
    assert [w.letter(k) for k in range(1, 6)] == [5, 1, 2, 1, 2]
    with pytest.raises(IndexError):
        w.letter(0)


def test_constructor_refuses_letters_that_are_not_integers():
    # (1.5,)(2) used to print as 1.5(2), and surviving_time read 1.5 as no
    # letter of the automaton, so Exit
    for pre, per, bad in (((1.5,), (2,), "1.5"), ((), (2, "3"), "'3'"), ((True,), (2,), "True"),
                          ((1,), (2.0,), "2.0")):
        with pytest.raises(ValueError, match=f"non-integer letter {bad} in a word"):
            PeriodicWord(pre, per)
    assert str(PeriodicWord((1,), (2, 3))) == "1(2.3)"


def test_constant_word():
    w = PeriodicWord.constant(3)
    assert w.letter(1) == w.letter(100) == 3


def test_shift_drops_first_letter():
    w = PeriodicWord((4, 5), (1,))
    assert w.shift().preperiod == (5,)
    assert w.shift().shift() == PeriodicWord((), (1,))


def test_parse_and_str_round_trip():
    for text in ["(4)", "1.3.2(4)", "2(1.2.3)"]:
        w = parse_word(text)
        assert parse_word(str(w)) == w


def test_parse_rejects_garbage():
    for text in ["", "1.2", "()", "1.(", "a(b)"]:
        with pytest.raises(ValueError):
            parse_word(text)


def test_common_prefix_length_basic():
    x = parse_word("1.2(3)")
    y = parse_word("1.2(4)")
    assert common_prefix_length(x, y) == 2
    assert common_prefix_length(x, x) == math.inf


def test_common_prefix_length_detects_equal_spellings():
    x = PeriodicWord((1, 2), (1, 2))
    y = PeriodicWord((), (1, 2))
    assert common_prefix_length(x, y) == math.inf


@given(
    st.lists(st.integers(1, 4), max_size=4),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
)
def test_canonical_form_preserves_the_sequence(pre, per):
    w = PeriodicWord(tuple(pre), tuple(per))
    reference = pre + per * 8
    assert [w.letter(k) for k in range(1, len(reference) + 1)] == reference


@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
def test_equality_agrees_with_letterwise_comparison(pre1, per1, pre2, per2):
    a = PeriodicWord(tuple(pre1), tuple(per1))
    b = PeriodicWord(tuple(pre2), tuple(per2))
    horizon = 24  # beyond pre + lcm of all period lengths used here
    same = all(a.letter(k) == b.letter(k) for k in range(1, horizon + 1))
    assert (a == b) == same


@given(
    st.lists(st.integers(1, 4), max_size=4),
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(1, 3),
)
def test_prefix_agrees_with_letter(pre, root, reps):
    # the input period root^reps is not primitive when reps > 1
    w = PeriodicWord(tuple(pre), tuple(root * reps))
    for k in range(3 * (len(pre) + len(root) * reps) + 1):
        assert w.prefix(k) == tuple(w.letter(i) for i in range(1, k + 1))
    with pytest.raises(IndexError):
        w.prefix(-1)
