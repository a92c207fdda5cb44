import math
import random

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


def test_constructor_refuses_letters_below_one():
    # every alphabet is 1..N, so 0.2(3) named no word of any carpet
    for pre, per, bad in (((0, 2), (3,), 0), ((), (1, -4), -4), ((), (0,), 0)):
        with pytest.raises(ValueError, match=f"^letter {bad} below 1 in a word$"):
            PeriodicWord(pre, per)
    with pytest.raises(ValueError, match="letter 0 below 1"):
        parse_word("0.2(3)")
    assert str(PeriodicWord((1,), (2,))) == "1(2)"


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


def test_shift_refuses_a_negative_count():
    # shift(-1) of 1.2.3(4) used to return 3(4), as if it dropped letters
    w = PeriodicWord((1, 2, 3), (4,))
    for k in (-1, -4):
        with pytest.raises(IndexError):
            w.shift(k)
    assert w.shift(0) == w and w.shift(4) == PeriodicWord((), (4,))


def reference_canonical(pre, per):
    """The canonical form as the constructor computed it before it set
    each field once: primitive root by every divisor, then one rotation
    per absorbed preperiod letter."""
    pre, per = tuple(pre), tuple(per)
    n = len(per)
    per = next(per[:d] for d in range(1, n + 1) if n % d == 0 and per[:d] * (n // d) == per)
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


def test_canonical_form_agrees_with_the_reference():
    """10,000 seeded words, from tuples, lists and ranges; many periods
    are powers and many preperiods end in copies of the period."""
    rng = random.Random(19)
    absorbed = powers = 0
    for trial in range(10_000):
        N = rng.randint(1, 4)
        if trial % 3 == 2:  # ranges of consecutive letters
            a, b = rng.randint(1, N), rng.randint(1, N)
            pre, per = range(a, a + rng.randint(0, 3)), range(b, b + rng.randint(1, 3))
        else:
            root = [rng.randint(1, N) for _ in range(rng.randint(1, 3))]
            per = root * rng.randint(1, 3)
            pre = [rng.randint(1, N) for _ in range(rng.randint(0, 3))] + per * rng.randint(0, 2)
            if trial % 3 == 0:
                pre, per = tuple(pre), tuple(per)
        w = PeriodicWord(pre, per)
        assert (w.preperiod, w.period) == reference_canonical(pre, per), (pre, per)
        assert w == PeriodicWord(w.preperiod, w.period)
        assert hash(w) == hash(PeriodicWord(w.preperiod, w.period))
        assert repr(w) == f"PeriodicWord(preperiod={w.preperiod!r}, period={w.period!r})"
        absorbed += len(w.preperiod) < len(pre)
        powers += len(w.period) < len(per)
    assert absorbed > 1000 and powers > 1000
