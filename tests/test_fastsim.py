import pytest

from carpetauto.fastsim import MAX_LETTER, stems_to_array


def test_letters_outside_uint8_are_rejected():
    X = stems_to_array([(1, 2), ()], [3, MAX_LETTER], 3)
    assert X.tolist() == [[1, 2, 3], [MAX_LETTER] * 3]
    for stems, tails in (([(1, 256)], [3]), ([(1,)], [300]), ([()], [-1])):
        with pytest.raises(ValueError, match="outside 0..255"):
            stems_to_array(stems, tails, 3)
