import hashlib
import itertools
import math

import pytest

from carpetauto.gmap import (
    GContext,
    OmegaWord,
    g0,
    g0_inverse,
    g_apply,
    h_apply,
    m_decompose,
    m_prime_decompose,
)
from carpetauto.words import common_prefix_length

# canonical context on five letters: gamma=1, lambda=2, kappa=3, tau=4
CTX = GContext(gamma=1, lam=2, kappa=3, tau=4)


def words(max_stem, letters=5):
    out = []
    for k in range(max_stem + 1):
        for stem in itertools.product(range(1, letters + 1), repeat=k):
            out.append(OmegaWord(stem, CTX.kappa))
    return sorted(set(out), key=lambda w: (len(w.stem), w.stem))


def test_context_validation():
    with pytest.raises(ValueError):
        GContext(1, 1, 3, 4)
    with pytest.raises(ValueError):
        GContext(1, 2, 3, 1)
    with pytest.raises(ValueError):
        GContext(1, 2, 3, 3)
    GContext(1, 2, 3, 2)  # tau may equal lambda


def test_omega_word_strips_kappa_tail():
    w = OmegaWord((5, 1, 3, 3), 3)
    assert w.stem == (5, 1)
    assert [w.letter(k) for k in (1, 2, 3, 9)] == [5, 1, 3, 3]


def test_decomposition_segments():
    # tau gamma^3 | 5 | kappa lam kappa gamma
    x = OmegaWord((4, 1, 1, 1, 5, 3, 2, 3, 1), 3)
    assert m_decompose(CTX, x) == [(4, 1, 1, 1), (5,), (3, 2, 3, 1)]
    # tau followed by a single gamma stays singletons
    y = OmegaWord((4, 1, 5), 3)
    assert m_decompose(CTX, y) == [(4,), (1,), (5,)]
    # an unfinished kappa-lambda run stays singletons
    z = OmegaWord((3, 2, 2, 5), 3)
    assert m_decompose(CTX, z) == [(3,), (2,), (2,), (5,)]


def test_image_decomposition_takes_the_extra_gamma():
    u = OmegaWord((3, 2, 3, 1, 1, 5), 3)
    assert m_prime_decompose(CTX, u) == [(3, 2, 3, 1, 1), (5,)]
    v = OmegaWord((4, 1, 1, 5), 3)
    assert m_prime_decompose(CTX, v) == [(4, 1, 1), (5,)]
    # a longer gamma run after tau still begins with the tau-gamma-gamma
    # segment; the surplus gamma is a singleton
    w = OmegaWord((4, 1, 1, 1), 3)
    assert m_prime_decompose(CTX, w) == [(4, 1, 1), (1,)]


def test_segment_map_values():
    assert g0(CTX, (4, 1, 1)) == (3, 3, 1)           # tau g g -> k k g
    assert g0(CTX, (4, 1, 1, 1)) == (3, 2, 3, 1)     # tau g^3 -> k l k g
    assert g0(CTX, (3, 3, 1)) == (4, 1, 1)           # k k g -> tau g g
    assert g0(CTX, (3, 2, 3, 1)) == (3, 3, 1, 1)     # k l k g -> k k g g
    assert g0(CTX, (5,)) == (5,)
    with pytest.raises(ValueError):
        g0(CTX, (4, 1))


def test_segment_map_inverse():
    for seg in [(4, 1, 1), (4, 1, 1, 1), (4, 1, 1, 1, 1), (3, 3, 1),
                (3, 2, 3, 1), (3, 2, 2, 3, 1), (2,), (5,)]:
        assert g0_inverse(CTX, g0(CTX, seg)) == seg


def test_g_is_length_preserving_on_stems():
    for w in words(5):
        assert len(g_apply(CTX, w).stem) == len(w.stem)


def test_g_is_a_bijection_on_short_stems():
    pool = words(5)
    images = [g_apply(CTX, w) for w in pool]
    assert len(set(images)) == len(pool)
    for w, u in zip(pool, images):
        assert h_apply(CTX, u) == w


def test_h_after_g_and_g_after_h_are_identity():
    for w in words(4, letters=4):
        assert h_apply(CTX, g_apply(CTX, w)) == w
        assert g_apply(CTX, h_apply(CTX, w)) == w


def test_image_segments_belong_to_image_alphabet():
    # applying g then re-decomposing with the image alphabet recovers
    # exactly the mapped segments
    for w in words(5):
        mapped = [g0(CTX, seg) for seg in m_decompose(CTX, w)]
        joined = tuple(a for seg in mapped for a in seg)
        u = OmegaWord(joined, CTX.kappa)
        if joined and all(a == CTX.kappa for a in joined[len(u.stem):]):
            got = m_prime_decompose(CTX, u)
            # trailing kappa singletons may be absorbed into the tail
            flat = tuple(a for seg in got for a in seg)
            assert flat == u.stem


def test_common_prefix_of_images_is_controlled():
    # g changes each segment in place, so images of words sharing a long
    # prefix still share all fully-contained segments
    pool = words(5)
    for x, y in itertools.combinations(pool[:120], 2):
        p = common_prefix_length(x.to_periodic(), y.to_periodic())
        q = common_prefix_length(g_apply(CTX, x).to_periodic(), g_apply(CTX, y).to_periodic())
        if math.isinf(p):
            assert math.isinf(q)
        else:
            assert abs(p - q) <= 4


def test_gamma_free_words_are_fixed():
    w = OmegaWord((5, 2, 4, 2, 5), 3)
    assert g_apply(CTX, w) == w
    assert h_apply(CTX, w) == w


def test_every_map_refuses_a_gamma_tail():
    # a gamma tail would continue the image segment kappa kappa gamma past
    # the stem, so h would map 3.3(1) to 3.3(1) and g would refuse that
    x = OmegaWord((3, 3), CTX.gamma)
    for fn in (m_decompose, m_prime_decompose, g_apply, h_apply):
        with pytest.raises(ValueError, match="tail letter clashes with gamma"):
            fn(CTX, x)


# The outcome of every public map on every short input, hashed.  The
# digest was recorded before the segment readers were merged into one,
# and again when m' and h began to refuse a gamma tail as m and g do:
# that changed exactly the m' and h outcomes of the gamma tails.
PIN_CONTEXTS = (CTX, GContext(1, 2, 3, 2), GContext(2, 5, 4, 1))
GMAP_PIN = "ecfa9f8b41ae52498a09d4f709631150904b7ebccfd982a499f1329efcb48343"


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except ValueError as e:
        return f"ValueError: {e}"


def gmap_outcomes() -> str:
    """m, m', g and h on every stem of up to 5 letters over 5 letters
    with the tails kappa and gamma, then g0 and g0_inverse on the same
    tuples read as segments, in each pinned context."""
    lines = []
    for ctx in PIN_CONTEXTS:
        for k in range(6):
            for stem in itertools.product(range(1, 6), repeat=k):
                for tail in (ctx.kappa, ctx.gamma):
                    x = OmegaWord(stem, tail)
                    for fn in (m_decompose, m_prime_decompose, g_apply, h_apply):
                        lines.append(_outcome(fn, ctx, x))
                for fn in (g0, g0_inverse):
                    lines.append(_outcome(fn, ctx, stem))
    return "\n".join(lines)


def test_every_short_outcome_is_pinned():
    digest = hashlib.sha256(gmap_outcomes().encode()).hexdigest()
    assert digest == GMAP_PIN
