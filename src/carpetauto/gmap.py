"""The universal symbolic bijection on words with an eventually-constant tail.

Everything here is purely symbolic: fix four special letters gamma,
lambda, kappa, tau and consider words omega kappa^inf.  The map g reads
the stem greedily, left to right, as segments of the source alphabet
and replaces each segment by its image; its inverse h reads the image
alphabet and maps back.  With j >= 0, g and h exchange

    source segment (g reads)    image segment (h reads)
    τ γ^(j+2)                   κ λ^j κ γ
    κ κ γ                       τ γ γ
    κ λ^(j+1) κ γ               κ λ^j κ γ γ
    any other letter            the same letter

The image reader takes κ λ^j κ γ γ over κ λ^j κ γ where it can, and
leaves any γ after τ γ γ as single letters.  Multi-letter segments end
in γ, so they never reach into a tail whose letter is not γ.

The reader returns only the multi-letter segments, by position; every
other letter is its own segment and its own image.  So g and h copy the
stem between those segments and splice in their images, and return a
word in which the reader finds none (a stem holding neither κ nor τ, for
one) unchanged.
"""

from __future__ import annotations

from collections import namedtuple

from .words import PeriodicWord, check_letters


class GContext(namedtuple("GContext", "gamma lam kappa tau")):
    """The four special letters gamma, lambda, kappa and tau."""

    __slots__ = ()

    def __new__(cls, gamma, lam, kappa, tau):
        check_letters((gamma, lam, kappa, tau), "a context")
        if len({gamma, lam, kappa}) != 3:
            raise ValueError("gamma, lambda, kappa must be pairwise distinct")
        if tau in (gamma, kappa):
            raise ValueError("tau must differ from gamma and kappa")
        return super().__new__(cls, gamma, lam, kappa, tau)


class OmegaWord(namedtuple("OmegaWord", "stem kappa")):
    """A word ``stem`` followed by kappa forever; stem never ends in kappa."""

    __slots__ = ()

    def __new__(cls, stem, kappa):
        stem = tuple(stem)
        check_letters(stem + (kappa,), "a word")
        n = len(stem)
        while n and stem[n - 1] == kappa:
            n -= 1
        return super().__new__(cls, stem[:n], kappa)

    def letter(self, k: int) -> int:
        if k < 1:
            raise IndexError(k)
        return self.stem[k - 1] if k <= len(self.stem) else self.kappa

    def to_periodic(self):
        return PeriodicWord(self.stem, (self.kappa,))

    def __str__(self):
        return "".join(str(a) for a in self.stem) + f"({self.kappa})^inf"


def _segments(ctx: GContext, s: tuple[int, ...], image: bool):
    """The greedy multi-letter segments of `s`, as (start, end, image)
    with s[start:end] mapped to image (module table); every other letter
    is a segment of its own and its own image.

    Reads the source alphabet and maps by g, or with `image` set reads
    the image alphabet and maps by h.
    """
    gamma, lam, kappa, tau = ctx.gamma, ctx.lam, ctx.kappa, ctx.tau
    n = len(s)
    out = []
    pos = 0
    while pos < n:
        a = s[pos]
        if a == kappa:
            q = pos + 1
            while q < n and s[q] == lam:
                q += 1
            if q + 1 < n and s[q] == kappa and s[q + 1] == gamma:
                j, end = q - pos - 1, q + 2
                if not image and j:
                    img = (kappa,) + (lam,) * (j - 1) + (kappa, gamma, gamma)
                elif not image:
                    img = (tau, gamma, gamma)
                elif end < n and s[end] == gamma:
                    end += 1
                    img = (kappa,) + (lam,) * (j + 1) + (kappa, gamma)
                else:
                    img = (tau,) + (gamma,) * (j + 2)
                out.append((pos, end, img))
                pos = end
                continue
        elif a == tau:
            q = pos + 1
            while q < n and s[q] == gamma:
                q += 1
            if q - pos >= 3:
                if image:
                    q, img = pos + 3, (kappa, kappa, gamma)
                else:
                    img = (kappa,) + (lam,) * (q - pos - 3) + (kappa, gamma)
                out.append((pos, q, img))
                pos = q
                continue
        pos += 1
    return out


def _word_segments(ctx: GContext, x: OmegaWord, image: bool):
    """The multi-letter segments of x's stem.  A multi-letter segment ends
    in gamma, so a gamma tail, which could extend one, is refused."""
    if x.kappa == ctx.gamma:
        raise ValueError("tail letter clashes with gamma")
    return _segments(ctx, x.stem, image)


def _all_segments(s: tuple[int, ...], multi) -> list[tuple[int, ...]]:
    """Every segment of `s`: its multi-letter segments `multi`, and each
    letter between them alone."""
    out = []
    last = 0
    for start, end, _ in multi:
        out += [(a,) for a in s[last:start]]
        out.append(s[start:end])
        last = end
    return out + [(a,) for a in s[last:]]


def m_decompose(ctx: GContext, x: OmegaWord) -> list[tuple[int, ...]]:
    """The source segments of the stem."""
    return _all_segments(x.stem, _word_segments(ctx, x, False))


def m_prime_decompose(ctx: GContext, u: OmegaWord) -> list[tuple[int, ...]]:
    """The image segments of the stem."""
    return _all_segments(u.stem, _word_segments(ctx, u, True))


def _one_segment(ctx, seg, image, alphabet):
    if len(seg) == 1:
        return seg[:1]
    multi = _segments(ctx, seg, image)
    if len(multi) != 1 or multi[0][:2] != (0, len(seg)):
        raise ValueError(f"segment {seg} is not in the {alphabet} segment alphabet")
    return multi[0][2]


def g0(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    return _one_segment(ctx, seg, False, "source")


def g0_inverse(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    return _one_segment(ctx, seg, True, "image")


def _apply(ctx: GContext, x: OmegaWord, image: bool) -> OmegaWord:
    """g on x, or h with `image` set: the stem with each multi-letter
    segment replaced by its image, spliced between the unchanged letters
    around it, and x itself when the stem has no such segment.  A gamma
    tail is refused.

    The result is built with `OmegaWord._make`, which skips the checks of
    `OmegaWord.__new__`, because they hold already.  Every letter comes
    from the checked stem or the checked context.  The new stem does not
    end in the tail letter: if the last segment has several letters, its
    image ends in gamma, which differs from the tail letter because a
    gamma tail is refused; otherwise the new stem ends in the old stem's
    last letter, which is not the tail letter either.
    """
    multi = _word_segments(ctx, x, image)
    if not multi:
        return x
    s = x.stem
    stem = ()
    last = 0
    for start, end, img in multi:
        stem += s[last:start] + img
        last = end
    return OmegaWord._make((stem + s[last:], x.kappa))


def g_apply(ctx: GContext, x: OmegaWord) -> OmegaWord:
    return _apply(ctx, x, False)


def h_apply(ctx: GContext, u: OmegaWord) -> OmegaWord:
    return _apply(ctx, u, True)
