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
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GContext:
    gamma: int
    lam: int
    kappa: int
    tau: int

    def __post_init__(self):
        if len({self.gamma, self.lam, self.kappa}) != 3:
            raise ValueError("gamma, lambda, kappa must be pairwise distinct")
        if self.tau in (self.gamma, self.kappa):
            raise ValueError("tau must differ from gamma and kappa")


@dataclass(frozen=True)
class OmegaWord:
    """A word ``stem`` followed by kappa forever; stem never ends in kappa."""

    stem: tuple[int, ...]
    kappa: int

    def __post_init__(self):
        stem = tuple(self.stem)
        while stem and stem[-1] == self.kappa:
            stem = stem[:-1]
        object.__setattr__(self, "stem", stem)

    def letter(self, k: int) -> int:
        if k < 1:
            raise IndexError(k)
        return self.stem[k - 1] if k <= len(self.stem) else self.kappa

    def to_periodic(self):
        from .words import PeriodicWord

        return PeriodicWord(self.stem, (self.kappa,))

    def __str__(self):
        return "".join(str(a) for a in self.stem) + f"({self.kappa})^inf"


def _segments(ctx: GContext, s: tuple[int, ...], image: bool):
    """The greedy segments of `s` paired with their images (module table).

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
                out.append((s[pos:end], img))
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
                out.append((s[pos:q], img))
                pos = q
                continue
        seg = s[pos : pos + 1]
        out.append((seg, seg))
        pos += 1
    return out


def _word_segments(ctx: GContext, x: OmegaWord, image: bool):
    """The segments of x's stem with their images.  A multi-letter segment
    ends in gamma, so a gamma tail, which could extend one, is refused."""
    if x.kappa == ctx.gamma:
        raise ValueError("tail letter clashes with gamma")
    return _segments(ctx, x.stem, image)


def m_decompose(ctx: GContext, x: OmegaWord) -> list[tuple[int, ...]]:
    """The source segments of the stem."""
    return [seg for seg, _ in _word_segments(ctx, x, False)]


def m_prime_decompose(ctx: GContext, u: OmegaWord) -> list[tuple[int, ...]]:
    """The image segments of the stem."""
    return [seg for seg, _ in _word_segments(ctx, u, True)]


def _one_segment(ctx, seg, image, alphabet):
    pairs = _segments(ctx, seg, image)
    if len(pairs) != 1:
        raise ValueError(f"segment {seg} is not in the {alphabet} segment alphabet")
    return pairs[0][1]


def g0(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    return _one_segment(ctx, seg, False, "source")


def g0_inverse(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    return _one_segment(ctx, seg, True, "image")


def g_apply(ctx: GContext, x: OmegaWord) -> OmegaWord:
    out = []
    for _, img in _word_segments(ctx, x, False):
        out += img
    return OmegaWord(tuple(out), x.kappa)


def h_apply(ctx: GContext, u: OmegaWord) -> OmegaWord:
    out = []
    for _, img in _word_segments(ctx, u, True):
        out += img
    return OmegaWord(tuple(out), u.kappa)
