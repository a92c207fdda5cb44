"""The universal symbolic bijection on words with an eventually-constant tail.

Everything here is purely symbolic: fix four special letters gamma,
lambda, kappa, tau and consider words omega kappa^inf.  Such a word has
a unique greedy decomposition into segments drawn from a small segment
alphabet, and mapping segments one-by-one gives a bijection g whose
inverse h uses the image segment alphabet.
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


def _gamma_run(ctx, s, pos):
    q = pos
    while q < len(s) and s[q] == ctx.gamma:
        q += 1
    return q - pos


def m_decompose(ctx: GContext, x: OmegaWord) -> list[tuple[int, ...]]:
    """Greedy decomposition of the stem by {tau g^k; k>=2} u {k l^k k g} u letters.

    Multi-letter segments end in gamma, never kappa, so they cannot reach
    into the kappa tail; the tail is implicitly all singleton kappas.
    """
    s = x.stem
    if x.kappa in (ctx.gamma,):
        raise ValueError("tail letter clashes with gamma")
    segs = []
    pos = 0
    while pos < len(s):
        a = s[pos]
        if a == ctx.tau:
            r = _gamma_run(ctx, s, pos + 1)
            if r >= 2:
                segs.append(s[pos : pos + 1 + r])
                pos += 1 + r
                continue
        elif a == ctx.kappa:
            q = pos + 1
            while q < len(s) and s[q] == ctx.lam:
                q += 1
            if q + 1 < len(s) and s[q] == ctx.kappa and s[q + 1] == ctx.gamma:
                segs.append(s[pos : q + 2])
                pos = q + 2
                continue
        segs.append((a,))
        pos += 1
    return segs


def m_prime_decompose(ctx: GContext, u: OmegaWord) -> list[tuple[int, ...]]:
    """Greedy decomposition by {k l^k k g} u {k l^k k g g} u {tau g g} u letters."""
    s = u.stem
    segs = []
    pos = 0
    while pos < len(s):
        a = s[pos]
        if a == ctx.kappa:
            q = pos + 1
            while q < len(s) and s[q] == ctx.lam:
                q += 1
            if q + 1 < len(s) and s[q] == ctx.kappa and s[q + 1] == ctx.gamma:
                end = q + 2
                if end < len(s) and s[end] == ctx.gamma:
                    end += 1
                segs.append(s[pos:end])
                pos = end
                continue
        elif a == ctx.tau:
            # a longer gamma run still starts with the tau-gamma-gamma
            # segment: the surplus gammas are singletons of the source word
            if s[pos + 1 : pos + 3] == (ctx.gamma, ctx.gamma):
                segs.append(s[pos : pos + 3])
                pos += 3
                continue
        segs.append((a,))
        pos += 1
    return segs


def _is_tau_gamma(ctx, seg):
    return (
        len(seg) >= 3
        and seg[0] == ctx.tau
        and all(a == ctx.gamma for a in seg[1:])
    )


def _split_klkg(ctx, seg):
    """Return (k, extra_gammas) for kappa lam^k kappa gamma^(1+extra) shapes."""
    if len(seg) < 3 or seg[0] != ctx.kappa:
        return None
    q = 1
    while q < len(seg) and seg[q] == ctx.lam:
        q += 1
    k = q - 1
    rest = seg[q:]
    if rest[:1] != (ctx.kappa,):
        return None
    gammas = rest[1:]
    if not gammas or any(a != ctx.gamma for a in gammas):
        return None
    return k, len(gammas) - 1


def g0(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    if len(seg) == 1:
        return seg
    if _is_tau_gamma(ctx, seg):
        k = len(seg) - 1
        return (ctx.kappa,) + (ctx.lam,) * (k - 2) + (ctx.kappa, ctx.gamma)
    split = _split_klkg(ctx, seg)
    if split is not None and split[1] == 0:
        k = split[0]
        if k == 0:
            return (ctx.tau, ctx.gamma, ctx.gamma)
        return (ctx.kappa,) + (ctx.lam,) * (k - 1) + (ctx.kappa, ctx.gamma, ctx.gamma)
    raise ValueError(f"segment {seg} is not in the source segment alphabet")


def g0_inverse(ctx: GContext, seg: tuple[int, ...]) -> tuple[int, ...]:
    if len(seg) == 1:
        return seg
    if seg == (ctx.tau, ctx.gamma, ctx.gamma):
        return (ctx.kappa, ctx.kappa, ctx.gamma)
    split = _split_klkg(ctx, seg)
    if split is not None:
        k, extra = split
        if extra == 0:
            return (ctx.tau,) + (ctx.gamma,) * (k + 2)
        if extra == 1:
            return (ctx.kappa,) + (ctx.lam,) * (k + 1) + (ctx.kappa, ctx.gamma)
    raise ValueError(f"segment {seg} is not in the image segment alphabet")


def g_apply(ctx: GContext, x: OmegaWord) -> OmegaWord:
    out = []
    for seg in m_decompose(ctx, x):
        out.extend(g0(ctx, seg))
    return OmegaWord(tuple(out), x.kappa)


def h_apply(ctx: GContext, u: OmegaWord) -> OmegaWord:
    out = []
    for seg in m_prime_decompose(ctx, u):
        out.extend(g0_inverse(ctx, seg))
    return OmegaWord(tuple(out), u.kappa)
