"""Templated synthetic sentences with discontinuous and overlapping mentions.

The templates mirror the structures seen in adverse-drug-event text:
coordinated body parts and feelings ("muscle pain and fatigue"), gapped
mentions ("hip was mildly sore"), and crossing compositions. Entity words
(BODY/FEEL) always belong to mentions, filler and gap words never do, which
keeps the corpora learnable by a small scorer while exercising every
overlap category.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, Fragment, Mention, Sentence

BODY = ("muscle", "joint", "hip", "leg", "foot", "shoulder", "back", "neck",
        "knee", "arm", "wrist", "ankle")
FEEL = ("pain", "fatigue", "stiffness", "cramps", "weakness", "numbness",
        "soreness", "swelling", "tingling", "aching")
GAPW = ("was", "is", "felt", "very", "mildly", "severely", "quite", "rather",
        "often", "really")
FILLER = ("i", "then", "yesterday", "again", "slightly", "badly", "my", "the",
          "it", "still", "also", "later", "since", "week", "one")
CONN = ("and", "or")

ENTITY_TYPE = "ADR"

# No crossing compositions: every sentence is fully derivable by the oracle.
DERIVABLE_WEIGHTS = {
    "empty": 0.05, "flat": 0.30, "flat_pair": 0.10, "no_overlap": 0.15,
    "no_overlap3": 0.05, "left_overlap": 0.20, "left_overlap3": 0.05,
    "right_overlap": 0.10, "multi_overlap": 0.0,
}
# every template kind, in the order make_corpus draws them
KINDS = tuple(DERIVABLE_WEIGHTS)


def _pick(rng: np.random.Generator, words) -> str:
    return words[int(rng.integers(len(words)))]


def _fillers(rng: np.random.Generator, lo: int, hi: int) -> list[str]:
    return [_pick(rng, FILLER) for _ in range(int(rng.integers(lo, hi + 1)))]


def _gap(rng: np.random.Generator, gap_range: tuple[int, int]) -> list[str]:
    lo, hi = gap_range
    return [_pick(rng, GAPW) for _ in range(int(rng.integers(lo, hi + 1)))]


def make_sentence(rng: np.random.Generator, kind: str,
                  gap_range: tuple[int, int] = (1, 2),
                  pre_range: tuple[int, int] = (0, 2),
                  post_range: tuple[int, int] = (0, 2)) -> Sentence:
    """Build one sentence of the given template kind."""
    pre = _fillers(rng, *pre_range)
    post = _fillers(rng, *post_range)
    tokens: list[str] = list(pre)
    mentions: list[Mention] = []

    def frag(words: list[str]) -> Fragment:
        start = len(tokens)
        tokens.extend(words)
        return Fragment(start, start + len(words))

    if kind == "empty":
        tokens = pre + [_pick(rng, FILLER)] + post
    elif kind == "flat":
        b, f = _pick(rng, BODY), _pick(rng, FEEL)
        mentions.append(Mention(ENTITY_TYPE, (frag([b, f]),)))
    elif kind == "flat_pair":
        b1, f1 = _pick(rng, BODY), _pick(rng, FEEL)
        b2, f2 = _pick(rng, BODY), _pick(rng, FEEL)
        mentions.append(Mention(ENTITY_TYPE, (frag([b1, f1]),)))
        tokens.append(_pick(rng, CONN))
        mentions.append(Mention(ENTITY_TYPE, (frag([b2, f2]),)))
    elif kind == "no_overlap":
        f_b = frag([_pick(rng, BODY)])
        tokens.extend(_gap(rng, gap_range))
        f_f = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (f_b, f_f)))
    elif kind == "no_overlap3":
        f_b = frag([_pick(rng, BODY)])
        tokens.extend(_gap(rng, gap_range))
        f_m = frag([_pick(rng, FEEL)])
        tokens.extend(_gap(rng, gap_range))
        f_f = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (f_b, f_m, f_f)))
    elif kind == "left_overlap":
        f_b = frag([_pick(rng, BODY)])
        f_f1 = frag([_pick(rng, FEEL)])
        tokens.append(_pick(rng, CONN))
        tokens.extend(_gap(rng, (gap_range[0] - 1 if gap_range[0] > 0 else 0, gap_range[1])))
        f_f2 = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (Fragment(f_b.start, f_f1.end),)))
        mentions.append(Mention(ENTITY_TYPE, (f_b, f_f2)))
    elif kind == "left_overlap3":
        f_b = frag([_pick(rng, BODY)])
        f_f1 = frag([_pick(rng, FEEL)])
        tokens.append(_pick(rng, CONN))
        f_f2 = frag([_pick(rng, FEEL)])
        tokens.append(_pick(rng, CONN))
        f_f3 = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (Fragment(f_b.start, f_f1.end),)))
        mentions.append(Mention(ENTITY_TYPE, (f_b, f_f2)))
        mentions.append(Mention(ENTITY_TYPE, (f_b, f_f3)))
    elif kind == "right_overlap":
        f_b1 = frag([_pick(rng, BODY)])
        tokens.append(_pick(rng, CONN))
        tokens.extend(_gap(rng, (gap_range[0] - 1 if gap_range[0] > 0 else 0, gap_range[1])))
        f_b2 = frag([_pick(rng, BODY)])
        f_f = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (Fragment(f_b2.start, f_f.end),)))
        mentions.append(Mention(ENTITY_TYPE, (f_b1, f_f)))
    elif kind == "multi_overlap":
        # crossing composition: four mentions sharing two components each
        f_b1 = frag([_pick(rng, BODY)])
        tokens.append(_pick(rng, CONN))
        f_b2 = frag([_pick(rng, BODY)])
        f_f1 = frag([_pick(rng, FEEL)])
        tokens.append("/")
        f_f2 = frag([_pick(rng, FEEL)])
        mentions.append(Mention(ENTITY_TYPE, (f_b1, f_f1)))
        mentions.append(Mention(ENTITY_TYPE, (f_b1, f_f2)))
        mentions.append(Mention(ENTITY_TYPE, (Fragment(f_b2.start, f_f1.end),)))
        mentions.append(Mention(ENTITY_TYPE, (f_b2, f_f2)))
    else:
        raise ValueError(f"unknown template kind {kind!r}")

    if kind != "empty":
        tokens.extend(post)
    return Sentence(tuple(tokens), tuple(mentions))


def make_corpus(n: int, seed: int, weights: dict[str, float] | None = None,
                gap_range: tuple[int, int] = (1, 2),
                pre_range: tuple[int, int] = (0, 2),
                post_range: tuple[int, int] = (0, 2)) -> Corpus:
    """Generate a corpus of n sentences, deterministic given the seed.

    Distinct entity words are drawn per template so that duplicate mentions
    cannot arise. `weights` maps template kinds to finite weights; kinds
    it leaves out or weighs at zero or below are never drawn, and at least
    one weight must be positive (ValueError otherwise).
    """
    weights = dict(DERIVABLE_WEIGHTS if weights is None else weights)
    unknown = sorted(set(weights) - set(KINDS))
    if unknown:
        raise ValueError(f"unknown template kinds {unknown}; known: {list(KINDS)}")
    if not all(np.isfinite(w) for w in weights.values()):
        raise ValueError(f"template weights must be finite, got {weights}")
    kinds = [k for k in KINDS if weights.get(k, 0.0) > 0]
    if not kinds:
        raise ValueError(f"no template kind has a positive weight: {weights}")
    probs = np.array([weights[k] for k in kinds], dtype=float)
    probs /= probs.sum()
    # the arithmetic of rng.choice(len(kinds), p=probs), one draw a sentence,
    # without its check of p on every call
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n):
        kind = kinds[int(cdf.searchsorted(rng.random(), side="right"))]
        sentences.append(make_sentence(rng, kind, gap_range,
                                       pre_range=pre_range, post_range=post_range))
    return Corpus(tuple(sentences))
