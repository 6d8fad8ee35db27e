"""Baseline tag-schema codec: BIOHD, the BIO extension for discontinuous mentions.

BIOHD adds four position indicators on top of BIO: BH/IH mark components
shared by two or more mentions, BD/ID mark the exclusive components of
discontinuous mentions; flat BIO is BIOHD without H or D components.
Unlike the transition system, tag sequences do not decode uniquely;
`ambiguity_witnesses` enumerates the distinct mention sets that encode to
the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .corpus import CorpusError, Fragment, Mention, Sentence, check_not_nested

# indicator -> component class: C continuous, H shared head, D exclusive
# discontinuous body, O outside
INDICATOR_CLASS = {"B": "C", "I": "C", "O": "O", "BH": "H", "IH": "H",
                   "BD": "D", "ID": "D"}


@dataclass(frozen=True)
class Tag:
    indicator: str
    entity_type: str = ""

    def __str__(self) -> str:
        if self.indicator == "O" or not self.entity_type:
            return self.indicator
        return f"{self.indicator}-{self.entity_type}"

    @staticmethod
    def parse(text: str) -> "Tag":
        if "-" in text:
            ind, etype = text.split("-", 1)
        else:
            ind, etype = text, ""
        if ind not in INDICATOR_CLASS:
            raise CorpusError(f"unknown tag indicator {ind!r}")
        return Tag(ind, etype)


O_TAG = Tag("O")


@dataclass(frozen=True)
class TagSequence:
    tags: tuple[Tag, ...]

    def __len__(self) -> int:
        return len(self.tags)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.tags)

    @staticmethod
    def parse(text: str) -> "TagSequence":
        return TagSequence(tuple(Tag.parse(t) for t in text.split()))


def to_conll(sentence: Sentence, tags: TagSequence) -> str:
    return "\n".join(f"{tok}\t{tag}" for tok, tag in zip(sentence.tokens, tags.tags))


# ---------------------------------------------------------------------------
# BIOHD
# ---------------------------------------------------------------------------

def encode_biohd(sentence: Sentence) -> TagSequence:
    """Encode with the BH/IH/BD/ID extension.

    Tokens shared by several mentions form head components (BH/IH);
    tokens exclusive to a discontinuous mention form discontinuous-body
    components (BD/ID); tokens of plain continuous mentions keep B/I. When
    a token could carry several classes the priority is BH > BD > B.
    """
    check_not_nested(sentence.mentions)
    return _encode_roles(sentence)


def _encode_roles(sentence: Sentence) -> TagSequence:
    n = len(sentence.tokens)
    owners: list[list[Mention]] = [[] for _ in range(n)]
    for m in sentence.mentions:
        for t in m.token_set():
            owners[t].append(m)
    roles = []  # per token: 'H' shared, 'D' exclusive disc, 'C' flat, 'O'
    for ms in owners:
        if len(ms) >= 2:
            roles.append("H")
        elif ms:
            roles.append("D" if ms[0].is_discontinuous else "C")
        else:
            roles.append("O")
    tags = []
    for t in range(n):
        role = roles[t]
        if role == "O":
            tags.append(O_TAG)
            continue
        etype = min((m.entity_type, m.fragments) for m in owners[t])[0]
        if role == "H":
            ind = "IH" if t > 0 and roles[t - 1] == "H" else "BH"
        elif role == "D":
            # new component when the previous token is not part of this
            # mention's same fragment
            m = owners[t][0]
            same_frag = any(f.start <= t - 1 and t < f.end for f in m.fragments)
            ind = "ID" if t > 0 and roles[t - 1] == "D" and same_frag else "BD"
        else:
            m = owners[t][0]
            prev_same = t > 0 and (t - 1) in m.token_set()
            ind = "I" if prev_same else "B"
        tags.append(Tag(ind, etype))
    return TagSequence(tuple(tags))


def _segments(tags: TagSequence) -> list[tuple[str, Fragment, str]]:
    """Split a tag sequence into (class, fragment, type) components."""
    segs = []
    start, cls, etype = None, "", ""
    for i, tag in enumerate(list(tags.tags) + [O_TAG]):
        ind = tag.indicator
        tag_cls = INDICATOR_CLASS[ind]
        begins = ind in ("B", "BH", "BD")
        continues = (start is not None and not begins and tag_cls == cls
                     and tag.entity_type == etype)
        if continues:
            continue
        if start is not None:
            segs.append((cls, Fragment(start, i), etype))
            start = None
        if tag_cls != "O":
            start, cls, etype = i, tag_cls, tag.entity_type
    return segs


def decode_biohd(tags: TagSequence) -> frozenset[Mention]:
    """Deterministic decoding heuristic for BIOHD sequences.

    Each D component attaches to the nearest H component on its left (or
    right when none exists) to form one discontinuous mention. An H
    followed immediately by a C component also yields the head's continuous
    mention; standalone C components are continuous mentions on their own.
    """
    segs = _segments(tags)
    heads = [s for s in segs if s[0] == "H"]
    mentions = []
    for cls, frag, etype in segs:
        if cls == "D":
            left = [h for h in heads if h[1].end <= frag.start]
            right = [h for h in heads if h[1].start >= frag.end]
            head = left[-1] if left else (right[0] if right else None)
            if head is None:
                mentions.append(Mention(etype, (frag,)))
            else:
                mentions.append(Mention(etype, (head[1], frag)))
        elif cls == "C":
            prev_heads = [h for h in heads if h[1].end == frag.start]
            if prev_heads:
                mentions.append(Mention(etype, (prev_heads[-1][1], frag)))
            else:
                mentions.append(Mention(etype, (frag,)))
    # heads with no attachment at all become mentions by themselves
    used_heads = set()
    for m in mentions:
        for h in heads:
            if any(f.start <= h[1].start and h[1].end <= f.end for f in m.fragments):
                used_heads.add(h)
    for h in heads:
        if h not in used_heads:
            mentions.append(Mention(h[2], (h[1],)))
    return frozenset(mentions)


def ambiguity_witnesses(tags: TagSequence, limit: int | None = 64) -> list[frozenset[Mention]]:
    """Enumerate distinct mention sets that encode to exactly this sequence.

    A result of length two or more is a concrete witness of the decoding
    ambiguity of the BIOHD schema. Depth-first search over component
    groupings, bounded by `limit` results. Nested readings are admitted
    here (a shared head component may itself be a mention), even though
    encode_biohd rejects nested gold input.
    """
    segs = _segments(tags)
    if not segs:
        return [frozenset()] if all(t.indicator == "O" for t in tags.tags) else []
    # fast path: no H/D components means plain BIO, which decodes uniquely
    if all(cls == "C" for cls, _, _ in segs):
        return [decode_biohd(tags)]

    # candidate mentions: canonical combinations of up to 3 components
    candidates: list[Mention] = []
    for k in (1, 2, 3):
        for combo in combinations(range(len(segs)), k):
            etypes = {segs[i][2] for i in combo}
            if len(etypes) != 1:
                continue
            try:
                candidates.append(Mention(etypes.pop(), tuple(segs[i][1] for i in combo)))
            except CorpusError:
                continue
    candidates = sorted(set(candidates), key=lambda m: (m.fragments, m.entity_type))
    if len(candidates) > 24:
        candidates = candidates[:24]

    tagged_tokens = {t for _, frag, _ in segs for t in frag.tokens()}
    witnesses: list[frozenset[Mention]] = []
    n = len(tags)
    budget = 100_000  # worst case is exponential; bail out rather than hang

    max_size = min(len(candidates), len(segs) + 2)
    for size in range(1, max_size + 1):
        for combo in combinations(candidates, size):
            budget -= 1
            if budget <= 0 or (limit is not None and len(witnesses) >= limit):
                return witnesses
            covered: set[int] = set()
            for m in combo:
                covered |= m.token_set()
            if covered != tagged_tokens:
                continue
            try:
                sent = Sentence(tuple(["w"] * n), tuple(combo))
                reencoded = _encode_roles(sent)
            except CorpusError:
                continue
            if reencoded.tags == tags.tags:
                witnesses.append(frozenset(combo))
    return witnesses
