"""Data model for sentences with discontinuous and overlapping mentions.

A mention is an entity type plus a canonical list of disjoint, non-adjacent
token fragments. All types here are immutable; every operation is a pure
function, so per-sentence work can safely run in parallel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class CorpusError(ValueError):
    """Malformed corpus input (carries a line number when known)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, order=True)
class Fragment:
    """Half-open token range [start, end)."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise CorpusError(f"invalid fragment ({self.start},{self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def tokens(self) -> range:
        return range(self.start, self.end)


def canonicalize(fragments: list[Fragment] | tuple[Fragment, ...]) -> tuple[Fragment, ...]:
    """Sort fragments and merge touching ones; reject proper overlaps.

    The canonical form makes strict-match equality between mentions well
    defined: two mentions are equal iff their types and canonical fragment
    tuples are equal.
    """
    if not fragments:
        raise CorpusError("mention must have at least one fragment")
    ordered = sorted(fragments)
    merged = [ordered[0]]
    for frag in ordered[1:]:
        prev = merged[-1]
        if frag.start < prev.end:
            raise CorpusError(f"fragments ({prev.start},{prev.end}) and ({frag.start},{frag.end}) overlap")
        if frag.start == prev.end:
            merged[-1] = Fragment(prev.start, frag.end)
        else:
            merged.append(frag)
    return tuple(merged)


_ENTITY_TYPE = r"[^\s|]+"
_ENTITY_TYPE_RE = re.compile(_ENTITY_TYPE)


def check_entity_type(entity_type) -> None:
    """The entity-type rule: non-empty text with no whitespace and no "|",
    the separators of the inline format, which can then read the type back.
    Raises CorpusError otherwise."""
    if not (isinstance(entity_type, str) and _ENTITY_TYPE_RE.fullmatch(entity_type)):
        raise CorpusError(f"entity type {entity_type!r} must be non-empty text "
                          f"with no whitespace and no '|'")


@dataclass(frozen=True)
class Mention:
    """Entity type plus canonical fragment tuple; the unit of evaluation."""

    entity_type: str
    fragments: tuple[Fragment, ...]

    def __post_init__(self):
        check_entity_type(self.entity_type)
        object.__setattr__(self, "fragments", canonicalize(self.fragments))

    @property
    def is_discontinuous(self) -> bool:
        return len(self.fragments) > 1

    @property
    def length(self) -> int:
        """Token count inside fragments; intervals are not counted."""
        return sum(len(f) for f in self.fragments)

    @property
    def interval_length(self) -> int:
        """Total gap tokens between the first fragment start and last end."""
        return (self.fragments[-1].end - self.fragments[0].start) - self.length

    def token_set(self) -> frozenset[int]:
        return frozenset(t for f in self.fragments for t in f.tokens())

    def overlaps(self, other: "Mention") -> bool:
        return bool(self.token_set() & other.token_set())


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[str, ...]
    mentions: tuple[Mention, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "mentions", tuple(self.mentions))
        n = len(self.tokens)
        seen = set()
        for m in self.mentions:
            if m.fragments[-1].end > n:
                raise CorpusError(f"mention {m} exceeds sentence length {n}")
            if m in seen:
                raise CorpusError(f"duplicate mention {m}")
            seen.add(m)

    def discontinuous_mentions(self) -> list[Mention]:
        return [m for m in self.mentions if m.is_discontinuous]


def check_not_nested(mentions: tuple[Mention, ...]) -> None:
    """Reject a mention whose tokens are a proper subset of another's."""
    sets = [m.token_set() for m in mentions]
    for i in range(len(sets)):
        for j in range(len(sets)):
            if i != j and sets[i] < sets[j]:
                raise CorpusError(f"nested mentions: {mentions[i]} inside {mentions[j]}")


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)


class Category(Enum):
    """Overlap taxonomy for discontinuous mentions."""

    NO_OVERLAP = "no_overlap"
    LEFT_OVERLAP = "left_overlap"
    RIGHT_OVERLAP = "right_overlap"
    MULTI_OVERLAP = "multi_overlap"


def overlap_category(m: Mention, others: list[Mention]) -> Category:
    """Classify a discontinuous mention by which components it shares.

    A component (fragment) is shared when its token range intersects any
    other mention of the sentence. Left = only the first component shared,
    Right = only the last, Multi = two or more shared (crossing
    compositions), No = none.
    """
    if not m.is_discontinuous:
        raise CorpusError("overlap_category requires a discontinuous mention")
    other_tokens = set()
    for o in others:
        if o is m or (o.entity_type == m.entity_type and o.fragments == m.fragments):
            continue
        other_tokens |= o.token_set()
    shared = [i for i, f in enumerate(m.fragments) if any(t in other_tokens for t in f.tokens())]
    if not shared:
        return Category.NO_OVERLAP
    if len(shared) >= 2:
        return Category.MULTI_OVERLAP
    if shared[0] == 0:
        return Category.LEFT_OVERLAP
    if shared[0] == len(m.fragments) - 1:
        return Category.RIGHT_OVERLAP
    # A lone shared middle component has no named category of its own;
    # grouped with the crossing cases.
    return Category.MULTI_OVERLAP


# ---------------------------------------------------------------------------
# Inline format
# ---------------------------------------------------------------------------

_MENTION_RE = re.compile(rf"^(\d+,\d+(?:;\d+,\d+)*) ({_ENTITY_TYPE})$")


def parse_inline(text: str) -> Corpus:
    """Parse the inline corpus format.

    Blocks are separated by one blank line. Line 1 holds space-separated
    tokens; line 2 holds mentions joined by "|", each "s1,e1[;s2,e2]* TYPE"
    with half-open token indices. An empty line 2 means no mentions.
    """
    sentences = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if lines[i] == "":
            i += 1
            continue
        token_line = lines[i]
        mention_line = lines[i + 1] if i + 1 < len(lines) else ""
        tokens = token_line.split(" ")
        if any(t == "" for t in tokens):
            raise CorpusError("empty token (double space?)", line=i + 1)
        mentions = []
        if mention_line:
            try:
                for part in mention_line.split("|"):
                    match = _MENTION_RE.match(part)
                    if not match:
                        raise CorpusError(f"malformed mention {part!r}")
                    frags = []
                    for pair in match.group(1).split(";"):
                        s, e = pair.split(",")
                        frags.append(Fragment(int(s), int(e)))
                    mentions.append(Mention(match.group(2), tuple(frags)))
            except CorpusError as exc:
                raise CorpusError(str(exc), line=i + 2) from exc
        try:
            sentences.append(Sentence(tuple(tokens), tuple(mentions)))
        except CorpusError as exc:
            raise CorpusError(str(exc), line=i + 1) from exc
        i += 2
    return Corpus(tuple(sentences))


def write_inline(corpus: Corpus) -> str:
    """Serialize a corpus in canonical inline form (parse_inline inverts it)."""
    blocks = []
    for sent in corpus:
        mention_strs = []
        for m in sorted(sent.mentions, key=lambda m: (m.fragments, m.entity_type)):
            frag_str = ";".join(f"{f.start},{f.end}" for f in m.fragments)
            mention_strs.append(f"{frag_str} {m.entity_type}")
        blocks.append(" ".join(sent.tokens) + "\n" + "|".join(mention_strs) + "\n")
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# Standoff (BRAT-style) format
# ---------------------------------------------------------------------------

# whitespace tokenization with punctuation split off as own tokens
_PUNCT_SPLIT_RE = re.compile(r"\w+|[^\w\s]")


def parse_standoff(text_file: str, ann_file: str) -> tuple[Corpus, list[str]]:
    """Parse a text + .ann standoff pair into a corpus.

    The text file holds one sentence per non-blank line. Entity lines look
    like "T1\\tADR 0 6;16 23\\tmuscle fatigue" with character offsets into
    the whole text; discontinuous spans are separated by ";". Character
    offsets are mapped to token indices. Mentions whose offsets do not land
    on token boundaries, which cross a sentence boundary, or whose fragments
    overlap, are skipped and reported in the returned warning list.
    """
    warnings: list[str] = []
    sent_tokens = []
    # char offset (global) -> (sentence index, token index) for starts/ends
    start_map: dict[int, tuple[int, int]] = {}
    end_map: dict[int, tuple[int, int]] = {}
    pos = 0
    for line in text_file.split("\n"):
        if line.strip():
            si = len(sent_tokens)
            toks = [(m.group(0), m.start(), m.end()) for m in _PUNCT_SPLIT_RE.finditer(line)]
            for ti, (_, ts, te) in enumerate(toks):
                start_map[pos + ts] = (si, ti)
                end_map[pos + te] = (si, ti + 1)
            sent_tokens.append(toks)
        pos += len(line) + 1

    sent_mentions: list[list[Mention]] = [[] for _ in sent_tokens]
    for lineno, raw in enumerate(ann_file.split("\n"), start=1):
        line = raw.rstrip()
        if not line or not line.startswith("T"):
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise CorpusError(f"malformed entity line {line!r}", line=lineno)
        head = parts[1].split(" ")
        etype = head[0]
        try:
            offsets = [tuple(int(x) for x in pair.split()) for pair in " ".join(head[1:]).split(";")]
        except ValueError:
            offsets = []
        if not offsets or any(len(pair) != 2 for pair in offsets):
            raise CorpusError(f"malformed offsets in {line!r}", line=lineno)
        frags = []  # (sentence, start token, end token)
        for (cs, ce) in offsets:
            if cs not in start_map or ce not in end_map:
                warnings.append(f"{parts[0]}: offset {cs}-{ce} not on a token boundary; mention skipped")
                break
            (si0, t0), (si1, t1) = start_map[cs], end_map[ce]
            if si0 != si1:
                warnings.append(f"{parts[0]}: span {cs}-{ce} crosses a sentence boundary; mention skipped")
                break
            frags.append((si0, t0, t1))
        if len(frags) < len(offsets):
            continue
        sent_ids = {si for si, _, _ in frags}
        if len(sent_ids) != 1:
            warnings.append(f"{parts[0]}: mention crosses sentence boundaries; skipped")
            continue
        si = sent_ids.pop()
        try:
            mention = Mention(etype, tuple(Fragment(t0, t1) for _, t0, t1 in frags))
        except CorpusError as exc:
            warnings.append(f"{parts[0]}: {exc}; mention skipped")
            continue
        if mention not in sent_mentions[si]:
            sent_mentions[si].append(mention)

    sentences = tuple(Sentence(tuple(t for t, _, _ in toks), tuple(mentions))
                      for toks, mentions in zip(sent_tokens, sent_mentions))
    return Corpus(sentences), warnings


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatsReport:
    sentence_count: int
    mention_count: int
    disc_mention_count: int
    disc_percentage: float
    avg_mention_length: float
    avg_disc_mention_length: float
    avg_interval_length: float
    component_histogram: dict[int, int] = field(default_factory=dict)
    category_histogram: dict[Category, int] = field(default_factory=dict)
    continuous_overlap_count: int = 0

    def to_text(self) -> str:
        lines = [
            f"sentences = {self.sentence_count}",
            f"mentions = {self.mention_count}",
            f"disc_mentions = {self.disc_mention_count}",
            f"disc_percentage = {self.disc_percentage:.1f}",
            f"avg_mention_length = {self.avg_mention_length:.2f}",
            f"avg_disc_mention_length = {self.avg_disc_mention_length:.2f}",
            f"avg_interval_length = {self.avg_interval_length:.2f}",
        ]
        for k in sorted(self.component_histogram):
            lines.append(f"components_{k} = {self.component_histogram[k]}")
        for cat in Category:
            lines.append(f"{cat.value} = {self.category_histogram.get(cat, 0)}")
        lines.append(f"continuous_overlap = {self.continuous_overlap_count}")
        return "\n".join(lines)


def corpus_stats(corpus: Corpus) -> StatsReport:
    """Descriptive statistics: counts, lengths, component and overlap histograms.

    Mention length counts only tokens inside fragments; interval length is
    the per-mention total of gap tokens between its first and last fragment.
    """
    mention_count = 0
    disc_count = 0
    total_len = 0
    disc_len = 0
    interval_len = 0
    comp_hist: dict[int, int] = {}
    cat_hist: dict[Category, int] = {c: 0 for c in Category}
    cont_overlap = 0
    for sent in corpus:
        mentions = list(sent.mentions)
        for m in mentions:
            mention_count += 1
            total_len += m.length
            if m.is_discontinuous:
                disc_count += 1
                disc_len += m.length
                interval_len += m.interval_length
                k = len(m.fragments)
                comp_hist[k] = comp_hist.get(k, 0) + 1
                cat_hist[overlap_category(m, mentions)] += 1
            else:
                if any(o is not m and m.overlaps(o) for o in mentions):
                    cont_overlap += 1
    return StatsReport(
        sentence_count=len(corpus),
        mention_count=mention_count,
        disc_mention_count=disc_count,
        disc_percentage=(disc_count / mention_count * 100.0) if mention_count else 0.0,
        avg_mention_length=(total_len / mention_count) if mention_count else 0.0,
        avg_disc_mention_length=(disc_len / disc_count) if disc_count else 0.0,
        avg_interval_length=(interval_len / disc_count) if disc_count else 0.0,
        component_histogram=comp_hist,
        category_histogram=cat_hist,
        continuous_overlap_count=cont_overlap,
    )


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def flatten_for_flat_model(corpus: Corpus) -> Corpus:
    """Make a corpus usable by flat sequence taggers.

    Each discontinuous mention is replaced by the shortest continuous span
    covering it; transitively overlapping mentions are merged into a single
    covering mention. The merged type is the majority type of the group,
    ties broken by the leftmost mention's type.
    """
    new_sentences = []
    for sent in corpus:
        covers = sorted(((m.fragments[0].start, m.fragments[-1].end, m.entity_type)
                         for m in sent.mentions), key=lambda c: c[:2])
        groups: list[tuple[int, int, list[str]]] = []
        for start, end, etype in covers:
            if groups and start < groups[-1][1]:
                g_start, g_end, types = groups[-1]
                groups[-1] = (g_start, max(g_end, end), types + [etype])
            else:
                groups.append((start, end, [etype]))
        merged = tuple(
            Mention(max(set(types), key=lambda t: (types.count(t), -types.index(t))),
                    (Fragment(start, end),))
            for start, end, types in groups)
        new_sentences.append(Sentence(sent.tokens, merged))
    return Corpus(tuple(new_sentences))


class ResampleMode(Enum):
    DISC_ONLY = "disc_only"
    UNDER_SAMPLE = "under_sample"
    OVER_SAMPLE = "over_sample"


def resample(corpus: Corpus, mode: ResampleMode, seed: int) -> Corpus:
    """Rebalance sentences with vs without discontinuous mentions.

    DISC_ONLY keeps only sentences with a discontinuous mention.
    UNDER_SAMPLE keeps all of those plus an equal count of randomly chosen
    others. OVER_SAMPLE duplicates discontinuous sentences until counts
    balance. Deterministic given the seed.
    """
    disc, rest = [], []
    for s in corpus:
        (disc if s.discontinuous_mentions() else rest).append(s)
    if mode is ResampleMode.DISC_ONLY:
        return Corpus(tuple(disc))
    if not disc:
        raise CorpusError("corpus has no discontinuous sentences; cannot balance")
    import numpy as np  # here, so the commands that never resample start without numpy
    rng = np.random.default_rng(seed)
    if mode is ResampleMode.UNDER_SAMPLE:
        k = min(len(disc), len(rest))
        chosen_idx = sorted(rng.choice(len(rest), size=k, replace=False).tolist())
        return Corpus(tuple(disc + [rest[i] for i in chosen_idx]))
    copies = [disc[i % len(disc)] for i in range(max(len(rest), len(disc)))]  # OVER_SAMPLE
    return Corpus(tuple(copies + rest))
