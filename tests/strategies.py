"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from disconer.corpus import Fragment, Mention, Sentence


@st.composite
def non_nested_sentences(draw):
    """A sentence with an arbitrary set of mutually non-nested mentions."""
    n = draw(st.integers(1, 9))
    mentions: list[Mention] = []
    for _ in range(draw(st.integers(0, 5))):
        tokens = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        m = Mention(draw(st.sampled_from("AB")),
                    tuple(Fragment(t, t + 1) for t in tokens))
        ts = m.token_set()
        if m not in mentions and not any(ts < o.token_set() or o.token_set() < ts
                                         for o in mentions):
            mentions.append(m)
    return Sentence(tuple(f"w{i}" for i in range(n)), tuple(mentions))
