"""RNG derivation: seeds are a function of the derivation path alone."""

from hypothesis import given, settings
from hypothesis import strategies as st

from trajmark.seeds import derive_seed, seed_stream

PARTS = st.one_of(st.text(max_size=8), st.integers())


def test_derive_seed_is_pinned():
    # every seeded corpus and report rests on these values
    assert derive_seed(7, "gen", "q", 0) == 10014544118552209516
    assert derive_seed(-3, "inject", "", "q000001") == 15003229013421528504
    assert derive_seed(2**70) == 12452718902605984015


@settings(max_examples=300, deadline=None)
@given(root=st.integers(), prefix=st.lists(PARTS, max_size=4), parts=st.lists(PARTS, max_size=4))
def test_seed_stream_equals_derive_seed(root, prefix, parts):
    # one stream serves many parts: each copies the prefix state, none changes it
    seed_of = seed_stream(root, *prefix)
    for part in parts + parts:
        assert seed_of(part) == derive_seed(root, *prefix, part)
