"""Property-based voting: random electorates always self-tally correctly."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_voting_stack, mode_delta
from repro.protocols.voting_protocol import Election


def _assert_tally_correct(votes, **build):
    candidates = ("red", "green", "blue")
    stack = build_voting_stack(voters=len(votes), candidates=candidates, **build)
    for authority in stack.authorities.values():
        authority.deal()
    stack.run_rounds(1)
    expected = Counter()
    for index, choice_index in enumerate(votes):
        choice = candidates[choice_index]
        stack.parties[f"V{index}"].vote(choice)
        expected[choice] += 1
    for candidate in candidates:
        expected.setdefault(candidate, 0)
    stack.run_until_result()
    results = stack.results()
    assert len(results) == len(votes)
    for result in results.values():
        assert result == dict(expected)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    votes=st.lists(
        st.integers(min_value=0, max_value=2), min_size=2, max_size=5
    ),
)
def test_random_electorates_tally_correctly(seed, votes):
    _assert_tally_correct(votes, mode="hybrid", seed=seed)


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=9999),
    votes=st.lists(
        st.integers(min_value=0, max_value=2), min_size=1, max_size=4
    ),
)
def test_random_electorates_tally_correctly_composed(seed, votes):
    """The same over the full ΠSBC stack (Corollary 1), whose ballots and
    proofs travel as TLE puzzles instead of through the ideal FSBC."""
    _assert_tally_correct(votes, mode="composed", seed=seed, delta=mode_delta("composed"))


@settings(max_examples=10, deadline=None)
@given(
    voters=st.integers(min_value=1, max_value=9),
    candidates=st.integers(min_value=1, max_value=4),
    total=st.integers(min_value=0, max_value=10_000),
)
def test_tally_encoding_roundtrip(voters, candidates, total):
    """decode(encode(counts)) == counts whenever counts fit the base."""
    election = Election(
        voters=tuple(f"V{i}" for i in range(voters)),
        candidates=tuple(f"C{j}" for j in range(candidates)),
    )
    base = voters + 1
    counts = {}
    remaining = total
    for name in election.candidates:
        counts[name] = remaining % base
        remaining //= base
    encoded = sum(
        counts[name] * election.exponent_of(name) for name in election.candidates
    )
    assert election.decode_tally(encoded) == counts
    assert encoded < election.tally_bound
