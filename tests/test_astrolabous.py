"""Astrolabous TLE: round-trips, sequentiality, witness validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import hash_bytes
from repro.tle.astrolabous import (
    PuzzleError,
    PuzzleSolver,
    TLECiphertext,
    ast_decrypt,
    ast_encrypt,
    ast_solve,
)


def _hash(x: bytes) -> bytes:
    return hash_bytes(x, domain=b"test-oracle")


def test_roundtrip(rng):
    ct = ast_encrypt(b"the message", difficulty=3, rate=2, hash_fn=_hash, rng=rng)
    witness = ast_solve(ct, _hash)
    assert ast_decrypt(ct, witness) == b"the message"


def test_chain_length(rng):
    ct = ast_encrypt(b"m", difficulty=3, rate=4, hash_fn=_hash, rng=rng)
    assert ct.length == 12
    assert len(ct.chain) == 13


def test_solving_takes_exactly_length_queries(rng):
    ct = ast_encrypt(b"m", difficulty=2, rate=3, hash_fn=_hash, rng=rng)
    queries = 0

    def counting_hash(x: bytes) -> bytes:
        nonlocal queries
        queries += 1
        return _hash(x)

    ast_solve(ct, counting_hash)
    assert queries == ct.length == 6


def test_sequentiality_each_query_depends_on_previous(rng):
    """The j-th query is unknowable before the (j-1)-th response."""
    ct = ast_encrypt(b"m", difficulty=2, rate=2, hash_fn=_hash, rng=rng)
    solver = PuzzleSolver(ct)
    seen = []
    while not solver.solved:
        query = solver.next_query()
        seen.append(query)
        solver.absorb(_hash(query))
    # Each query (after the first) is chain[j] ⊕ H(previous query) — so
    # withholding the hash response makes the next query underivable from
    # the ciphertext alone:
    for j in range(1, len(seen)):
        from repro.crypto.hashing import xor_bytes

        assert seen[j] == xor_bytes(ct.chain[j], _hash(seen[j - 1]))
        assert seen[j] != ct.chain[j]


def test_wrong_witness_rejected(rng):
    ct = ast_encrypt(b"m", difficulty=1, rate=2, hash_fn=_hash, rng=rng)
    witness = list(ast_solve(ct, _hash))
    witness[-1] = bytes(32)
    with pytest.raises(PuzzleError):
        ast_decrypt(ct, witness)


def test_wrong_witness_length_rejected(rng):
    ct = ast_encrypt(b"m", difficulty=1, rate=2, hash_fn=_hash, rng=rng)
    witness = ast_solve(ct, _hash)
    with pytest.raises(PuzzleError):
        ast_decrypt(ct, witness[:-1])


def test_difficulty_zero_opens_immediately(rng):
    ct = ast_encrypt(b"instant", difficulty=0, rate=4, hash_fn=_hash, rng=rng)
    assert ct.length == 0
    assert ast_decrypt(ct, ()) == b"instant"


def test_solver_refuses_past_end(rng):
    ct = ast_encrypt(b"m", difficulty=1, rate=1, hash_fn=_hash, rng=rng)
    solver = PuzzleSolver(ct)
    solver.step(_hash, queries=10)
    assert solver.solved
    with pytest.raises(PuzzleError):
        solver.next_query()


def test_solver_step_budget(rng):
    ct = ast_encrypt(b"m", difficulty=3, rate=2, hash_fn=_hash, rng=rng)
    solver = PuzzleSolver(ct)
    assert solver.step(_hash, queries=2) == 2
    assert solver.position == 2
    assert not solver.solved
    assert solver.step(_hash, queries=100) == 4
    assert solver.solved


def test_explicit_randomness_must_match_length(rng):
    with pytest.raises(PuzzleError):
        ast_encrypt(
            b"m", difficulty=2, rate=2, hash_fn=_hash, rng=rng,
            randomness=[bytes(32)] * 3,
        )


def test_malformed_chain_rejected():
    with pytest.raises(PuzzleError):
        TLECiphertext(difficulty=1, rate=2, body=b"", chain=(bytes(32),))
    with pytest.raises(PuzzleError):
        TLECiphertext(difficulty=1, rate=2, body=b"", chain=(b"short",) * 3)
    with pytest.raises(PuzzleError):
        TLECiphertext(difficulty=-1, rate=2, body=b"", chain=())


@settings(max_examples=20, deadline=None)
@given(
    message=st.binary(max_size=128),
    difficulty=st.integers(min_value=0, max_value=4),
    rate=st.integers(min_value=1, max_value=4),
    seed=st.integers(),
)
def test_roundtrip_property(message, difficulty, rate, seed):
    rng = random.Random(seed)
    ct = ast_encrypt(message, difficulty=difficulty, rate=rate, hash_fn=_hash, rng=rng)
    assert ast_decrypt(ct, ast_solve(ct, _hash)) == message


# -- PuzzleSolver edges --------------------------------------------------------


def _puzzle(rng, difficulty, rate):
    """A puzzle built from known randomness r_0..r_{L-1}, and its witness."""
    randomness = [rng.randbytes(32) for _ in range(difficulty * rate)]
    ct = ast_encrypt(
        b"edge", difficulty=difficulty, rate=rate, hash_fn=_hash, rng=rng,
        randomness=randomness,
    )
    return ct, tuple(_hash(r) for r in randomness)


def test_solver_difficulty_zero_starts_solved(rng):
    ct, witness = _puzzle(rng, difficulty=0, rate=3)
    solver = PuzzleSolver(ct)
    assert solver.solved and solver.position == 0 and witness == ()
    with pytest.raises(PuzzleError, match="already solved"):
        solver.next_query()
    with pytest.raises(PuzzleError, match="already solved"):
        solver.absorb(bytes(32))
    assert solver.step(_hash, queries=5) == 0
    assert ast_solve(ct, _hash) == ()


@pytest.mark.parametrize("difficulty, rate", [(1, 1), (3, 4)])
def test_solver_witness_is_the_hash_of_each_link(rng, difficulty, rate):
    ct, witness = _puzzle(rng, difficulty, rate)
    assert ast_solve(ct, _hash) == witness
    for k in (1, 2, ct.length):
        solver = PuzzleSolver(ct)
        steps = 0
        while not solver.solved:
            assert solver.position == steps
            steps += solver.step(_hash, queries=k)
        assert steps == ct.length and tuple(solver.witness) == witness
        assert ast_decrypt(ct, solver.witness) == b"edge"


def test_solver_absorb_after_solving_and_wrong_size_raise(rng):
    ct, witness = _puzzle(rng, difficulty=1, rate=2)
    solver = PuzzleSolver(ct)
    with pytest.raises(PuzzleError, match="wrong size"):
        solver.absorb(b"short")
    assert solver.position == 0 and not solver.solved
    solver.step(_hash, queries=2)
    assert solver.solved and tuple(solver.witness) == witness
    with pytest.raises(PuzzleError, match="already solved"):
        solver.absorb(bytes(32))
    with pytest.raises(PuzzleError, match="already solved"):
        solver.next_query()
