"""Σ-protocol proofs: completeness and soundness rejection paths."""

import random
from typing import List, Sequence, Tuple

import pytest

from repro.crypto.batch import verify_batch
from repro.crypto.groups import TEST_GROUP, SchnorrGroup, jacobi
from repro.crypto.zkp import (
    BallotProof,
    _commitment_nonce,
    _fs_challenge,
    ballot_batch_item,
    ballot_prove,
    ballot_verify,
    cp_prove,
    cp_verify,
    pok_prove,
    pok_verify,
)
from repro.uc.encoding import encode

G = TEST_GROUP


def test_pok_completeness(rng):
    x = G.random_scalar(rng)
    y = G.power_of_g(x)
    proof = pok_prove(G, G.g, y, x, rng)
    assert pok_verify(G, G.g, y, proof)


def test_pok_wrong_statement(rng):
    x = G.random_scalar(rng)
    proof = pok_prove(G, G.g, G.power_of_g(x), x, rng)
    assert not pok_verify(G, G.g, G.power_of_g(x + 1), proof)


def test_pok_nonstandard_base(rng):
    base = G.random_element(rng)
    x = G.random_scalar(rng)
    proof = pok_prove(G, base, G.exp(base, x), x, rng)
    assert pok_verify(G, base, G.exp(base, x), proof)


def test_cp_completeness(rng):
    x = G.random_scalar(rng)
    b1, b2 = G.random_element(rng), G.random_element(rng)
    proof = cp_prove(G, b1, G.exp(b1, x), b2, G.exp(b2, x), x, rng)
    assert cp_verify(G, b1, G.exp(b1, x), b2, G.exp(b2, x), proof)


def test_cp_unequal_logs_rejected(rng):
    x, y = G.random_scalar(rng), G.random_scalar(rng)
    b1, b2 = G.random_element(rng), G.random_element(rng)
    proof = cp_prove(G, b1, G.exp(b1, x), b2, G.exp(b2, y), x, rng)
    assert not cp_verify(G, b1, G.exp(b1, x), b2, G.exp(b2, y), proof)


def _make_ballot(rng, vote, choices, key_base=None):
    key_base = key_base or G.g
    x = G.random_scalar(rng)
    w = G.exp(key_base, x)
    seed = G.random_element(rng)
    ballot = G.mul(G.exp(seed, x), G.power_of_g(vote))
    proof = ballot_prove(
        G, seed, w, ballot, x, vote, choices, rng, key_base=key_base
    )
    return seed, w, ballot, proof


def test_ballot_completeness_all_choices(rng):
    choices = [1, 5, 25]
    for vote in choices:
        seed, w, ballot, proof = _make_ballot(rng, vote, choices)
        assert ballot_verify(G, seed, w, ballot, proof, choices)


def test_ballot_with_custom_key_base(rng):
    base = G.random_element(rng)
    choices = [1, 5]
    seed, w, ballot, proof = _make_ballot(rng, 5, choices, key_base=base)
    assert ballot_verify(G, seed, w, ballot, proof, choices, key_base=base)
    assert not ballot_verify(G, seed, w, ballot, proof, choices)  # wrong base


def test_ballot_vote_outside_choices_rejected(rng):
    choices = [1, 5]
    x = G.random_scalar(rng)
    w = G.power_of_g(x)
    seed = G.random_element(rng)
    illegal = G.mul(G.exp(seed, x), G.power_of_g(7))  # vote 7 not allowed
    with pytest.raises(ValueError):
        ballot_prove(G, seed, w, illegal, x, 7, choices, rng)


def test_ballot_forged_vote_value_rejected(rng):
    choices = [1, 5]
    seed, w, ballot, proof = _make_ballot(rng, 1, choices)
    other = G.mul(ballot, G.power_of_g(4))  # shift vote 1 -> 5 without key
    assert not ballot_verify(G, seed, w, other, proof, choices)


def test_ballot_wrong_key_rejected(rng):
    choices = [1, 5]
    seed, _w, ballot, proof = _make_ballot(rng, 1, choices)
    other_key = G.power_of_g(G.random_scalar(rng))
    assert not ballot_verify(G, seed, other_key, ballot, proof, choices)


def test_ballot_branch_count_checked(rng):
    choices = [1, 5]
    seed, w, ballot, proof = _make_ballot(rng, 1, choices)
    assert not ballot_verify(G, seed, w, ballot, proof, [1, 5, 25])


def test_ballot_tampered_branch_rejected(rng):
    choices = [1, 5]
    seed, w, ballot, proof = _make_ballot(rng, 1, choices)
    a1, a2, e, s = proof.branches[0]
    forged = BallotProof(branches=((a1, a2, e, (s + 1) % G.q),) + proof.branches[1:])
    assert not ballot_verify(G, seed, w, ballot, forged, choices)


def test_ballot_challenge_sum_checked(rng):
    choices = [1, 5]
    seed, w, ballot, proof = _make_ballot(rng, 1, choices)
    a1, a2, e, s = proof.branches[0]
    forged = BallotProof(branches=((a1, a2, (e + 1) % G.q, s),) + proof.branches[1:])
    assert not ballot_verify(G, seed, w, ballot, forged, choices)


# ---------------------------------------------------------------------------
# Parity: the rewritten prover and verifier against the previous ones
# ---------------------------------------------------------------------------


def _reference_ballot_statement(group, seed, w, ballot, vote):
    """Statement for branch ``vote``: log_g(w) = log_seed(ballot / g^vote)."""
    shifted = group.mul(ballot, group.inv(group.power_of_g(vote)))
    return w, shifted


def reference_ballot_verify(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    proof: BallotProof,
    choices: Sequence[int],
    key_base: int = 0,
) -> bool:
    """The verifier before the rewrite, verbatim: per-choice ``ballot / g^v`` bases."""
    key_base = key_base or group.g
    choices = list(choices)
    if len(proof.branches) != len(choices):
        return False
    flat: List[int] = [seed, w, ballot]
    for a1, a2, _, _ in proof.branches:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")
    if sum(e for _, _, e, _ in proof.branches) % group.q != global_challenge:
        return False
    for (a1, a2, e, s), choice in zip(proof.branches, choices):
        public1, public2 = _reference_ballot_statement(group, seed, w, ballot, choice)
        if group.exp(key_base, s) != group.multi_exp(((a1, 1), (public1, e))):
            return False
        if group.exp(seed, s) != group.multi_exp(((a2, 1), (public2, e))):
            return False
    return True


#: The references run on a cold clone where no public log is ever
#: registered, so their seed powers never become ``g``-powers.
REFERENCE_GROUP = SchnorrGroup(p=G.p, q=G.q, g=G.g)
NON_RESIDUE = next(a for a in range(2, 100) if jacobi(a, G.p) == -1)
NON_MEMBERS = (0, G.p - 1, NON_RESIDUE)


def _reseal(seed, w, ballot, branches, index=0):
    """Re-balance branch ``index``'s challenge so the Fiat–Shamir sum holds
    again, pushing a tampered proof past the cheap check into the equations."""
    flat = [seed, w, ballot]
    for a1, a2, _, _ in branches:
        flat.extend((a1, a2))
    target = _fs_challenge(G, *flat, domain=b"ballot-or")
    others = sum(e for i, (_, _, e, _) in enumerate(branches) if i != index)
    a1, a2, _, s = branches[index]
    branches = list(branches)
    branches[index] = (a1, a2, (target - others) % G.q, s)
    return BallotProof(branches=tuple(branches))


def _replace(branches, index, position, value):
    branch = list(branches[index])
    branch[position] = value
    return branches[:index] + (tuple(branch),) + branches[index + 1:]


def _mutation_corpus(rng):
    """(label, seed, w, ballot, proof, choices, key_base) verification cases."""
    cases = []
    election_base = G.random_element(rng)
    # The second configuration's seeds carry a registered public log, as
    # the election's RO seed does; drawn like ``random_element``.
    for choices, key_base, make_seed in (
        ([1, 5, 25], election_base, G.power_of_g),
        ([0, 1], 0, G.public_power_of_g),
    ):
        base = key_base or G.g
        honest = []
        for vote in choices:
            x = G.random_scalar(rng)
            w = G.exp(base, x)
            seed = make_seed(G.random_scalar(rng))
            ballot = G.mul(G.exp(seed, x), G.power_of_g(vote))
            proof = ballot_prove(G, seed, w, ballot, x, vote, choices, rng, key_base=key_base)
            honest.append((seed, w, ballot, proof))
        for n, (seed, w, ballot, proof) in enumerate(honest):
            label = f"{choices}/vote{n}"
            statement, context = (seed, w, ballot), (choices, key_base)
            cases.append((label + "/honest", *statement, proof, *context))
            branches = proof.branches
            for i in range(len(branches)):
                a1, a2, e, s = branches[i]
                j = (i + 1) % len(branches)
                for position, name, value in (
                    (0, "a1", a1 * G.g % G.p),
                    (1, "a2", a2 * G.g % G.p),
                    (2, "e", (e + 1) % G.q),
                    (3, "s", (s + 1) % G.q),
                ):
                    mutated = _replace(branches, i, position, value)
                    cases.append((f"{label}/{name}{i}", *statement, BallotProof(mutated), *context))
                    if name != "e":  # resealing e would restore it; see shift below
                        resealed = _reseal(*statement, mutated, j)
                        cases.append((f"{label}/{name}{i}/resealed", *statement, resealed, *context))
                shifted = _replace(branches, i, 2, (e + 7) % G.q)
                shifted = _replace(shifted, j, 2, (branches[j][2] - 7) % G.q)
                cases.append((f"{label}/shift{i}", *statement, BallotProof(shifted), *context))
                for value in NON_MEMBERS:
                    resealed = _reseal(*statement, _replace(branches, i, 1, value), j)
                    cases.append((f"{label}/a2={value}@{i}", *statement, resealed, *context))
            other_seed, other_w, other_ballot, _ = honest[(n + 1) % len(honest)]
            for name, swapped in (
                ("ballot-swap", (seed, w, other_ballot)),
                ("key-swap", (seed, other_w, ballot)),
                ("seed-swap", (other_seed, w, ballot)),
            ):
                cases.append((f"{label}/{name}", *swapped, proof, *context))
                cases.append((f"{label}/{name}/resealed", *swapped, _reseal(*swapped, branches), *context))
            swapped_base = G.g if key_base else election_base
            cases.append((f"{label}/key-base-swap", *statement, proof, choices, swapped_base))
            for value in NON_MEMBERS + (G.p - ballot,):
                resealed = _reseal(seed, w, value, branches)
                cases.append((f"{label}/ballot={value}", seed, w, value, resealed, *context))
            for name, altered in (
                ("reordered", list(reversed(choices))),
                ("extended", choices + [7]),
                ("shortened", choices[:-1]),
            ):
                cases.append((f"{label}/{name}", *statement, proof, altered, key_base))
    return cases


def test_ballot_verify_matches_reference_on_mutation_corpus(rng):
    corpus = _mutation_corpus(rng)
    verdicts = []
    for label, seed, w, ballot, proof, choices, key_base in corpus:
        expected = reference_ballot_verify(REFERENCE_GROUP, seed, w, ballot, proof, choices, key_base)
        assert ballot_verify(G, seed, w, ballot, proof, choices, key_base) == expected, label
        verdicts.append(expected)
    # The corpus exercises both outcomes, and accepted cases beyond the honest ones
    # would show that a mutation slipped through both verifiers.
    assert sum(verdicts) == sum(label.endswith("/honest") for label, *_ in corpus)
    assert len(verdicts) - sum(verdicts) > 200

    items = [
        ballot_batch_item(G, seed, w, ballot, proof, choices, key_base)
        for _, seed, w, ballot, proof, choices, key_base in corpus
    ]
    assert list(verify_batch(G, items).verdicts) == verdicts


def reference_ballot_prove(
    group: SchnorrGroup,
    seed: int,
    w: int,
    ballot: int,
    secret: int,
    vote: int,
    choices: Sequence[int],
    rng,
    key_base: int = 0,
) -> BallotProof:
    """The prover before it used its witness, verbatim: simulated branches
    pay powers of ``w`` and ``ballot · g^{-choice}`` and two inversions."""
    key_base = key_base or group.g
    choices = list(choices)
    if vote not in choices:
        raise ValueError("vote not in allowed choice set")
    # Every branch raises these to fresh powers, and every verifier will
    # again.  ``w`` and ``ballot`` see at most one power here, so their
    # tables wait for the verifiers: built now, they were evicted unused
    # whenever many elections ran at once.
    group.fixed_base(key_base, seed)
    real_index = choices.index(vote)
    commitments: List[Tuple[int, int]] = [(0, 0)] * len(choices)
    challenges: List[int] = [0] * len(choices)
    responses: List[int] = [0] * len(choices)

    k, real_a1 = _commitment_nonce(group, key_base, rng)
    for index, choice in enumerate(choices):
        public1, public2 = _reference_ballot_statement(group, seed, w, ballot, choice)
        if index == real_index:
            commitments[index] = (real_a1, group.exp(seed, k))
        else:
            challenges[index] = group.random_scalar(rng)
            responses[index] = group.random_scalar(rng)
            a1 = group.mul(
                group.exp(key_base, responses[index]),
                group.inv(group.exp(public1, challenges[index])),
            )
            a2 = group.mul(
                group.exp(seed, responses[index]),
                group.inv(group.exp(public2, challenges[index])),
            )
            commitments[index] = (a1, a2)

    flat: List[int] = [seed, w, ballot]
    for a1, a2 in commitments:
        flat.extend((a1, a2))
    global_challenge = _fs_challenge(group, *flat, domain=b"ballot-or")

    challenges[real_index] = (global_challenge - sum(challenges)) % group.q
    responses[real_index] = (k + challenges[real_index] * secret) % group.q

    return BallotProof(
        branches=tuple(
            (commitments[i][0], commitments[i][1], challenges[i], responses[i])
            for i in range(len(choices))
        )
    )


def _prover_statements(rng):
    """(label, seed, w, ballot, secret, vote, choices, key_base) honest statements."""
    statements = []
    election_base = G.random_element(rng)
    for choices in ([1, 5], [1, 5, 25]):
        for key_base in (0, election_base):
            for registered in (False, True):
                for vote in choices:
                    x = G.random_scalar(rng)
                    w = G.exp(key_base or G.g, x)
                    log = G.random_scalar(rng)
                    seed = G.public_power_of_g(log) if registered else G.power_of_g(log)
                    assert (seed in G._base_logs) == registered
                    ballot = G.mul(G.exp(seed, x), G.power_of_g(vote))
                    label = f"{choices}/base={'w' if key_base else 'g'}/registered={registered}/vote={vote}"
                    statements.append((label, seed, w, ballot, x, vote, choices, key_base))
    return statements


def test_ballot_prove_matches_reference_byte_for_byte(rng):
    statements = _prover_statements(rng)
    assert len(statements) == 2 * 2 * (2 + 3)
    for index, (label, seed, w, ballot, x, vote, choices, key_base) in enumerate(statements):
        proof = ballot_prove(G, seed, w, ballot, x, vote, choices, random.Random(index), key_base=key_base)
        expected = reference_ballot_prove(
            REFERENCE_GROUP, seed, w, ballot, x, vote, choices, random.Random(index), key_base=key_base
        )
        assert encode(proof) == encode(expected), label
        assert ballot_verify(G, seed, w, ballot, proof, choices, key_base), label


def test_ballot_prove_rejects_false_statements(rng):
    for label, seed, w, ballot, x, vote, choices, key_base in _prover_statements(rng):
        shifted = G.mul(ballot, G.g)
        for name, statement in (
            ("wrong secret", (seed, w, ballot, x + 1)),
            ("wrong ballot", (seed, w, shifted, x)),
            ("wrong w", (seed, G.mul(w, G.g), ballot, x)),
        ):
            draws = random.Random(0)
            with pytest.raises(ValueError, match="does not open"):
                ballot_prove(G, *statement, vote, choices, draws, key_base=key_base)
            assert draws.random() == random.Random(0).random(), f"{label}: {name} drew randomness"
