"""Arithmetic tier: backend selection, value parity, int normalization.

The :class:`~repro.crypto.groups.ArithBackend` seam must be invisible in
results: whatever backend computes, every value crossing a public API
boundary is a built-in ``int`` and equals what the pure-python reference
produces.  These tests pin the selection machinery (explicit, env var,
auto-detection) and the normalization contract that keeps pickled groups,
material blobs and trace digests byte-identical across backends.
"""

from __future__ import annotations

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.groups import (
    GROUP_2048,
    TEST_GROUP,
    Gmpy2Arith,
    PythonArith,
    SchnorrGroup,
    _init_arith_from_env,
    available_arith_backends,
    get_arith_backend,
    jacobi,
    set_arith_backend,
)
from repro.crypto.preprocessing import build_material, deserialize_material, serialize_material

BACKENDS = available_arith_backends()
HAVE_GMPY2 = "gmpy2" in BACKENDS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _restore_arith():
    """Every test leaves the process-global backend as it found it."""
    before = get_arith_backend().name
    yield
    set_arith_backend(before)


def fresh_group() -> SchnorrGroup:
    """A TEST_GROUP clone with cold caches (the shipped singleton may be warm)."""
    return SchnorrGroup(p=TEST_GROUP.p, q=TEST_GROUP.q, g=TEST_GROUP.g)


# -- selection --------------------------------------------------------------


def test_python_backend_always_available():
    assert "python" in BACKENDS


def test_set_by_name_and_auto():
    assert set_arith_backend("python").name == "python"
    auto = set_arith_backend("auto")
    assert auto.name == ("gmpy2" if HAVE_GMPY2 else "python")
    assert set_arith_backend(None).name == auto.name


def test_unknown_backend_raises_listing_choices():
    with pytest.raises(ValueError, match="auto"):
        set_arith_backend("bignum9000")


@pytest.mark.skipif(HAVE_GMPY2, reason="gmpy2 installed: the name resolves")
def test_gmpy2_unavailable_raises():
    with pytest.raises(ValueError, match="gmpy2"):
        set_arith_backend("gmpy2")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_ARITH", "python")
    _init_arith_from_env()
    assert get_arith_backend().name == "python"


def test_env_var_unavailable_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_ARITH", "bignum9000")
    with pytest.warns(RuntimeWarning, match="falling back"):
        _init_arith_from_env()
    assert get_arith_backend().name in BACKENDS


# -- jacobi / membership fast path ------------------------------------------


def test_jacobi_euler_criterion_on_safe_prime(rng):
    p, q = TEST_GROUP.p, TEST_GROUP.q
    for _ in range(50):
        a = rng.randrange(1, p)
        assert (jacobi(a, p) == 1) == (pow(a, q, p) == 1)


def test_jacobi_edge_cases():
    p = TEST_GROUP.p
    assert jacobi(0, p) == 0
    assert jacobi(p, p) == 0
    assert jacobi(1, p) == 1
    # Multiplicativity: (ab/p) = (a/p)(b/p).
    assert jacobi(6, p) == jacobi(2, p) * jacobi(3, p)


def test_membership_matches_order_check(rng):
    group = fresh_group()
    for _ in range(30):
        a = rng.randrange(1, group.p)
        assert group.is_member(a) == (pow(a, group.q, group.p) == 1)
    assert not group.is_member(0)
    assert not group.is_member(group.p)
    assert not group.is_member(-1)


def test_non_safe_prime_group_keeps_order_check():
    # p = 23 = 2*11 + 1 is safe; use p = 13, q = 3, g = 3 (3^3 = 27 = 1 mod 13)
    # where p != 2q + 1, so membership must run the direct order check.
    group = SchnorrGroup(p=13, q=3, g=3)
    assert not group._safe_prime
    members = {pow(group.g, e, 13) for e in range(3)}
    for a in range(1, 13):
        assert group.is_member(a) == (a in members)


# -- cross-backend value parity ----------------------------------------------


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_group_ops_identical_across_backends(name, rng):
    reference = fresh_group()
    set_arith_backend("python")
    x = reference.random_scalar(rng)
    y = reference.random_scalar(rng)
    h = reference.exp(reference.g, y)
    expected = (
        reference.power_of_g(x),
        reference.exp(h, x),
        reference.inv(h),
        reference.multi_exp(((h, x), (reference.g, y), (reference.exp(h, 3), 5))),
    )
    set_arith_backend(name)
    group = fresh_group()
    actual = (
        group.power_of_g(x),
        group.exp(h, x),
        group.inv(h),
        group.multi_exp(((h, x), (group.g, y), (group.exp(h, 3), 5))),
    )
    assert actual == expected
    assert all(type(value) is int for value in actual)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_results_are_builtin_ints(name, rng):
    set_arith_backend(name)
    group = fresh_group()
    group.precompute_fixed_base()
    _w, table = group._fb_state
    assert all(type(entry) is int for row in table for entry in row)
    assert type(group.power_of_g(12345)) is int
    assert type(group.exp(group.g + 1, 7)) is int
    assert type(group.inv(5)) is int
    assert type(group.multi_exp(((9, 3), (25, 4)))) is int


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_warmed_group_pickle_round_trip(name):
    # Regression: fixed-base tables built under gmpy2 used to hold mpz
    # entries, which survived into pickles and material blobs.  A warmed
    # group must pickle to pure ints and rebuild cleanly.
    set_arith_backend(name)
    group = fresh_group()
    group.warm_up()
    clone = pickle.loads(pickle.dumps(group))
    assert (clone.p, clone.q, clone.g) == (group.p, group.q, group.g)
    assert clone._fb_state is None  # caches never travel
    assert clone.power_of_g(777) == group.power_of_g(777)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_material_blob_identical_across_backends(name):
    set_arith_backend("python")
    reference = serialize_material(build_material(TEST_GROUP, nonces=4, feldman=2))
    set_arith_backend(name)
    blob = serialize_material(build_material(TEST_GROUP, nonces=4, feldman=2))
    assert blob == reference
    material = deserialize_material(blob)
    assert all(type(entry) is int for row in material.fb_table for entry in row)
    material.attach(fresh_group())


# -- property-based parity ---------------------------------------------------


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
@settings(max_examples=60, deadline=None)
@given(
    base=st.integers(min_value=1, max_value=TEST_GROUP.p - 1),
    exponent=st.integers(min_value=0, max_value=TEST_GROUP.q - 1),
)
def test_gmpy2_powmod_matches_python(base, exponent):
    python, native = PythonArith(), BACKENDS["gmpy2"]
    assert isinstance(native, Gmpy2Arith)
    result = native.powmod(base, exponent, TEST_GROUP.p)
    assert result == python.powmod(base, exponent, TEST_GROUP.p)
    assert type(result) is int


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
@settings(max_examples=60, deadline=None)
@given(a=st.integers(min_value=1, max_value=TEST_GROUP.p - 1))
def test_gmpy2_invert_and_jacobi_match_python(a):
    python, native = PythonArith(), BACKENDS["gmpy2"]
    assert native.invert(a, TEST_GROUP.p) == python.invert(a, TEST_GROUP.p)
    assert native.jacobi(a, TEST_GROUP.p) == python.jacobi(a, TEST_GROUP.p)


@pytest.mark.skipif(not HAVE_GMPY2, reason="gmpy2 not installed")
def test_gmpy2_invert_error_type():
    with pytest.raises(ValueError):
        BACKENDS["gmpy2"].invert(0, TEST_GROUP.p)
    with pytest.raises(ValueError):
        PythonArith().invert(0, TEST_GROUP.p)


class _FakeMpz(int):
    """Stands in for gmpy2.mpz: an int subclass, so ``type(x) is int`` fails.

    Products and remainders stay ``_FakeMpz``, as mpz arithmetic stays mpz.
    """

    def __mul__(self, other):
        return _FakeMpz(int(self) * int(other))

    __rmul__ = __mul__

    def __mod__(self, other):
        return _FakeMpz(int(self) % int(other))


class _FakeGmpy2:
    """API-faithful gmpy2 stub so Gmpy2Arith's wrapper logic (int
    normalization, error conversion) is covered on python-only hosts."""

    mpz = _FakeMpz

    @staticmethod
    def powmod(base, exponent, modulus):
        return _FakeMpz(pow(int(base), int(exponent), int(modulus)))

    @staticmethod
    def invert(a, modulus):
        try:
            return _FakeMpz(pow(int(a), -1, int(modulus)))
        except ValueError:
            raise ZeroDivisionError("invert() no inverse exists") from None

    @staticmethod
    def jacobi(a, n):
        return jacobi(int(a), int(n))


def test_gmpy2_wrapper_normalizes_and_converts_errors():
    backend = Gmpy2Arith(_FakeGmpy2())
    p = TEST_GROUP.p
    result = backend.powmod(3, 20, p)
    assert result == pow(3, 20, p) and type(result) is int
    inverse = backend.invert(7, p)
    assert inverse == pow(7, -1, p) and type(inverse) is int
    with pytest.raises(ValueError, match="not invertible"):
        backend.invert(0, p)
    assert backend.jacobi(p - 1, p) == jacobi(p - 1, p)
    assert isinstance(backend.to_native(5), _FakeMpz)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(min_value=0, max_value=1 << 512))
def test_jacobi_matches_euler_criterion_2048(a):
    p, q = GROUP_2048.p, GROUP_2048.q
    value = a % p
    if value == 0:
        assert jacobi(value, p) == 0
    else:
        assert (jacobi(value, p) == 1) == (pow(value, q, p) == 1)


# -- per-base window tables ---------------------------------------------------


def _non_residue(p: int) -> int:
    return next(a for a in range(2, 100) if jacobi(a, p) == -1)


_P = TEST_GROUP.p
#: Edge bases for the table path: the trivial elements, -1, an element of
#: order 2q outside the subgroup, unreduced and negative representatives,
#: and g itself (which keeps its own table).
TABLE_BASES = (0, 1, _P - 1, _non_residue(_P), _P + 12345, -7, TEST_GROUP.g, 5**40 % _P)
TABLE_EXPONENTS = (0, TEST_GROUP.q, -1, TEST_GROUP.q + 3, 2 * TEST_GROUP.q - 1)


@pytest.fixture(params=sorted(BACKENDS) + ["mpz-stub"])
def table_backend(request, monkeypatch):
    """Each importable backend, plus the gmpy2 wrapper over an mpz stub so
    python-only hosts still build tables in a non-``int`` native type."""
    if request.param == "mpz-stub":
        import repro.crypto.groups as groups

        monkeypatch.setattr(groups, "_ARITH", Gmpy2Arith(_FakeGmpy2()))
    else:
        set_arith_backend(request.param)
    return request.param


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    base=st.sampled_from(TABLE_BASES),
    exponent=st.one_of(
        st.sampled_from(TABLE_EXPONENTS),
        st.integers(min_value=-(1 << 300), max_value=1 << 300),
    ),
)
def test_table_backed_exp_matches_pow(table_backend, base, exponent):
    group = fresh_group()
    group.fixed_base(base)
    result = group.exp(base, exponent)
    assert result == pow(base, exponent % group.q, group.p)
    assert type(result) is int


def test_fixed_base_tables_hold_plain_ints(table_backend):
    group = fresh_group()
    group.fixed_base(*TABLE_BASES)
    assert set(group._base_tables) == {b % group.p for b in TABLE_BASES} - {group.g}
    assert all(
        type(entry) is int for table in group._base_tables.values() for row in table for entry in row
    )


def test_multi_exp_with_hinted_bases_matches_pow_product(table_backend):
    group = fresh_group()
    p, q = group.p, group.q
    b1, b2, b3 = 5**40 % p, 7**50 % p, _non_residue(p)
    group.fixed_base(b1, b2)
    pairs = (
        (b1, 3 * q + 11),
        (b1 + p, q - 4),  # merges with b1: exponents sum to 7 mod q
        (b2, -1),
        (b3, 1 << 200),  # no table: the pow fallback
        (group.g, 9),
        (b2, 1),  # merges with b2 to exponent 0: drops out
        (0, q),  # exponent 0: ignored, as pow(0, 0) == 1
    )
    expected = 1
    for base, e in pairs:
        expected = expected * pow(base, e % q, p) % p
    result = group.multi_exp(pairs)
    assert result == expected
    assert type(result) is int


def _base_table_bytes(group: SchnorrGroup) -> int:
    return sum(len(table) * len(table[0]) * group._width for table in group._base_tables.values())


def test_base_table_cache_evicts_oldest_within_byte_bound():
    from repro.crypto.groups import BASE_TABLE_CACHE_BYTES

    group = fresh_group()
    capacity = group._base_table_capacity
    assert capacity >= 2 + 2 * 8  # an 8-voter election's reused bases fit
    bases = [pow(3, k, group.p) for k in range(1, capacity + 4)]
    group.fixed_base(*bases)
    assert list(group._base_tables) == bases[-capacity:]
    assert list(group._base_evicted) == bases[:-capacity]
    assert _base_table_bytes(group) <= BASE_TABLE_CACHE_BYTES
    assert group.exp(bases[0], 99) == pow(bases[0], 99, group.p)  # evicted: pow


def test_rehinted_evicted_bases_do_not_thrash_the_cache():
    # More live bases than slots, hinted round-robin as an election's
    # verifiers do: the first pass evicts the oldest few, and later passes
    # keep the resident tables instead of rebuilding what was evicted.
    group = fresh_group()
    bases = [pow(3, k, group.p) for k in range(1, group._base_table_capacity + 5)]
    group.fixed_base(*bases)
    resident = dict(group._base_tables)
    for _ in range(3):
        group.fixed_base(*bases)
    assert group._base_tables.keys() == resident.keys()
    assert all(group._base_tables[key] is table for key, table in resident.items())
    for base in bases:
        assert group.exp(base, -5) == pow(base, group.q - 5, group.p)


def test_evicted_key_memory_is_bounded(monkeypatch):
    import repro.crypto.groups as groups

    monkeypatch.setattr(groups, "_BASE_EVICTED_MAX", 3)
    group = fresh_group()
    bases = [pow(3, k, group.p) for k in range(1, group._base_table_capacity + 6)]
    group.fixed_base(*bases)
    assert list(group._base_evicted) == bases[2:5]
    group.fixed_base(bases[0])  # forgotten: a new base again, so it is built
    assert bases[0] in group._base_tables


def test_base_table_byte_bound_holds_on_group_2048():
    from repro.crypto.groups import BASE_TABLE_CACHE_BYTES

    group = SchnorrGroup(p=GROUP_2048.p, q=GROUP_2048.q, g=GROUP_2048.g)
    bases = (3, 5, GROUP_2048.p - 1)
    group.fixed_base(*bases)
    assert _base_table_bytes(group) <= BASE_TABLE_CACHE_BYTES
    assert group._base_tables == {}  # one 2048-bit table alone exceeds the bound
    for base in bases:
        assert group.exp(base, 1 << 1000) == pow(base, (1 << 1000) % group.q, group.p)


def test_pickled_and_setstate_clones_carry_no_base_tables():
    group = fresh_group()
    group.fixed_base(3, 5)
    assert len(group._base_tables) == 2
    group.fixed_base(*(pow(7, k, group.p) for k in range(group._base_table_capacity)))
    assert group._base_evicted
    clone = pickle.loads(pickle.dumps(group))
    assert clone._base_tables == {} and clone._base_evicted == {}
    rebuilt = SchnorrGroup.__new__(SchnorrGroup)
    rebuilt.__setstate__(group.__getstate__())
    assert rebuilt._base_tables == {} and rebuilt._base_evicted == {}
    assert clone.exp(3, 777) == group.exp(3, 777) == rebuilt.exp(3, 777)


def test_concurrent_hints_for_one_base_keep_one_table():
    # The cache sits one short of full; racing hints for one new base must
    # insert it once and evict nothing (a lost re-check would evict once
    # per extra insert).
    import sys
    import threading

    group = fresh_group()
    earlier = [pow(3, k, group.p) for k in range(1, group._base_table_capacity)]
    group.fixed_base(*earlier)
    base = 5**40 % group.p
    barrier = threading.Barrier(8)

    def hint() -> None:
        barrier.wait(timeout=10)
        group.fixed_base(base)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hint) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert list(group._base_tables) == earlier + [base]
    assert group.exp(base, 12345) == pow(base, 12345, group.p)


# -- public discrete-log registry ----------------------------------------------

#: Logs for the registry path: 0 (the element 1), 1 (g itself), -1, and
#: unreduced and negative representatives.
REGISTRY_LOGS = (0, 1, TEST_GROUP.q - 1, TEST_GROUP.q + 2, -5, 5**40)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    log=st.one_of(st.sampled_from(REGISTRY_LOGS), st.integers(min_value=-(1 << 300), max_value=1 << 300)),
    exponent=st.one_of(
        st.sampled_from(TABLE_EXPONENTS),
        st.integers(min_value=-(1 << 300), max_value=1 << 300),
    ),
    other=st.one_of(st.sampled_from(TABLE_EXPONENTS), st.integers(min_value=-(1 << 300), max_value=1 << 300)),
)
def test_registered_base_powers_match_pow(table_backend, log, exponent, other):
    group = fresh_group()
    p, q, g = group.p, group.q, group.g
    base = group.public_power_of_g(log)
    assert base == pow(g, log % q, p) and type(base) is int
    assert group.public_power_of_g(log + q) == base  # re-registration keeps one entry
    assert group._base_logs == {base: log % q}
    result = group.exp(base, exponent)
    assert result == pow(base, exponent % q, p) and type(result) is int
    hinted = 5**40 % p
    group.fixed_base(hinted)
    for pairs in (
        ((base, exponent),),
        ((base, exponent), (g, other)),  # folds into g's exponent
        ((base, exponent), (base + p, other)),  # merges with itself first
        ((base, exponent), (hinted, other), (base, 1)),
        ((g, exponent), (base, other), (_non_residue(p), 3)),
    ):
        expected = 1
        for b, e in pairs:
            expected = expected * pow(b, e % q, p) % p
        result = group.multi_exp(pairs)
        assert result == expected, pairs
        assert type(result) is int


def test_registered_bases_take_no_table():
    group = fresh_group()
    seed = group.public_power_of_g(12345)
    group.fixed_base(seed, 3)
    assert list(group._base_tables) == [3]


def test_public_log_registry_is_bounded_oldest_first(monkeypatch):
    import repro.crypto.groups as groups

    monkeypatch.setattr(groups, "_BASE_LOG_MAX", 3)
    group = fresh_group()
    elements = [group.public_power_of_g(log) for log in range(2, 8)]
    assert list(group._base_logs) == elements[-3:]
    assert group._base_logs == {group.power_of_g(log): log for log in range(5, 8)}
    group.public_power_of_g(5)  # already registered: stays oldest
    assert list(group._base_logs) == elements[-3:]
    group.public_power_of_g(2)
    assert list(group._base_logs) == elements[-2:] + [elements[0]]
    for element in elements:  # evicted or not, powers are unchanged
        assert group.exp(element, -9) == pow(element, group.q - 9, group.p)


def test_pickled_clone_has_an_empty_log_registry():
    group = fresh_group()
    seed = group.public_power_of_g(99)
    clone = pickle.loads(pickle.dumps(group))
    assert group.__getstate__() == {"p": group.p, "q": group.q, "g": group.g}
    assert group._base_logs == {seed: 99} and clone._base_logs == {}
    assert clone.exp(seed, 777) == group.exp(seed, 777) == pow(seed, 777, group.p)


def test_group_2048_uses_the_registry_without_tables(monkeypatch):
    import repro.crypto.groups as groups

    group = SchnorrGroup(p=GROUP_2048.p, q=GROUP_2048.q, g=GROUP_2048.g)
    assert group._base_table_capacity == 0
    seed = group.public_power_of_g(1 << 1000)
    group.fixed_base(seed)
    assert group._base_tables == {} and group._base_logs == {seed: (1 << 1000) % group.q}
    powered: list = []

    class Spy(PythonArith):
        def powmod(self, base, exponent, modulus):
            powered.append(base)
            return super().powmod(base, exponent, modulus)

    monkeypatch.setattr(groups, "_ARITH", Spy())
    e = (1 << 700) + 3
    assert group.exp(seed, e) == pow(seed, e, group.p)
    assert group.multi_exp(((seed, e), (group.g, 5))) == pow(seed, e, group.p) * pow(group.g, 5, group.p) % group.p
    assert powered and set(powered) == {group.g}  # g-powers only, never the seed


@pytest.mark.parametrize("batched", [False, True], ids=["per-item", "batched"])
def test_an_election_registers_only_its_ro_seed(batched):
    # The public-only rule: voter exponents, the election base's log and
    # ballot logs must never enter the shared registry, only the seed.
    from repro.core import build_voting_stack
    from repro.crypto.batch import BatchPolicy, batching

    with TEST_GROUP._accel_lock:
        TEST_GROUP._base_logs.clear()
    with batching(BatchPolicy() if batched else None):
        stack = build_voting_stack(voters=4, candidates=("yes", "no"), seed=7)
        for authority in stack.authorities.values():
            authority.deal()
        stack.run_rounds(1)
        for index, candidate in enumerate(("yes", "no", "no", "yes")):
            stack.parties[f"V{index}"].vote(candidate)
        stack.run_until_result()
    results = stack.results()
    assert len(results) == 4 and all(result == {"yes": 2, "no": 2} for result in results.values())
    seed = stack.parties["V0"]._seed()
    assert list(TEST_GROUP._base_logs) == [seed]
    assert pow(TEST_GROUP.g, TEST_GROUP._base_logs[seed], TEST_GROUP.p) == seed
