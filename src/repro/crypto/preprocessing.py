"""Offline crypto preprocessing: build, serialize and attach material.

The process-fan-out sweep engine used to pay a fixed warm-up tax in every
worker (and again on every recycle): each process rebuilt the
:class:`~repro.crypto.groups.SchnorrGroup` fixed-base window tables from
scratch.  Following the offline/online split of preprocessing-based MPC
systems (HoneyBadgerMPC ships Beaver triples and shares to its worker
fleet the same way), this module implements the *offline* phase:

* :func:`build_material` computes everything a worker would otherwise
  recompute — the fixed-base window table, plus batched Shamir/ZKP
  randomness (Feldman-committed random polynomials and Schnorr nonce
  pairs ``(k, g^k)``) derived from a recorded seed;
* :func:`serialize_material` / :func:`deserialize_material` round-trip it
  through a versioned, integrity-hashed binary blob suitable for an
  on-disk cache file or a shared-memory segment;
* :func:`read_material` is the load-time check on its own: magic,
  integrity hash, header and body length, returning a
  :class:`MaterialBlob` that exposes the header and decodes nothing else
  (what a parent needs to plan and publish);
* :meth:`CryptoMaterial.attach` is the *online* step: install the table
  into a live group without recomputation (shape- and spot-checked, so a
  blob for the wrong parameters can never corrupt ``power_of_g``).

Attach decodes the header and the fixed-base table only.  The pools
stay packed: ``nonces`` and ``feldman`` are :class:`PackedPool` views
over the blob's bytes, and an entry is decoded when something reads it
(a :class:`~repro.runtime.material.MaterialCursor` spending its slice).
A trial spends about ten entries of a pool sized for thousands, so
decoding the whole pool per attach was the larger part of an online
sweep's set-up.  Every check still runs at load, so a corrupt blob is
refused before any entry is read.

The offline build computes its pool powers on a byte-wide table of ``g``
(:data:`BUILD_WINDOW`) local to the build, when the pools are large
enough to pay for it; the shipped table keeps the group's own window,
so blobs are byte-identical either way.

Only the mathematically transparent caches (fixed-base table, encoding
cache) are attached into protocol executions — seeded runs draw their
own randomness, so trace digests are identical whatever the material
source.  The randomness pools are *consumable* preprocessing for
explicit draws (benchmarks, future offline/online protocol phases); they
never leak into a seeded execution implicitly.  The store is
trusted-local material for a simulator fleet, not a production secret
vault: nonce scalars and polynomial coefficients are stored in the
clear, exactly like HoneyBadgerMPC's offline share files.

Blob layout (version 1)::

    b"RPM1" | sha256(payload) (32 bytes) | payload
    payload = header_len (u32 BE) | header JSON | body
    body    = fb-table entries, nonce (k, r) pairs, Feldman entries
              (coefficients then commitments), all fixed-width big-endian

The header records the group parameters, the fingerprint, the window
width and every pool count, so :func:`deserialize_material` can validate
the body length before touching a single integer.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.crypto.groups import SchnorrGroup, _build_window_table, _byte_table_pow
from repro.crypto.shamir import FeldmanCommitment

__all__ = [
    "CryptoMaterial",
    "FeldmanEntry",
    "MaterialError",
    "MaterialFormatError",
    "MaterialIntegrityError",
    "MATERIAL_MAGIC",
    "MATERIAL_VERSION",
    "MaterialBlob",
    "NoncePair",
    "PackedPool",
    "build_material",
    "deserialize_material",
    "extend_material",
    "group_fingerprint",
    "read_material",
    "serialize_material",
]

#: File magic for serialized material blobs ("RePro Material", version 1).
MATERIAL_MAGIC = b"RPM1"

#: Serialization format version recorded in every header.
MATERIAL_VERSION = 1

#: Digit width (bits) of the build-local table of ``g`` that large
#: offline builds compute their pool powers on: a digit is one byte of
#: the exponent, so a 256-bit power takes 32 table products instead of
#: the shipped window-6 table's 43.
BUILD_WINDOW = 8


class MaterialError(Exception):
    """Base class for preprocessing-material failures."""


class MaterialFormatError(MaterialError):
    """The blob is not a recognizable material serialization."""


class MaterialIntegrityError(MaterialError):
    """The blob's integrity hash does not cover its payload."""


def _fingerprint(p: int, q: int, g: int) -> str:
    """Fingerprint from raw parameters (no group construction).

    The attach hot path runs once per worker; building a throwaway
    :class:`SchnorrGroup` just to name its parameters would pay a
    full-width order check per call.
    """
    h = hashlib.sha256()
    h.update(b"repro-material|")
    for value in (p, q, g):
        h.update(format(value, "x").encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def group_fingerprint(group: SchnorrGroup) -> str:
    """Stable identifier for a parameter set: SHA-256 over ``(p, q, g)``.

    Names the store's cache files (``<fingerprint>.v1``) and is embedded
    in every blob header, so material can never be attached to a group it
    was not built for.
    """
    return _fingerprint(group.p, group.q, group.g)


@dataclass(frozen=True)
class NoncePair:
    """One preprocessed Schnorr nonce: scalar ``k`` with ``r = g^k``.

    Signing and Σ-protocol proving spend one fresh ``(k, g^k)`` pair per
    operation; precomputing the pairs moves the exponentiation into the
    offline phase.
    """

    k: int
    r: int


@dataclass(frozen=True)
class FeldmanEntry:
    """A random degree-t polynomial with its Feldman commitments.

    The offline half of a verifiable sharing of a *random* secret
    (``a_0`` is the secret): dealers consume one entry per sharing and
    only evaluate the polynomial at the recipients' points online.
    """

    coefficients: Tuple[int, ...]
    commitments: Tuple[int, ...]

    @property
    def threshold(self) -> int:
        return len(self.coefficients) - 1

    @property
    def commitment(self) -> FeldmanCommitment:
        """The entry's commitments as a :class:`FeldmanCommitment`."""
        return FeldmanCommitment(commitments=self.commitments)


def _nonce_entry(values: List[int]) -> NoncePair:
    return NoncePair(k=values[0], r=values[1])


def _feldman_entry(values: List[int]) -> FeldmanEntry:
    half = len(values) // 2
    return FeldmanEntry(
        coefficients=tuple(values[:half]), commitments=tuple(values[half:])
    )


class PackedPool(Sequence):
    """A read-only pool of fixed-width entries, decoded when read.

    ``count`` entries of ``fields`` big-endian integers, ``width`` bytes
    each, start at ``start`` in ``data``; indexing decodes one entry.
    Behaves like the tuple of decoded entries it stands for: ``len``,
    indexing (negative indexes, :class:`IndexError` past the end),
    slicing (which returns a tuple), iteration, truth value, and
    equality with tuples and other pools.  Nothing is cached, so a pool
    costs its bytes and no more; ``data`` must be immutable.
    """

    __slots__ = ("_data", "_start", "_count", "_width", "_fields", "_entry")

    def __init__(
        self,
        data: bytes,
        start: int,
        count: int,
        width: int,
        fields: int,
        entry: Callable[[List[int]], Any],
    ) -> None:
        self._data = data
        self._start = start
        self._count = count
        self._width = width
        self._fields = fields
        self._entry = entry

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._count)))
        index = operator.index(index)
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError("pool index out of range")
        width = self._width
        offset = self._start + index * self._fields * width
        data = self._data
        return self._entry([
            int.from_bytes(data[at : at + width], "big")
            for at in range(offset, offset + self._fields * width, width)
        ])

    def __iter__(self) -> Iterator[Any]:
        for index in range(self._count):
            yield self[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, PackedPool)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PackedPool({self._count} entries)"


@dataclass
class CryptoMaterial:
    """Everything the offline phase precomputes for one parameter set."""

    p: int
    q: int
    g: int
    fb_window: int
    fb_table: List[List[int]]
    nonces: Sequence = ()  # of NoncePair: a tuple, or a PackedPool once loaded
    feldman: Sequence = ()  # of FeldmanEntry, likewise
    built_with_seed: int = 0
    _drawn: int = field(default=0, repr=False)

    @property
    def fingerprint(self) -> str:
        return _fingerprint(self.p, self.q, self.g)

    @property
    def element_width(self) -> int:
        """Fixed big-endian width (bytes) of one serialized element."""
        return (self.p.bit_length() + 7) // 8

    @property
    def fb_table_bytes(self) -> int:
        """Serialized footprint of the fixed-base table."""
        if not self.fb_table:
            return 0
        return len(self.fb_table) * len(self.fb_table[0]) * self.element_width

    def matches(self, group: SchnorrGroup) -> bool:
        """Whether this material was built for ``group``'s parameters."""
        return (self.p, self.q, self.g) == (group.p, group.q, group.g)

    def attach(self, group: SchnorrGroup) -> SchnorrGroup:
        """Install the precomputed caches into ``group`` (online phase).

        Raises:
            MaterialError: the material was built for other parameters.
            ValueError: the table fails the group's consistency checks.
        """
        if not self.matches(group):
            raise MaterialError(
                f"material fingerprint {self.fingerprint} does not match the "
                f"target group ({group_fingerprint(group)})"
            )
        group.install_fixed_base(self.fb_table, self.fb_window)
        # Seed the encoding cache with the elements every Fiat–Shamir
        # transcript starts from.
        group.element_to_bytes(1)
        group.element_to_bytes(group.g)
        return group

    def draw_nonce(self) -> NoncePair:
        """Consume one preprocessed nonce pair (never reuse a nonce).

        Raises:
            MaterialError: the pool is exhausted.
        """
        if self._drawn >= len(self.nonces):
            raise MaterialError(
                f"nonce pool exhausted after {len(self.nonces)} draws; "
                "rebuild the material with a larger --nonces"
            )
        pair = self.nonces[self._drawn]
        self._drawn += 1
        return pair

    def iter_feldman(self) -> Iterator[FeldmanEntry]:
        return iter(self.feldman)

    def summary(self) -> Dict[str, Any]:
        """Uniform record for the store inspector and CLI."""
        return {
            "fingerprint": self.fingerprint,
            "bits": self.p.bit_length(),
            "fb_window": self.fb_window,
            "fb_rows": len(self.fb_table),
            "fb_table_bytes": self.fb_table_bytes,
            "nonces": len(self.nonces),
            "feldman": len(self.feldman),
            "feldman_threshold": self.feldman[0].threshold if self.feldman else None,
            "seed": self.built_with_seed,
        }


def _pool_power(group: SchnorrGroup, count: int) -> Callable[[int], int]:
    """``e -> g^e`` for an offline build that computes ``count`` pool powers.

    ``group`` carries the table the build ships.  A :data:`BUILD_WINDOW`
    table costs ``2^8 - 1`` products per row to build and saves one
    product per row it has fewer than the shipped table, per power; a
    build uses it only when its ``count`` powers pay for it (above about
    750 powers at 256 bits, so never for the default pools).  The table
    stays local to the build: the values are the same powers either way.
    """
    bits = group.q.bit_length()
    rows = (bits + BUILD_WINDOW - 1) // BUILD_WINDOW
    shipped_rows = (bits + group._fb_window - 1) // group._fb_window
    if count * (shipped_rows - rows) <= rows * ((1 << BUILD_WINDOW) - 1):
        return group.power_of_g
    table = _build_window_table(group.g, BUILD_WINDOW, rows, group.p)
    q, p = group.q, group.p
    return lambda exponent: _byte_table_pow(table, exponent % q, rows, p)


def _draw_pools(
    rng: random.Random,
    power: Callable[[int], int],
    q: int,
    nonces: int,
    feldman: int,
    feldman_threshold: int,
) -> Tuple[List[NoncePair], List[FeldmanEntry]]:
    """Draw ``nonces`` nonce pairs, then ``feldman`` polynomials, from ``rng``."""
    nonce_pool = []
    for _ in range(nonces):
        k = rng.randrange(1, q)
        nonce_pool.append(NoncePair(k=k, r=power(k)))
    feldman_pool = []
    for _ in range(feldman):
        coefficients = tuple(rng.randrange(q) for _ in range(feldman_threshold + 1))
        feldman_pool.append(
            FeldmanEntry(
                coefficients=coefficients,
                commitments=tuple(power(a) for a in coefficients),
            )
        )
    return nonce_pool, feldman_pool


def build_material(
    group: SchnorrGroup,
    nonces: int = 128,
    feldman: int = 16,
    feldman_threshold: int = 2,
    seed: int = 0,
    window: Optional[int] = None,
) -> CryptoMaterial:
    """The offline phase: precompute everything a worker would redo online.

    Deterministic in ``seed`` (recorded in the material), so two builds
    of the same parameters produce byte-identical blobs — which makes the
    store's integrity hash double as a reproducibility check.
    """
    if nonces < 0 or feldman < 0:
        raise ValueError("pool sizes must be >= 0")
    if feldman and feldman_threshold < 0:
        raise ValueError("feldman_threshold must be >= 0")
    scratch = SchnorrGroup(p=group.p, q=group.q, g=group.g)
    scratch.precompute_fixed_base(window)
    rng = random.Random(f"repro-material|{group_fingerprint(group)}|{seed}")
    power = _pool_power(scratch, nonces + feldman * (feldman_threshold + 1))
    nonce_pool, feldman_pool = _draw_pools(
        rng, power, group.q, nonces, feldman, feldman_threshold
    )
    state = scratch._fb_state
    assert state is not None
    fb_window, fb_table = state
    return CryptoMaterial(
        p=group.p,
        q=group.q,
        g=group.g,
        fb_window=fb_window,
        fb_table=fb_table,
        nonces=tuple(nonce_pool),
        feldman=tuple(feldman_pool),
        built_with_seed=seed,
    )


def extend_material(
    material: CryptoMaterial,
    nonces: int = 0,
    feldman: int = 0,
    feldman_threshold: Optional[int] = None,
) -> CryptoMaterial:
    """Append freshly derived entries to the pools (the replenish phase).

    The existing entries — and therefore every absolute pool index a
    spend ledger or recorded :class:`~repro.runtime.material.OnlinePlan`
    refers to — are preserved byte for byte: extension only appends, the
    fingerprint is parameter-derived so the store filename is unchanged,
    and ``built_with_seed`` stays the original offline seed, so the blob
    lineage (seed + growing pools) remains one generation.  The appended
    randomness is derived from a stream keyed on the *current* pool
    lengths, so repeating the same extension from the same state is
    deterministic, and no extension can ever replay an entry the original
    build (or an earlier extension) already produced.

    Raises:
        ValueError: negative extension counts, or a ``feldman_threshold``
            that disagrees with the existing entries (one pool, one
            threshold — the serializer enforces it too).
    """
    if nonces < 0 or feldman < 0:
        raise ValueError("extension counts must be >= 0")
    existing_threshold = material.feldman[0].threshold if material.feldman else None
    if feldman_threshold is None:
        feldman_threshold = existing_threshold if existing_threshold is not None else 2
    if existing_threshold is not None and feldman_threshold != existing_threshold:
        raise ValueError(
            f"existing feldman entries have threshold {existing_threshold}, "
            f"cannot append threshold-{feldman_threshold} entries"
        )
    if not nonces and not feldman:
        return material
    scratch = SchnorrGroup(p=material.p, q=material.q, g=material.g)
    # The material carries a validated table already; reuse it instead of
    # paying a full fixed-base rebuild per replenishment.
    scratch.install_fixed_base(material.fb_table, material.fb_window)
    rng = random.Random(
        f"repro-material|{material.fingerprint}|{material.built_with_seed}"
        f"|extend|{len(material.nonces)}|{len(material.feldman)}"
    )
    power = _pool_power(scratch, nonces + feldman * (feldman_threshold + 1))
    new_nonces, new_feldman = _draw_pools(
        rng, power, material.q, nonces, feldman, feldman_threshold
    )
    nonce_pool = list(material.nonces) + new_nonces
    feldman_pool = list(material.feldman) + new_feldman
    return CryptoMaterial(
        p=material.p,
        q=material.q,
        g=material.g,
        fb_window=material.fb_window,
        fb_table=material.fb_table,
        nonces=tuple(nonce_pool),
        feldman=tuple(feldman_pool),
        built_with_seed=material.built_with_seed,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_material(material: CryptoMaterial) -> bytes:
    """Render the material as a versioned, integrity-hashed blob.

    Entries are appended straight to one body, so building a blob holds
    the body and the result, not a bytes object per entry: that
    transient was the peak of an offline build's memory.
    """
    width = material.element_width
    threshold = material.feldman[0].threshold if material.feldman else 0
    fb_cols = len(material.fb_table[0]) if material.fb_table else 0
    header = {
        "version": MATERIAL_VERSION,
        "fingerprint": material.fingerprint,
        "p": format(material.p, "x"),
        "q": format(material.q, "x"),
        "g": format(material.g, "x"),
        "width": width,
        "fb_window": material.fb_window,
        "fb_rows": len(material.fb_table),
        "fb_cols": fb_cols,
        "nonces": len(material.nonces),
        "feldman": len(material.feldman),
        "feldman_threshold": threshold,
        "seed": material.built_with_seed,
    }

    def values() -> Iterator[int]:
        for row in material.fb_table:
            yield from row
        for pair in material.nonces:
            yield pair.k
            yield pair.r
        for entry in material.feldman:
            if entry.threshold != threshold:
                raise MaterialFormatError("feldman entries must share one threshold")
            yield from entry.coefficients
            yield from entry.commitments

    body = bytearray()
    for value in values():
        body += value.to_bytes(width, "big")
    header_bytes = json.dumps(header, sort_keys=True).encode()
    prefix = len(header_bytes).to_bytes(4, "big") + header_bytes
    digest = hashlib.sha256(prefix)
    digest.update(body)
    return b"".join((MATERIAL_MAGIC, digest.digest(), prefix, body))


@dataclass(frozen=True)
class MaterialBlob:
    """A serialized material blob that passed every load-time check.

    Made by :func:`read_material`: the header's fields, and the blob
    itself.  Planning and publishing read these fields and the bytes;
    :meth:`decode` makes the :class:`CryptoMaterial` a worker attaches.
    """

    data: bytes = field(repr=False)
    fingerprint: str
    p: int
    q: int
    g: int
    width: int
    fb_window: int
    fb_rows: int
    fb_cols: int
    nonce_count: int
    feldman_count: int
    feldman_threshold: int
    built_with_seed: int
    body_offset: int

    def matches(self, group: SchnorrGroup) -> bool:
        """Whether this blob was built for ``group``'s parameters."""
        return (self.p, self.q, self.g) == (group.p, group.q, group.g)

    def decode(self) -> CryptoMaterial:
        """Decode the fixed-base table; the pools stay packed (:class:`PackedPool`)."""
        data, width = self.data, self.width
        row_bytes = self.fb_cols * width
        table_end = self.body_offset + self.fb_rows * row_bytes
        fb_table = [
            [
                int.from_bytes(data[at : at + width], "big")
                for at in range(row, row + row_bytes, width)
            ]
            for row in (self.body_offset + i * row_bytes for i in range(self.fb_rows))
        ]
        entry_fields = 2 * (self.feldman_threshold + 1)
        feldman_start = table_end + 2 * self.nonce_count * width
        return CryptoMaterial(
            p=self.p,
            q=self.q,
            g=self.g,
            fb_window=self.fb_window,
            fb_table=fb_table,
            nonces=PackedPool(data, table_end, self.nonce_count, width, 2, _nonce_entry),
            feldman=PackedPool(
                data, feldman_start, self.feldman_count, width, entry_fields, _feldman_entry
            ),
            built_with_seed=self.built_with_seed,
        )


def read_material(blob: bytes) -> MaterialBlob:
    """Check a serialized material blob and read its header.

    Decodes no table entry and no pool entry: the checks are the magic,
    the integrity hash, the header, the body length and the header
    fingerprint, and they are all the checks there are, so
    :meth:`MaterialBlob.decode` cannot fail on a blob that passed them.

    Raises:
        MaterialFormatError: wrong magic, version, header or body shape
            (covers truncated and garbage files).
        MaterialIntegrityError: payload hash mismatch (bit rot, partial
            writes that kept the magic intact), or a header fingerprint
            that does not name the embedded parameters.
    """
    # Pools keep a reference to these bytes, so they must not change.
    data = blob if isinstance(blob, bytes) else bytes(blob)
    prefix = len(MATERIAL_MAGIC) + 32
    if len(data) < prefix + 4:
        raise MaterialFormatError("blob too short to be preprocessing material")
    if data[: len(MATERIAL_MAGIC)] != MATERIAL_MAGIC:
        raise MaterialFormatError("bad magic: not a preprocessing material blob")
    if hashlib.sha256(memoryview(data)[prefix:]).digest() != data[len(MATERIAL_MAGIC) : prefix]:
        raise MaterialIntegrityError("material payload fails its integrity hash")
    header_len = int.from_bytes(data[prefix : prefix + 4], "big")
    body_offset = prefix + 4 + header_len
    try:
        header = json.loads(data[prefix + 4 : body_offset])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MaterialFormatError(f"unreadable material header: {exc}") from None
    if not isinstance(header, dict) or header.get("version") != MATERIAL_VERSION:
        version = header.get("version") if isinstance(header, dict) else None
        raise MaterialFormatError(f"unsupported material version {version!r}")
    try:
        p = int(header["p"], 16)
        q = int(header["q"], 16)
        g = int(header["g"], 16)
        width = int(header["width"])
        fb_window = int(header["fb_window"])
        fb_rows = int(header["fb_rows"])
        fb_cols = int(header["fb_cols"])
        nonce_count = int(header["nonces"])
        feldman_count = int(header["feldman"])
        threshold = int(header["feldman_threshold"])
        seed = int(header["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MaterialFormatError(f"malformed material header: {exc}") from None
    if width < 1 or min(fb_rows, fb_cols, nonce_count, feldman_count, threshold) < 0:
        raise MaterialFormatError("malformed material header: sizes out of range")
    expected = width * (
        fb_rows * fb_cols + 2 * nonce_count + feldman_count * 2 * (threshold + 1)
    )
    if len(data) - body_offset != expected:
        raise MaterialFormatError(
            f"material body is {len(data) - body_offset} bytes, header promises {expected}"
        )
    fingerprint = _fingerprint(p, q, g)
    if header.get("fingerprint") != fingerprint:
        raise MaterialIntegrityError(
            "header fingerprint does not match the embedded parameters"
        )
    return MaterialBlob(
        data=data,
        fingerprint=fingerprint,
        p=p,
        q=q,
        g=g,
        width=width,
        fb_window=fb_window,
        fb_rows=fb_rows,
        fb_cols=fb_cols,
        nonce_count=nonce_count,
        feldman_count=feldman_count,
        feldman_threshold=threshold,
        built_with_seed=seed,
        body_offset=body_offset,
    )


def deserialize_material(blob: bytes) -> CryptoMaterial:
    """Check a serialized material blob and decode it (pools on spend).

    Raises:
        MaterialFormatError: see :func:`read_material`.
        MaterialIntegrityError: see :func:`read_material`.
    """
    return read_material(blob).decode()
