"""End-to-end execution of a caching scheme on synthetic file data.

Packets are vectors of 16-bit words (numpy uint16), so XOR multicasting and
the erasure-coded variant share one payload representation.  Delivery sends
one XOR message per delivery-array id in canonical id order; the coded mode
replaces the S multicasts with S - r Cauchy-coded combinations, where r is
the scheme's per-user count of messages reconstructible from cache alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional

import numpy as np

from . import gf16
from .errors import (
    ConfigurationError,
    DecodeFailureError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedParametersError,
)
from .pda import STAR


@dataclass
class Library:
    """num_files files, each num_packets packets of packet_bytes pseudo-random
    bytes, reproducible from the seed."""

    num_files: int
    num_packets: int
    packet_bytes: int
    seed: int
    data: np.ndarray  # (files, packets, words) uint16

    @property
    def words_per_packet(self) -> int:
        return self.packet_bytes // 2

    def file_bytes(self, file_id: int) -> bytes:
        """Full content of file ``file_id`` (1-based)."""
        return self.data[file_id - 1].tobytes()


def make_library(num_files: int, num_packets: int, packet_bytes: int = 64,
                 seed: int = 0) -> Library:
    if num_files < 1 or num_packets < 1:
        raise InvalidParametersError("need at least one file and one packet")
    if packet_bytes < 2 or packet_bytes % 2:
        raise ConfigurationError("packet length must be a positive even byte count")
    rng = np.random.default_rng(seed)
    data = rng.integers(
        0, 1 << 16, size=(num_files, num_packets, packet_bytes // 2), dtype=np.uint16
    )
    return Library(num_files, num_packets, packet_bytes, seed, data)


class SharedLinkScheme:
    """A bare PDA run as a single-link system: one cache-node per user,
    holding exactly the starred rows of that user's column."""

    def __init__(self, pda):
        self.user_delivery = pda
        grid = np.zeros((pda.num_rows, pda.num_cols), dtype=bool)
        for j in range(pda.num_rows):
            for k in range(pda.num_cols):
                grid[j, k] = pda.cell(j, k) is STAR
        self.node_placement = grid
        self.user_retrieve = grid
        self.num_users = pda.num_cols
        self.num_nodes = pda.num_cols
        self.subpacketization = pda.num_rows
        self.counted_messages = pda.num_ids
        self.guaranteed_known = 0
        self.user_blocks = tuple((k + 1,) for k in range(pda.num_cols))

    def user_node_indices(self, user: int) -> tuple:
        return (user,)


@dataclass
class NodeCaches:
    """Rows held by each cache-node, backed by the library payloads."""

    library: Library
    node_rows: tuple  # per node, frozenset of 0-based packet rows

    def cached_bytes(self, node: int) -> int:
        return len(self.node_rows[node]) * self.library.num_files * self.library.packet_bytes


def place(library: Library, scheme) -> NodeCaches:
    """Fill each node with the packet rows starred in its placement column."""
    if library.num_packets != scheme.subpacketization:
        raise InvalidInputError(
            f"library has {library.num_packets} packets per file, "
            f"scheme needs {scheme.subpacketization}"
        )
    grid = scheme.node_placement
    rows = tuple(
        frozenset(int(j) for j in np.nonzero(grid[:, g])[0])
        for g in range(scheme.num_nodes)
    )
    return NodeCaches(library, rows)


def validate_demands(scheme, library: Library, demands, distinct: bool = False) -> tuple:
    demands = tuple(int(d) for d in demands)
    if len(demands) != scheme.num_users:
        raise InvalidParametersError(
            f"demand vector length {len(demands)} != user count {scheme.num_users}"
        )
    if any(not 1 <= d <= library.num_files for d in demands):
        raise InvalidParametersError("demanded file index outside the library")
    if distinct and len(set(demands)) != len(demands):
        raise InvalidParametersError("worst-case mode needs all-distinct demands")
    return demands


def distinct_demands(scheme, library: Library) -> tuple:
    if library.num_files < scheme.num_users:
        raise InvalidParametersError(
            f"distinct demands need at least {scheme.num_users} files, "
            f"library has {library.num_files}"
        )
    return tuple(range(1, scheme.num_users + 1))


def random_demands(scheme, library: Library, rng: Random) -> tuple:
    return tuple(rng.randint(1, library.num_files) for _ in range(scheme.num_users))


@dataclass
class TransmissionPlan:
    mode: str                 # "plain" | "mds"
    demands: tuple
    num_messages: int         # S
    sources: tuple            # per message, tuple of (row, col) cells, 0-based
    symbols: np.ndarray       # (count, words) uint16
    coeff: Optional[np.ndarray]
    reduced_by: int

    @property
    def symbols_sent(self) -> int:
        return len(self.symbols)


def _message_sources(scheme) -> tuple:
    pda = scheme.user_delivery
    return tuple(pda.id_positions[i] for i in pda.ids)


def _message_payloads(scheme, library: Library, demands, sources) -> np.ndarray:
    out = np.zeros((len(sources), library.words_per_packet), dtype=np.uint16)
    for s, cells in enumerate(sources):
        acc = out[s]
        for j, k in cells:
            acc ^= library.data[demands[k] - 1, j]
    return out


def deliver_plain(scheme, library: Library, demands) -> TransmissionPlan:
    """One XOR multicast per delivery-array id, in canonical id order."""
    demands = validate_demands(scheme, library, demands)
    sources = _message_sources(scheme)
    payloads = _message_payloads(scheme, library, demands, sources)
    return TransmissionPlan("plain", demands, len(sources), sources, payloads, None, 0)


def _array_known_counts(scheme) -> list:
    """Per-user count of messages rebuildable from cache, straight from the
    star pattern (demand-independent)."""
    pda = scheme.user_delivery
    sources = _message_sources(scheme)
    retrieve = scheme.user_retrieve
    return [
        sum(1 for cells in sources if all(retrieve[j, k] for j, _ in cells))
        for k in range(scheme.num_users)
    ]


def deliver_mds(scheme, library: Library, demands) -> TransmissionPlan:
    """Cauchy-coded batch of S - r symbols, r = scheme.guaranteed_known.

    Provided every user misses at most S - r of the S multicasts, any square
    Cauchy submatrix being invertible lets the received combinations pin
    down the missing ones.  Index-2+ designs with two or more cached nodes
    per subfile can violate that premise (split classes of one message
    subset merge into fewer ids than the advertised guarantee); emitting an
    undecodable batch is refused rather than papered over.
    """
    demands = validate_demands(scheme, library, demands)
    sources = _message_sources(scheme)
    reduced = scheme.guaranteed_known
    if reduced:
        short = min(_array_known_counts(scheme))
        if short < reduced:
            raise UnsupportedParametersError(
                f"advertised reduction {reduced} exceeds what some user can "
                f"rebuild from cache ({short}); the coded batch would be "
                "undecodable, use plain delivery"
            )
    num_out = len(sources) - reduced
    if len(sources) + num_out > gf16.FIELD_SIZE - 1:
        raise ConfigurationError(
            f"coded delivery needs a field with at least "
            f"{len(sources) + num_out + 1} elements; GF(2^16) is too small"
        )
    payloads = _message_payloads(scheme, library, demands, sources)
    if num_out == len(sources):
        # No reduction available; identity coding keeps symbols inspectable.
        coeff = np.eye(len(sources), dtype=np.uint16)
        symbols = payloads.copy()
    else:
        coeff = gf16.cauchy_matrix(num_out, len(sources))
        symbols = gf16.matvec(coeff, payloads)
    return TransmissionPlan("mds", demands, len(sources), sources, symbols, coeff, reduced)


def _user_index(scheme, user) -> int:
    if isinstance(user, int):
        return user
    block = tuple(sorted(tuple(p) if isinstance(p, (tuple, list)) else p for p in user))
    try:
        return scheme.user_blocks.index(block)
    except ValueError:
        raise InvalidInputError(f"no user with block {block}") from None


def retrievable_rows(scheme, caches: NodeCaches, user) -> frozenset:
    k = _user_index(scheme, user)
    rows = set()
    for node in scheme.user_node_indices(k):
        rows |= caches.node_rows[node]
    return frozenset(rows)


def reconstructible_messages(scheme, caches: NodeCaches, user) -> frozenset:
    """Message indices (0-based) the user can rebuild purely from its cache:
    every constituent packet row is retrievable.  Recomputed from the actual
    node contents, independent of the delivery-array bookkeeping."""
    rows = retrievable_rows(scheme, caches, user)
    sources = _message_sources(scheme)
    return frozenset(
        s for s, cells in enumerate(sources) if all(j in rows for j, _ in cells)
    )


def _all_messages(scheme, plan: TransmissionPlan, caches: NodeCaches, user: int,
                  rows: frozenset, known: Optional[frozenset]) -> np.ndarray:
    """Recover all S multicast payloads at one user."""
    library = caches.library
    demands = plan.demands

    def read_packet(file_id, j):
        if j not in rows:
            raise DecodeFailureError(user, None, f"packet row {j} not cached")
        return library.data[file_id - 1, j]

    if plan.mode == "plain" or plan.reduced_by == 0:
        # With no reduction the coded batch is the identity code: the
        # symbols are the multicast payloads verbatim.
        return plan.symbols

    if known is None:
        known = reconstructible_messages(scheme, caches, user)
    known = sorted(known)
    unknown = sorted(set(range(plan.num_messages)).difference(known))
    messages = np.zeros((plan.num_messages, library.words_per_packet), dtype=np.uint16)
    for s in known:
        acc = messages[s]
        for j, k in plan.sources[s]:
            acc ^= read_packet(demands[k], j)
    if unknown:
        if len(unknown) > len(plan.symbols):
            raise DecodeFailureError(
                user, None,
                f"{len(unknown)} unknown messages but only {len(plan.symbols)} symbols",
            )
        use = range(len(unknown))
        rhs = plan.symbols[use] ^ gf16.matvec(plan.coeff[np.ix_(use, known)], messages[known])
        messages[unknown] = gf16.solve(plan.coeff[np.ix_(use, unknown)], rhs)
    return messages


def decode(scheme, user, plan: TransmissionPlan, caches: NodeCaches,
           known: Optional[frozenset] = None) -> bytes:
    """Reconstruct the user's demanded file, byte-exact, from its reachable
    caches plus the transmission.  ``known`` is the user's
    :func:`reconstructible_messages`, when the caller has it already."""
    k = _user_index(scheme, user)
    library = caches.library
    demands = plan.demands
    rows = retrievable_rows(scheme, caches, k)
    messages = _all_messages(scheme, plan, caches, k, rows, known)

    pda = scheme.user_delivery
    canon = pda.canonical_index
    out = np.zeros((scheme.subpacketization, library.words_per_packet), dtype=np.uint16)
    for j in range(scheme.subpacketization):
        if j in rows:
            out[j] = library.data[demands[k] - 1, j]
            continue
        ident = pda.cell(j, k)
        if ident is STAR:
            raise DecodeFailureError(k, None, f"row {j} neither cached nor delivered")
        s = canon[ident] - 1
        payload = messages[s].copy()
        for j2, k2 in plan.sources[s]:
            if (j2, k2) == (j, k):
                continue
            if j2 not in rows:
                raise DecodeFailureError(k, canon[ident], f"side packet row {j2} not cached")
            payload ^= library.data[demands[k2] - 1, j2]
        out[j] = payload
    return out.tobytes()


@dataclass
class SimulationReport:
    mode: str
    demands: tuple
    num_users: int
    subpacketization: int
    symbols_sent: int
    measured_load: Fraction
    theoretical_load: Fraction
    decode_ok: tuple
    all_ok: bool
    guaranteed_known: int
    max_unknown: int


def run_simulation(scheme, library: Library, demands, mode: str = "plain") -> SimulationReport:
    """Place, deliver, and decode at every user; measure the realized load."""
    return _simulate(scheme, library, demands, mode)[0]


def _simulate(scheme, library: Library, demands, mode: str) -> tuple:
    """:func:`run_simulation`, also returning the plan that was decoded."""
    caches = place(library, scheme)
    if mode == "plain":
        plan = deliver_plain(scheme, library, demands)
    elif mode == "mds":
        plan = deliver_mds(scheme, library, demands)
    else:
        raise InvalidParametersError(f"unknown mode {mode!r}")
    verdicts = []
    max_unknown = 0
    for k in range(scheme.num_users):
        known = reconstructible_messages(scheme, caches, k)
        max_unknown = max(max_unknown, plan.num_messages - len(known))
        got = decode(scheme, k, plan, caches, known=known)
        verdicts.append(got == library.file_bytes(plan.demands[k]))
    f = scheme.subpacketization
    s = scheme.counted_messages
    theoretical = Fraction(s - (scheme.guaranteed_known if mode == "mds" else 0), f)
    return SimulationReport(
        mode=mode,
        demands=plan.demands,
        num_users=scheme.num_users,
        subpacketization=f,
        symbols_sent=plan.symbols_sent,
        measured_load=Fraction(plan.symbols_sent, f),
        theoretical_load=theoretical,
        decode_ok=tuple(verdicts),
        all_ok=all(verdicts),
        guaranteed_known=scheme.guaranteed_known,
        max_unknown=max_unknown,
    ), plan


def measure_worst_case(scheme, library: Library, mode: str = "plain") -> SimulationReport:
    """Distinct-demand run, the worst case for one-shot delivery."""
    return run_simulation(scheme, library, distinct_demands(scheme, library), mode)


def run_demand_trials(scheme, library: Library, num_trials: int, seed: int = 0) -> int:
    """Plain-delivery decode check over seeded random demand vectors.

    Per-user decode structure is demand-independent, so it is prepared once:
    gathered (file, row) index arrays with segment offsets, XOR-reduced per
    trial via a cumulative-XOR prefix difference.  Returns the number of
    trials run; raises DecodeFailureError on the first mismatch.
    """
    caches = place(library, scheme)
    sources = _message_sources(scheme)
    data = library.data
    words = library.words_per_packet
    pda = scheme.user_delivery
    canon = pda.canonical_index

    # Message payload gather arrays.
    src_rows, src_cols, src_off = [], [], [0]
    for cells in sources:
        for j, k in cells:
            src_rows.append(j)
            src_cols.append(k)
        src_off.append(len(src_rows))
    src_rows = np.array(src_rows, dtype=np.intp)
    src_cols = np.array(src_cols, dtype=np.intp)
    src_starts = np.array(src_off[:-1], dtype=np.intp)
    src_ends = np.array(src_off[1:], dtype=np.intp)

    # Per-user peel structure over the rows it cannot retrieve.
    per_user = []
    for k in range(scheme.num_users):
        rows = retrievable_rows(scheme, caches, k)
        needed, msg_idx = [], []
        o_rows, o_cols, off = [], [], [0]
        for j in range(scheme.subpacketization):
            ident = pda.cell(j, k)
            if j in rows:
                continue
            if ident is STAR:
                raise DecodeFailureError(k, None, f"row {j} neither cached nor delivered")
            needed.append(j)
            msg_idx.append(canon[ident] - 1)
            for j2, k2 in sources[canon[ident] - 1]:
                if (j2, k2) == (j, k):
                    continue
                if j2 not in rows:
                    raise DecodeFailureError(k, canon[ident], f"side packet row {j2} not cached")
                o_rows.append(j2)
                o_cols.append(k2)
            off.append(len(o_rows))
        per_user.append((
            np.array(needed, dtype=np.intp),
            np.array(msg_idx, dtype=np.intp),
            np.array(o_rows, dtype=np.intp),
            np.array(o_cols, dtype=np.intp),
            np.array(off[:-1], dtype=np.intp),
            np.array(off[1:], dtype=np.intp),
        ))

    def segment_xor(gathered, starts, ends):
        cum = np.zeros((len(gathered) + 1, words), dtype=np.uint16)
        np.bitwise_xor.accumulate(gathered, axis=0, out=cum[1:])
        return cum[ends] ^ cum[starts]

    rng = Random(seed)
    for _ in range(num_trials):
        demands = np.array(random_demands(scheme, library, rng), dtype=np.intp)
        payloads = segment_xor(data[demands[src_cols] - 1, src_rows], src_starts, src_ends)
        for k, (needed, msg_idx, o_rows, o_cols, starts, ends) in enumerate(per_user):
            if not len(needed):
                continue
            others = segment_xor(data[demands[o_cols] - 1, o_rows], starts, ends)
            decoded = payloads[msg_idx] ^ others
            truth = data[demands[k] - 1, needed]
            if not np.array_equal(decoded, truth):
                bad = int(np.nonzero(np.any(decoded != truth, axis=1))[0][0])
                raise DecodeFailureError(k, int(msg_idx[bad]) + 1, "payload mismatch")
    return num_trials


# ---------------------------------------------------------------------------
# Binary transcript

_MAGIC = b"MACC"
_FIELD_IDS = {"plain": 0, "mds": 16}


def write_transcript(plan: TransmissionPlan, path) -> None:
    """header(mode, S, F omitted, K, field) + coefficients (mds) +
    length-prefixed symbols."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<BBII", 0 if plan.mode == "plain" else 1,
            _FIELD_IDS[plan.mode], plan.num_messages, len(plan.demands),
        ))
        fh.write(struct.pack("<I", len(plan.demands)))
        fh.write(struct.pack(f"<{len(plan.demands)}I", *plan.demands))
        if plan.coeff is None:
            fh.write(struct.pack("<II", 0, 0))
        else:
            r, c = plan.coeff.shape
            fh.write(struct.pack("<II", r, c))
            fh.write(plan.coeff.astype("<u2").tobytes())
        fh.write(struct.pack("<I", plan.symbols_sent))
        for sym in plan.symbols:
            raw = sym.astype("<u2").tobytes()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def _read(fh, size: int) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise InvalidInputError(
            f"truncated transcript: {size} bytes expected at offset "
            f"{fh.tell() - len(raw)}, {len(raw)} left"
        )
    return raw


def read_transcript(path) -> TransmissionPlan:
    """Inverse of :func:`write_transcript`; sources are not stored and must
    be re-derived from the scheme when decoding."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InvalidInputError("not a transcript file")
        mode_flag, _field, num_messages, _k = struct.unpack("<BBII", _read(fh, 10))
        (dlen,) = struct.unpack("<I", _read(fh, 4))
        demands = struct.unpack(f"<{dlen}I", _read(fh, 4 * dlen))
        rows, cols = struct.unpack("<II", _read(fh, 8))
        coeff = None
        if rows:
            coeff = np.frombuffer(_read(fh, 2 * rows * cols), dtype="<u2").reshape(rows, cols).copy()
        (count,) = struct.unpack("<I", _read(fh, 4))
        symbols = []
        for _ in range(count):
            (ln,) = struct.unpack("<I", _read(fh, 4))
            symbols.append(np.frombuffer(_read(fh, ln), dtype="<u2").copy())
        symbols = np.array(symbols, dtype=np.uint16) if symbols else np.zeros((0, 0), np.uint16)
    mode = "plain" if mode_flag == 0 else "mds"
    reduced = num_messages - len(symbols) if mode == "mds" else 0
    return TransmissionPlan(mode, demands, num_messages, (), symbols, coeff, reduced)
