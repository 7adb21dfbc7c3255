"""End-to-end execution of a caching scheme on synthetic file data.

Packets are vectors of 16-bit words (numpy uint16), so XOR multicasting and
the erasure-coded variant share one payload representation.  Delivery sends
one XOR message per delivery-array id in canonical id order; the coded mode
replaces the S multicasts with S - r Cauchy-coded combinations, where r is
the scheme's per-user count of messages reconstructible from cache alone.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from . import gf16
from .designs import int_text, is_int
from .errors import (
    ConfigurationError,
    DecodeFailureError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedParametersError,
)
from .pda import MAX_COUNT_BYTES, Pda, occurrences


@dataclass
class Library:
    """Files of pseudo-random packets, held as one array: every size is read
    off its shape."""

    data: np.ndarray  # (files, packets, words) uint16

    @property
    def num_files(self) -> int:
        return self.data.shape[0]

    @property
    def packet_bytes(self) -> int:
        return 2 * self.data.shape[2]


def make_library(num_files: int, num_packets: int, packet_bytes: int = 64,
                 seed: int = 0) -> Library:
    if num_files < 1 or num_packets < 1:
        raise InvalidParametersError("need at least one file and one packet")
    if packet_bytes < 2 or packet_bytes % 2:
        raise ConfigurationError("packet length must be a positive even byte count")
    if seed < 0:
        raise InvalidParametersError(f"library seed must be non-negative, got {seed}")
    try:
        data = np.random.default_rng(seed).integers(
            0, 1 << 16, size=(num_files, num_packets, packet_bytes // 2), dtype=np.uint16
        )
    except (ValueError, MemoryError) as exc:  # a shape or a size numpy refuses
        raise ConfigurationError(
            f"cannot allocate {num_files} files of {num_packets} packets of "
            f"{packet_bytes} bytes: {exc}"
        ) from None
    return Library(data)


def reach(placement: np.ndarray, user_nodes: np.ndarray) -> np.ndarray:
    """F x users boolean grid: user k reaches row j when one of its nodes
    ``user_nodes[k]`` (0-based columns of ``placement``) caches j."""
    user_nodes = np.asarray(user_nodes)
    reached = placement[:, user_nodes[:, 0]]
    for nodes in user_nodes.T[1:]:  # one access position at a time
        reached |= placement[:, nodes]
    return reached


def _digit_bits(q: int) -> int:
    """Bits of each digit in 0..q-1 that ``coordinate_arrays`` packs into
    id words, 63 // bits digits to an int64 word."""
    return max(1, (q - 1).bit_length())


# Digits that a ``coordinate_arrays`` labeller unpacks per step, which bounds
# its scratch arrays to a few of this many int64 words.
_LABEL_DIGITS = 1 << 16
# Cells whose id words ``coordinate_arrays`` computes per step, which bounds
# its scratch arrays to a few of this many words.
_KEY_CELLS = 1 << 16


def coordinate_arrays(base, q: int, node_values, users, strength: int,
                      text, copies_by=None) -> tuple:
    """C, user nodes and Q of a scheme whose cache nodes are (coordinate,
    value) pairs over ``base``, R x m digits in 0..q-1, a row per subfile.

    Node (c, v), v in the sorted ``node_values``, is column
    c * len(node_values) + rank(v) of C and caches the base rows with digit
    v at c; the rows tile once per t-subset T of the L access positions,
    T-major.  ``users`` (K x L x 2) holds each user's (coordinate, value)
    pairs.  A cell (T, j) that user k misses has the id vector base row j
    with the user's T-selected pairs written over it.  Coordinate c is a
    b-bit field, b = max(1, ceil(log2 q)), of int64 word c // (63 // b), so
    a cell's words are ``(base[j] & ~mask[T, k]) | value[T, k]``.

    Q tells the cells apart by vector and, if ``copies_by`` is "base" (copies
    with the same base row) or "column" (in the same column), by a copy
    counter, counted column by column, top to bottom.  Q is labelled (see
    ``Pda.labelled``) by ``text(digits)``, the texts of the id vectors given
    as a row of m digits per id, read at its first cell, with ",copy" after
    each: always for copies by base row, and for copies by column only when
    some id has a second copy.
    """
    base = np.asarray(base, dtype=np.int64)
    users = np.asarray(users, dtype=np.int64)
    (rows, m), (k, l) = base.shape, users.shape[:2]
    tiles = np.array(list(itertools.combinations(range(l), strength)), dtype=np.intp).reshape(-1, strength)
    placement = np.tile((base[:, :, None] == np.asarray(node_values)).reshape(rows, -1), (len(tiles), 1))
    user_nodes = users[:, :, 0] * len(node_values) + np.searchsorted(node_values, users[:, :, 1])
    b = _digit_bits(q)
    shifts = b * np.arange(63 // b, dtype=np.int64)
    width = -(-m // len(shifts))
    slots = width * len(shifts)

    def pack(digits):  # ... x slots digits -> ... x width words
        return (digits.reshape(*digits.shape[:-1], width, len(shifts)) << shifts).sum(axis=-1)

    # The fields each (T, user) overwrites, and the values it writes there.
    picked = users[:, tiles].transpose(1, 0, 2, 3)
    fields = np.zeros((len(tiles), k, slots), dtype=np.int64)
    values = np.zeros_like(fields)
    at = np.arange(len(tiles))[:, None, None], np.arange(k)[:, None], picked[..., 0]
    fields[at] = (1 << b) - 1
    values[at] = picked[..., 1]
    keep, values = ~pack(fields), pack(values)
    base = pack(np.pad(base, ((0, 0), (0, slots - m))))

    # The words of the missed cells in row-major order, a step of rows at a
    # time: each word holds at most 63 // b digits, so its dtype is known.
    # Each word, a row of ``words``, is a key column that the numbering groups.
    missed = reach(placement, user_nodes)
    np.logical_not(missed, out=missed)
    words = np.empty((width, np.count_nonzero(missed)),
                     dtype=np.min_scalar_type((1 << b * min(m, len(shifts))) - 1))
    step, at = max(1, _KEY_CELLS // k), 0
    for t in range(len(tiles)):
        for j in range(0, rows, step):
            chunk = ((base[j:j + step, None] & keep[t]) | values[t])[
                missed[t * rows + j:t * rows + min(j + step, rows)]]
            words[:, at:at + len(chunk)] = chunk.T
            at += len(chunk)
    keys, copy = words, None
    if copies_by is not None:
        cells = np.flatnonzero(missed)
        r, c = np.divmod(cells, k)
        by = r % rows if copies_by == "base" else c
        # Copies are counted column by column, top to bottom: copies in one
        # column already run so in row-major order.
        at = slice(None) if copies_by == "column" else np.argsort(c, kind="stable")
        copy = np.empty(len(cells), dtype=np.int64)
        copy[at] = occurrences([*words[:, at], by[at]])
        keys = [*words, copy]

    delivery = Pda.from_keys(missed, keys)
    csr_rows, csr_cols, ptr = delivery.csr
    if copy is not None:  # each id's copy, at its first cell
        first = csr_rows[ptr[:-1]].astype(np.intp) * k + csr_cols[ptr[:-1]]
        copy = copy[np.searchsorted(cells, first)]
        top = int(copy.max(initial=1))
        copy = None if copies_by == "column" and top == 1 else copy.astype(np.min_scalar_type(top))

    def label(ids):
        # the m digits of each id's first cell, a step of ids at a time
        r, col = csr_rows[ptr[ids]].astype(np.intp), csr_cols[ptr[ids]]
        word, shift = np.divmod(np.arange(m), len(shifts))
        digits = np.empty((len(ids), m), dtype=np.min_scalar_type(q))
        step = max(1, _LABEL_DIGITS // m)
        for a in range(0, len(ids), step):
            j, t, c = r[a:a + step] % rows, r[a:a + step] // rows, col[a:a + step]
            words = (base[j] & keep[t, c]) | values[t, c]
            digits[a:a + step] = (words[:, word] >> b * shift) & ((1 << b) - 1)
        texts = text(digits)
        return texts if copy is None else [f"{x},{n}" for x, n in zip(texts, copy[ids].tolist())]

    return placement, user_nodes, delivery.labelled(label)


def require_room(f: int, k: int, digits: int, q: int) -> None:
    """Refuse, before any array is made, a scheme whose ``f`` x ``k`` cells
    would pass MAX_COUNT_BYTES.  Its ids are vectors of ``digits`` digits in
    0..q-1, packed as in ``coordinate_arrays``.  ``macc scheme --out`` peaks
    at about 15 bytes per cell, interpreter included, when an id fits one
    int64 word (159 MB for the 11.3 M cells of ``complete:19,3`` μ=5), so
    64 are budgeted, and at up to about 120 when it takes two or more (121
    MB for the 1.0 M cells of ``complete:127,2`` μ=1, 423 MB for the 4.0 M
    of ``complete:200,2`` μ=1), so 192 are."""
    if f * k * (64 if digits <= 63 // _digit_bits(q) else 192) > MAX_COUNT_BYTES:
        raise UnsupportedParametersError(
            f"F x K = {int_text(f)} x {k} cells need over {MAX_COUNT_BYTES} bytes")


def tiled_labels(bases, access_degree: int, strength: int) -> tuple:
    """(base, T) row labels in the order ``coordinate_arrays`` tiles the
    rows: T-major, then the ``bases`` in order."""
    tiles = itertools.combinations(range(1, access_degree + 1), strength)
    return tuple((base, tt) for tt in tiles for base in bases)


class Claims:
    """The paper's closed forms for a scheme, read off its parameters: a
    subclass gives the message bound S_bound, the reduction r (the messages
    every user is claimed to rebuild from cache) and the subpacketization F."""

    @property
    def load(self) -> Fraction:
        """The coded load, S_bound - r symbols of one packet each over F."""
        return Fraction(self.message_bound - self.guaranteed_known, self.subpacketization)


@dataclass(eq=False)
class ArrayScheme:
    """A multiaccess scheme over either topology, held as its arrays, with
    the closed forms of the parameters it was built from as its claims."""

    topology: dict  # {"design": d} or {"gdd": g, "oa": a}, keyed as the bundle writes them
    row_labels: tuple
    user_blocks: tuple
    node_placement: np.ndarray  # C, F x nodes
    user_nodes: np.ndarray  # K x L, the node columns each user accesses
    user_delivery: Pda  # Q
    claims: Claims | None = None

    @property
    def guaranteed_known(self) -> int:
        """The claims' r, or 0, the trivially sound claim, with no claims."""
        return 0 if self.claims is None else self.claims.guaranteed_known

    @property
    def user_retrieve(self) -> np.ndarray:
        """U, read-only: user k retrieves row j where Q stars it."""
        return self.user_delivery.stars

    @property
    def num_users(self) -> int:
        return self.user_delivery.num_cols

    @property
    def subpacketization(self) -> int:
        return self.user_delivery.num_rows

    @property
    def counted_messages(self) -> int:
        return self.user_delivery.num_ids


def _segments(ptr, sel) -> tuple:
    """Positions of the CSR segments ``sel`` (offsets ``ptr``), and the
    offsets of those segments laid end to end."""
    lens = ptr[sel + 1] - ptr[sel]
    out = np.zeros(len(sel) + 1, dtype=np.intp)
    np.cumsum(lens, out=out[1:])
    return np.arange(out[-1]) + np.repeat(ptr[sel] - out[:-1], lens), out


def _wide(packets: np.ndarray) -> np.ndarray:
    """The packets (uint16 words along the last, contiguous axis) viewed in
    the widest unsigned words that tile a packet: u8, else u4, else u2.
    XOR and equality are bytewise, so every bitwise step runs on this view."""
    return packets.view(f"u{math.gcd(8, packets.itemsize * packets.shape[-1])}")


def _xor_segments(packets: np.ndarray, ptr) -> np.ndarray:
    """XOR of each segment ``ptr[s]:ptr[s + 1]`` of the packet rows; an
    empty segment gives zeros."""
    out = np.zeros((len(ptr) - 1, packets.shape[1]), dtype=np.uint16)
    full = ptr[:-1] < ptr[1:]  # an empty segment takes no rows
    _wide(out)[full] = np.bitwise_xor.reduceat(_wide(packets), ptr[:-1][full], axis=0)
    return out


# Packet rows of the files that ``decode_all`` assembles at once, which
# bounds its scratch arrays to a few of this many packets.  2^14 rows beat
# 2^12; 2^16 rows are slower, as every fresh buffer page-faults.
_BLOCK_ROWS = 1 << 14


def _gather(q: Pda, data: np.ndarray, demands) -> np.ndarray:
    """The demanded packets at every message cell, in CSR order: one
    ``np.take`` on the flat (files·F, words) view of the library."""
    rows, cols, _ = q.csr
    f, words = data.shape[1:]
    flat = (np.asarray(demands, dtype=np.intp)[cols] - 1) * f + rows
    return np.take(data.reshape(-1, words), flat, axis=0)


def _payloads(q: Pda, data: np.ndarray, demands) -> np.ndarray:
    """The S multicast payloads, one XOR over each message's cells."""
    return _xor_segments(_gather(q, data, demands), q.csr[2])


def _require_cached(q: Pda, user: int, cached: np.ndarray, pos, ptr, msgs) -> None:
    """Raise unless every cell ``pos`` lies in a row that ``cached``, a
    per-row mask of the placed caches, marks; the error names the message
    (``msgs``, one per segment ``ptr``) of the first that does not."""
    rows = q.csr[0]
    missing = np.flatnonzero(~cached[rows[pos]])
    if len(missing):
        p = missing[0]
        s = int(msgs[np.searchsorted(ptr, p, side="right") - 1])
        raise DecodeFailureError(user, s + 1, f"packet row {rows[pos[p]]} not cached")


def _require_user(q: Pda, user: int, cached: np.ndarray) -> None:
    """Raise unless ``cached``, a per-row mask of the placed caches, marks
    every row the user reads: the other cells (the side packets) of each
    message at a row its column does not star, then its starred rows."""
    ptr, _, places, msgs = q.by_user
    cells = slice(ptr[user], ptr[user + 1])
    pos, seg = _segments(q.csr[2], msgs[cells])
    own = pos == np.repeat(places[cells], np.diff(seg))
    _require_cached(q, user, cached, pos[~own], seg - np.arange(len(seg)), msgs[cells])
    stars = np.flatnonzero(q.stars[:, user])
    if not cached[stars].all():
        j = int(stars[np.argmin(cached[stars])])
        raise DecodeFailureError(user, None, f"row {j} not cached")


@dataclass
class NodeCaches:
    """The placed caches, backed by the library payloads: node g holds
    packet row j of every file where ``grid[j, g]`` is set."""

    library: Library
    grid: np.ndarray  # F x nodes bool, read-only


def place(library: Library, scheme) -> NodeCaches:
    """Fill each node with the packet rows starred in its placement column."""
    if library.data.shape[1] != scheme.subpacketization:
        raise InvalidInputError(
            f"library has {library.data.shape[1]} packets per file, "
            f"scheme needs {scheme.subpacketization}"
        )
    grid = np.array(scheme.node_placement, dtype=bool)
    grid.flags.writeable = False
    return NodeCaches(library, grid)


def validate_demands(scheme, library: Library, demands) -> tuple:
    demands = tuple(demands)
    for i, d in enumerate(demands):
        if not is_int(d):
            raise InvalidParametersError(f"demands[{i}] is {d!r}, not a file index")
    demands = tuple(map(int, demands))
    if len(demands) != scheme.num_users:
        raise InvalidParametersError(
            f"demand vector length {len(demands)} != user count {scheme.num_users}"
        )
    for i, d in enumerate(demands):
        if not 1 <= d <= library.num_files:
            raise InvalidParametersError(f"demands[{i}] is {d}, outside 1..{library.num_files}")
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
    """What is sent.  The mds symbols are ``gf16.cauchy_matrix(count, S)``
    times the S multicast payloads, or the payloads themselves when count
    is S, so no coefficient is carried."""

    mode: str                 # "plain" | "mds"
    demands: tuple
    num_messages: int         # S
    symbols: np.ndarray       # (count, words) uint16

    @property
    def symbols_sent(self) -> int:
        return len(self.symbols)

    @property
    def reduced_by(self) -> int:
        return self.num_messages - self.symbols_sent


def deliver_plain(scheme, library: Library, demands) -> TransmissionPlan:
    """One XOR multicast per delivery-array id, in canonical id order."""
    demands = validate_demands(scheme, library, demands)
    payloads = _payloads(scheme.user_delivery, library.data, demands)
    return TransmissionPlan("plain", demands, scheme.counted_messages, payloads)


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
    s = scheme.counted_messages
    reduced = scheme.guaranteed_known
    if reduced:
        short = int(scheme.user_delivery.known.sum(axis=1).min())
        if short < reduced:
            raise UnsupportedParametersError(
                f"advertised reduction {reduced} exceeds what some user can "
                f"rebuild from cache ({short}); the coded batch would be "
                "undecodable, use plain delivery"
            )
    num_out = s - reduced
    # the uncoded batch (r = 0) sends the payloads themselves: no field; a
    # coded one is refused by cauchy_matrix before the gather
    matrix = gf16.cauchy_matrix(num_out, s) if num_out < s else None
    symbols = _payloads(scheme.user_delivery, library.data, demands)
    if matrix is not None:
        symbols = gf16.matvec(matrix, symbols)
    return TransmissionPlan("mds", demands, s, symbols)


def _user_index(scheme, user) -> int:
    """A 0-based user index, checked against the user count, or the index
    of the user whose block is ``user``."""
    if is_int(user):
        if 0 <= user < scheme.num_users:
            return int(user)
    elif isinstance(user, (tuple, list, set, frozenset)):
        try:  # points that do not compare, such as 1 and "a", make no block
            block = tuple(sorted(tuple(p) if isinstance(p, (tuple, list)) else p for p in user))
        except TypeError:
            pass
        else:
            if block not in scheme.user_blocks:
                raise InvalidInputError(f"no user with block {block}")
            return scheme.user_blocks.index(block)
    raise InvalidInputError(f"user {user!r} is neither an index in 0..{scheme.num_users - 1} "
                            "nor a block")


def _check_plan(scheme, library: Library, plan: TransmissionPlan) -> np.ndarray:
    """Raise unless the plan's demands, message count and symbols fit the
    scheme and the library; return the demands as an array."""
    demands = np.asarray(plan.demands, dtype=np.intp)
    if len(demands) != scheme.num_users:
        raise InvalidInputError(
            f"plan demands has {len(demands)} entries for {scheme.num_users} users"
        )
    if len(demands) and not 1 <= demands.min() <= demands.max() <= library.num_files:
        raise InvalidInputError(f"plan demands name a file outside 1..{library.num_files}")
    s = scheme.counted_messages
    if plan.num_messages != s:
        raise InvalidInputError(f"plan num_messages is {plan.num_messages}, the scheme has {s}")
    count, words = plan.symbols_sent, library.data.shape[2]
    if count > s or (plan.mode == "plain" and count < s):
        raise InvalidInputError(f"plan symbols has {count} for {s} {plan.mode} messages")
    if count and plan.symbols.shape[1] != words:
        raise InvalidInputError(
            f"plan symbols are {plan.symbols.shape[1]} words wide, packets {words}"
        )
    return demands


def _user_messages(q: Pda, plan: TransmissionPlan, coeff, payloads: np.ndarray,
                   user: int, cached: np.ndarray) -> np.ndarray:
    """The multicast payloads at the user's own cells, in ``by_user`` order,
    as the user recovers them from the plan's coded symbols (``coeff`` is
    the plan's Cauchy matrix) and the messages it rebuilds from cache, whose
    cells it reads from ``payloads`` once they are checked cached.  A
    message at one of its cells lies in a row it does not star, so it is
    never a known message: the solve returns it."""
    known = np.flatnonzero(q.known[user])
    unknown = np.flatnonzero(~q.known[user])
    pos, seg = _segments(q.csr[2], known)
    _require_cached(q, user, cached, pos, seg, known)
    if len(unknown) > len(plan.symbols):
        raise DecodeFailureError(
            user, None, f"{len(unknown)} unknown messages but only {len(plan.symbols)} symbols")
    ptr, _, _, ids = q.by_user
    own = np.searchsorted(unknown, ids[ptr[user]:ptr[user + 1]])  # places among the unknown
    # The first rows suffice: every square submatrix of a Cauchy matrix is
    # Cauchy, so invertible.
    coeff = coeff[:len(unknown)]
    rhs = plan.symbols[:len(unknown)] ^ gf16.matvec(coeff[:, known], payloads[known])
    return gf16.solve(coeff[:, unknown], rhs, own)


def decode_all(scheme, plan: TransmissionPlan, caches: NodeCaches, users=None):
    """Rebuild each user's demanded file, byte-exact, from the user's
    reachable caches plus the plan's symbols, peeling each needed row off
    its message with the side packets there, which XOR to the message's
    payload XOR the user's own packet; yield ``(k, file)`` for each
    user k (all users by default; an index or a block each), ``file`` the
    F x words array.  The plan must fit the scheme and the library.  This is
    the one place that assembles files: the starred rows are the cached
    packets of the demanded file, and the rest are the rows that
    :func:`_decode_blocks` decodes."""
    data = caches.library.data
    f, words = data.shape[1:]
    demands = np.asarray(plan.demands, dtype=np.intp)
    for block, seg, rows, decoded in _decode_blocks(scheme, plan, caches, users):
        files = np.take(data, demands[block] - 1, axis=0)
        need = np.repeat(np.arange(0, len(block) * f, f), np.diff(seg)) + rows
        _wide(files.reshape(-1, words))[need] = _wide(decoded)
        yield from zip(block, files)


def _decode_blocks(scheme, plan: TransmissionPlan, caches: NodeCaches, users=None):
    """The rows that :func:`decode_all` decodes, a block of users at a time:
    yield ``(block, seg, rows, decoded)``, the block's non-star cells in
    ``by_user`` order, user i's at ``seg[i]:seg[i + 1]``, with the row of
    each and the packet decoded there.  The scheme's delivery array says
    which rows to read from cache; every row read is checked against the
    placed caches, and a failing user ends the run after the block of the
    users before it.  The demanded packets are gathered once, at every cell
    of every message, and XORed into the message payloads that every user
    peels with.  The gather is the decoder's own, not the delivery's, so a
    wrong symbol or a wrong gather shows as a wrong row."""
    data = caches.library.data
    demands = _check_plan(scheme, caches.library, plan)
    # With no reduction the coded batch is the identity code: the symbols
    # are the multicast payloads verbatim.
    coeff = gf16.cauchy_matrix(plan.symbols_sent, plan.num_messages) if plan.reduced_by else None
    q = scheme.user_delivery
    users = (list(range(scheme.num_users)) if users is None
             else [_user_index(scheme, k) for k in users])
    sel = np.asarray(users, dtype=np.intp)
    ptr, rows, places, msgs = q.by_user
    packets = _gather(q, data, demands)
    payloads = _xor_segments(packets, q.csr[2])
    # What the listed users reach, taken once per call.  On a grid that keeps
    # C3 every row a user reads is a starred row, so a user whose starred rows
    # are all cached needs no per-user check; every user of a grid that breaks
    # C3 takes it.
    cached = reach(caches.grid, scheme.user_nodes[sel])
    checked = (not q.c3_flags.any()) & ~(q.stars[:, sel] & ~cached).any(axis=0)
    step = max(1, _BLOCK_ROWS // data.shape[1])  # users whose files are assembled at once
    for a in range(0, len(users), step):
        block = users[a:a + step]
        recovered = []  # the coded plan's payloads at each user's cells
        failure = None
        # per-user work: the coded plan's solves, and the users not cleared
        for i in range(len(block)) if coeff is not None else np.flatnonzero(~checked[a:a + step]):
            try:
                if coeff is not None:
                    recovered.append(_user_messages(q, plan, coeff, payloads, block[i],
                                                    cached[:, a + i]))
                if not checked[a + i]:
                    _require_user(q, block[i], cached[:, a + i])
            except DecodeFailureError as exc:  # raised after the users before it
                failure, block = exc, block[:i]
                break
        if block:
            # Each row a user does not star is its message (plain: the
            # symbol; mds: the user's recovered payload) XOR the message's
            # payload XOR the user's own packet there.
            cells, seg = _segments(ptr, sel[a:a + len(block)])
            decoded = (np.take(plan.symbols, msgs[cells], axis=0) if coeff is None
                       else np.concatenate(recovered[:len(block)]))
            wide = _wide(decoded)
            wide ^= _wide(np.take(payloads, msgs[cells], axis=0))
            wide ^= _wide(np.take(packets, places[cells], axis=0))
            yield block, seg, rows[cells], decoded
        if failure is not None:
            raise failure


def _checked_blocks(scheme, plan: TransmissionPlan, caches: NodeCaches):
    """:func:`_decode_blocks` at every user, each block's decoded rows
    compared with one gather of the library at the same (demand, row) cells:
    yield ``(block, seg, rows, same)``, ``same`` cells x wide words.  That a
    file's starred rows are cached is the decoder's own check, and their
    packets are the library's, so only the decoded rows are compared."""
    data = caches.library.data
    f, words = data.shape[1:]
    demands = np.asarray(plan.demands, dtype=np.intp)
    for block, seg, rows, decoded in _decode_blocks(scheme, plan, caches):
        at = np.repeat((demands[block] - 1) * f, np.diff(seg)) + rows
        # the library rows are a temporary, so a block holds no copy of them
        yield block, seg, rows, _wide(decoded) == _wide(
            np.take(data.reshape(-1, words), at, axis=0))


def decode(scheme, user, plan: TransmissionPlan, caches: NodeCaches) -> bytes:
    """Reconstruct the user's demanded file, byte-exact: the one-user case
    of :func:`decode_all`."""
    _, out = next(decode_all(scheme, plan, caches, [user]))
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
    for block, seg, _, same in _checked_blocks(scheme, plan, caches):
        # A user with no decoded row rebuilds its file from cache alone; the
        # words reduce flat, since a reduction per cell is slow on so short an axis.
        ok, full = np.ones(len(block), dtype=bool), seg[:-1] < seg[1:]
        ok[full] = np.logical_and.reduceat(same.ravel(), seg[:-1][full] * same.shape[1])
        verdicts += ok.tolist()
    max_unknown = plan.num_messages - int(scheme.user_delivery.known.sum(axis=1).min())
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
    """Plain-delivery decode check over seeded random demand vectors: each
    trial gathers the multicast payloads once, and the decoder decodes it at
    every user, each block's decoded rows checked with one comparison.
    Returns the number of trials run; the first mismatch (first user, then
    first row) raises DecodeFailureError naming the user, message and row.
    """
    if not is_int(num_trials) or num_trials < 0:
        raise InvalidParametersError(
            f"trial count must be a non-negative integer, got {num_trials!r}"
        )
    caches = place(library, scheme)
    q = scheme.user_delivery
    rng = Random(seed)
    for _ in range(num_trials):
        demands = random_demands(scheme, library, rng)
        plan = deliver_plain(scheme, library, demands)
        for block, seg, rows, same in _checked_blocks(scheme, plan, caches):
            if not same.all():  # cells run user by user, each user's in row order
                p = int(np.argmin(same.all(axis=1)))
                k, j = block[np.searchsorted(seg, p, side="right") - 1], int(rows[p])
                raise DecodeFailureError(k, int(q.grid[j, k]) + 1,
                                         f"row {j} payload mismatch")
    return num_trials


# ---------------------------------------------------------------------------
# Binary transcript

_MAGIC = b"MACC"
_VERSION = 2
_MODES = ("plain", "mds")
# version, mode, S, K, symbol count, words per symbol
_HEADER = struct.Struct("<BBIIII")


def write_transcript(plan: TransmissionPlan, path) -> None:
    """``MACC``, the header, K ``<u4`` demands, then the count x words
    ``<u2`` symbol block."""
    symbols = np.asarray(plan.symbols, dtype="<u2")
    k = len(plan.demands)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, _MODES.index(plan.mode), plan.num_messages, k,
                              *symbols.shape))
        fh.write(struct.pack(f"<{k}I", *plan.demands))
        fh.write(symbols.tobytes())


def _read(fh, size: int) -> bytes:
    # Checked before reading, so a corrupt length allocates nothing.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise InvalidInputError(
            f"truncated transcript: {size} bytes expected at offset "
            f"{fh.tell()}, {left} left"
        )
    return fh.read(size)


def read_transcript(path) -> TransmissionPlan:
    """Inverse of :func:`write_transcript`.  Message cells are not stored:
    :func:`decode` reads them from the scheme's delivery array."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InvalidInputError("not a transcript file")
        version, mode, num_messages, k, count, words = _HEADER.unpack(_read(fh, _HEADER.size))
        if version != _VERSION:
            raise InvalidInputError(f"transcript version {version}, not {_VERSION}")
        if mode >= len(_MODES):
            raise InvalidInputError(f"transcript mode byte {mode}, not 0 (plain) or 1 (mds)")
        demands = struct.unpack(f"<{k}I", _read(fh, 4 * k))
        raw = _read(fh, 2 * count * words)
        if fh.read(1):
            raise InvalidInputError("transcript has bytes after its symbols")
    symbols = np.frombuffer(raw, dtype="<u2").astype(np.uint16).reshape(count, words)
    return TransmissionPlan(_MODES[mode], demands, num_messages, symbols)
