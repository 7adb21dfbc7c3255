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
from functools import cached_property
from random import Random

import numpy as np

from . import gf16
from .errors import (
    ConfigurationError,
    DecodeFailureError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedParametersError,
)
from .pda import Pda, crossings, id_cells, occurrences, pack_rows, row_keys


@dataclass
class Library:
    """num_files files, each num_packets packets of packet_bytes pseudo-random
    bytes, reproducible from the seed."""

    num_files: int
    num_packets: int
    packet_bytes: int
    seed: int
    data: np.ndarray  # (files, packets, words) uint16

    def file_bytes(self, file_id: int) -> bytes:
        """Full content of file ``file_id`` (1-based)."""
        return self.data[file_id - 1].tobytes()


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
    return Library(num_files, num_packets, packet_bytes, seed, data)


def reach(placement: np.ndarray, user_nodes: np.ndarray) -> np.ndarray:
    """F x users boolean grid: user k reaches row j when one of its nodes
    ``user_nodes[k]`` (0-based columns of ``placement``) caches j."""
    return placement[:, user_nodes].any(axis=2)


def coordinate_arrays(base, q: int, node_values, users, strength: int,
                      ids=None, copies_by=None) -> tuple:
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

    Q, built only when ``ids`` is given, tells the cells apart by vector and,
    if ``copies_by`` is "base" (copies with the same base row) or "column"
    (copies in the same column), by a copy counter, counted column by column
    and top to bottom.  ``ids(digits, copy)`` makes the id objects from the
    vectors and copies (None without a copy rule) of the ids' first cells.
    """
    base = np.asarray(base, dtype=np.int64)
    users = np.asarray(users, dtype=np.int64)
    (rows, m), (k, l) = base.shape, users.shape[:2]
    tiles = np.array(list(itertools.combinations(range(l), strength)), dtype=np.intp).reshape(-1, strength)
    placement = np.tile((base[:, :, None] == np.asarray(node_values)).reshape(rows, -1), (len(tiles), 1))
    user_nodes = users[:, :, 0] * len(node_values) + np.searchsorted(node_values, users[:, :, 1])
    if ids is None:
        return placement, user_nodes, None
    b = max(1, (q - 1).bit_length())
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

    stars = reach(placement, user_nodes)
    missed = ~stars
    keys = row_keys(((base[None, :, None] & keep[:, None]) | values[:, None])
                    .reshape(-1, width)).reshape(stars.shape)
    keys[stars] = -1
    copy = None
    if copies_by is not None:
        by = np.arange(len(keys))[:, None] % rows if copies_by == "base" else np.arange(k)
        # The transposed grids list the missed cells column by column.
        by_column = missed.T
        copy = np.zeros((k, len(keys)), dtype=np.int64)
        copy[by_column] = occurrences(row_keys(np.column_stack(
            [keys.T[by_column], np.broadcast_to(by, keys.shape).T[by_column]])))
        copy = copy.T
        keys[missed] = row_keys(np.column_stack([keys[missed], copy[missed]]))

    def label(first):
        r, col = np.divmod(np.flatnonzero(missed)[first], k)
        words = (base[r % rows] & keep[r // rows, col]) | values[r // rows, col]
        digits = (words[:, :, None] >> shifts) & ((1 << b) - 1)
        return ids(digits.reshape(-1, slots)[:, :m], None if copy is None else copy[r, col])

    return placement, user_nodes, Pda.from_keys(keys, label)


def tiled_labels(bases, access_degree: int, strength: int) -> tuple:
    """(base, T) row labels in the order ``coordinate_arrays`` tiles the
    rows: T-major, then the ``bases`` in order."""
    tiles = itertools.combinations(range(1, access_degree + 1), strength)
    return tuple((base, tt) for tt in tiles for base in bases)


@dataclass(eq=False)
class ArrayScheme:
    """A multiaccess scheme over either topology, held as its arrays, with
    the closed forms its builder computed from the parameters."""

    params: object
    topology: dict  # {"design": d} or {"gdd": g, "oa": a}, keyed as the bundle writes them
    row_labels: tuple
    user_blocks: tuple
    node_placement: np.ndarray  # C, F x nodes
    user_nodes: np.ndarray  # K x L, the node columns each user accesses
    user_delivery: Pda  # Q
    message_bound: int
    guaranteed_known: int  # the messages every user is claimed to rebuild from cache

    @property
    def user_retrieve(self) -> np.ndarray:
        """U, read-only: user k retrieves row j where Q stars it."""
        return self._stars

    @cached_property
    def _stars(self) -> np.ndarray:
        stars = self.user_delivery.grid < 0
        stars.flags.writeable = False
        return stars

    @property
    def num_users(self) -> int:
        return self.user_delivery.num_cols

    @property
    def subpacketization(self) -> int:
        return self.user_delivery.num_rows

    @property
    def counted_messages(self) -> int:
        return self.user_delivery.num_ids

    @cached_property
    def decode_plan(self) -> "DecodePlan":
        return DecodePlan(self.user_delivery.grid)


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


# Cells of whole messages that ``DecodePlan.others`` scans at once, which
# bounds its scratch arrays to a few of this many packets.
_SCAN_CELLS = 1 << 12
# Packet rows of the files that ``decode_all`` assembles at once, which
# bounds its scratch arrays to a few of this many packets.  2^14 rows beat
# 2^12; 2^16 rows are slower, as every fresh buffer page-faults.
_BLOCK_ROWS = 1 << 14
# 64-bit words of packed rows that ``DecodePlan._cover`` ORs at once: as many
# bytes as _SCAN_CELLS packets of 64 bytes.
_COVER_WORDS = 8 * _SCAN_CELLS


class DecodePlan:
    """Demand-independent delivery and decode structure of one scheme,
    compiled from its delivery grid alone: a star is a row the user
    retrieves from its nodes.

    ``rows``/``cols``/``ptr`` list the cells of each message (canonical id
    order; see :func:`macc.pda.id_cells`).
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        self.rows, self.cols, self.ptr = id_cells(grid)

    @cached_property
    def cell_at(self) -> np.ndarray:
        """F x K map from each non-star cell to its place in ``rows``/``cols``;
        -1 at stars."""
        cell_at = np.full(self.grid.shape, -1, dtype=np.int32)
        cell_at[self.rows, self.cols] = np.arange(len(self.rows))
        cell_at.flags.writeable = False
        return cell_at

    @property
    def known(self) -> np.ndarray:
        """users x S bitmap: user k rebuilds message s from cache alone when
        the grid stars k in every row of the message's cells."""
        return self._cover[0]

    @property
    def side_starred(self) -> np.ndarray:
        """Per-user flag: every other cell of every message the user needs
        lies in a row that the user's column stars."""
        return self._cover[1]

    @cached_property
    def _cover(self) -> tuple:
        grid, rows, cols, ptr = self.grid, self.rows, self.cols, self.ptr
        # A user knows a message when its bit is clear in the OR of the
        # message's rows, packed 64 users to a word; ORed over a block of
        # words at a time.
        held = pack_rows(grid >= 0)
        known = np.empty((grid.shape[1], len(ptr) - 1), dtype=bool)
        step = max(_COVER_WORDS // max(len(rows), 1), 1)
        for w in range(0, held.shape[1], step):
            some = np.bitwise_or.reduceat(np.ascontiguousarray(held[:, w:w + step])[rows],
                                          ptr[:-1], axis=0)
            users = known[64 * w:64 * (w + step)]
            users[:] = np.unpackbits(~some.view(np.uint8), axis=1, count=len(users)).T
        # A user is side-starred when, at each of its cells (r, k), the only
        # non-star cell of column k within the rows of the cell's message is
        # its own, and no other cell of that message lies in row r.
        crossing, _ = crossings(grid.T, cols, rows, ptr)
        shared = rows[1:] == rows[:-1]
        shared[ptr[1:-1] - 1] = False  # pairs across two messages
        off = crossing != 1
        off[1:] |= shared
        off[:-1] |= shared
        side_starred = np.ones(grid.shape[1], dtype=bool)
        side_starred[cols[off]] = False
        return known, side_starred

    def gather(self, data: np.ndarray, demands, pos) -> np.ndarray:
        """The demanded packets at message cells ``pos``: one ``np.take`` on
        the flat (files·F, words) view of the library."""
        f, words = data.shape[1:]
        flat = (np.asarray(demands, dtype=np.intp)[self.cols[pos]] - 1) * f + self.rows[pos]
        return np.take(data.reshape(-1, words), flat, axis=0)

    def payloads(self, data: np.ndarray, demands) -> np.ndarray:
        """The S multicast payloads, one XOR over each message's cells."""
        return _xor_segments(self.gather(data, demands, slice(None)), self.ptr)

    def others(self, data: np.ndarray, demands, pos, seg) -> np.ndarray:
        """For each message cell ``pos`` (one segment ``seg`` per message),
        the XOR of the demanded packets at the other cells of its message:
        exclusive forward and backward scans over chunks of whole messages
        (at most ``_SCAN_CELLS`` cells unless one message is larger), with
        what lies outside each message XORed back out.  So a cell's own
        packet never enters its value."""
        out = self.gather(data, demands, pos)
        wide = _wide(out)
        first = 0
        while first < len(seg) - 1:
            last = max(first + 1, int(np.searchsorted(seg, seg[first] + _SCAN_CELLS, "right")) - 1)
            cells = wide[seg[first]:seg[last]]
            before, after = np.empty((2, len(cells) + 1, cells.shape[1]), dtype=cells.dtype)
            before[0] = after[-1] = 0
            np.bitwise_xor.accumulate(cells, axis=0, out=before[1:])  # cells before i
            np.bitwise_xor.accumulate(cells[::-1], axis=0, out=after[-2::-1])  # cells from i on
            starts = seg[first:last + 1] - seg[first]
            outside = before[starts[:-1]] ^ after[starts[1:]]
            np.bitwise_xor(before[:-1], after[1:], out=cells)
            cells ^= np.repeat(outside, np.diff(starts), axis=0)
            first = last
        return out

    def require_cached(self, user: int, cached: np.ndarray, pos, ptr, msgs) -> None:
        """Raise unless every cell ``pos`` lies in a row that ``cached``, a
        per-row mask of the placed caches, marks; the error names the
        message (``msgs``, one per segment ``ptr``) of the first that does
        not."""
        missing = np.flatnonzero(~cached[self.rows[pos]])
        if len(missing):
            p = missing[0]
            s = int(msgs[np.searchsorted(ptr, p, side="right") - 1])
            raise DecodeFailureError(user, s + 1, f"packet row {self.rows[pos[p]]} not cached")

    def require_user(self, user: int, cached: np.ndarray) -> None:
        """Raise unless ``cached``, a per-row mask of the placed caches, marks
        every row the user reads: the other cells (the side packets) of each
        message at a row its column does not star, then its starred rows."""
        column = self.grid[:, user]
        needed = np.flatnonzero(column >= 0)
        msgs = column[needed]
        pos, seg = _segments(self.ptr, msgs)
        own = (self.cols[pos] == user) & (self.rows[pos] == np.repeat(needed, np.diff(seg)))
        self.require_cached(user, cached, pos[~own], seg - np.arange(len(seg)), msgs)
        stars = np.flatnonzero(column < 0)
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
    if library.num_packets != scheme.subpacketization:
        raise InvalidInputError(
            f"library has {library.num_packets} packets per file, "
            f"scheme needs {scheme.subpacketization}"
        )
    grid = np.array(scheme.node_placement, dtype=bool)
    grid.flags.writeable = False
    return NodeCaches(library, grid)


def validate_demands(scheme, library: Library, demands) -> tuple:
    demands = tuple(int(d) for d in demands)
    if len(demands) != scheme.num_users:
        raise InvalidParametersError(
            f"demand vector length {len(demands)} != user count {scheme.num_users}"
        )
    if any(not 1 <= d <= library.num_files for d in demands):
        raise InvalidParametersError("demanded file index outside the library")
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
    payloads = scheme.decode_plan.payloads(library.data, demands)
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
        short = int(scheme.decode_plan.known.sum(axis=1).min())
        if short < reduced:
            raise UnsupportedParametersError(
                f"advertised reduction {reduced} exceeds what some user can "
                f"rebuild from cache ({short}); the coded batch would be "
                "undecodable, use plain delivery"
            )
    num_out = s - reduced
    if s + num_out > gf16.FIELD_SIZE - 1:
        raise ConfigurationError(
            f"coded delivery needs a field with at least "
            f"{s + num_out + 1} elements; GF(2^16) is too small"
        )
    symbols = scheme.decode_plan.payloads(library.data, demands)
    if num_out < s:
        symbols = gf16.matvec(gf16.cauchy_matrix(num_out, s), symbols)
    return TransmissionPlan("mds", demands, s, symbols)


def _user_index(scheme, user) -> int:
    """A 0-based user index, checked against the user count, or the index
    of the user whose block is ``user``."""
    if isinstance(user, (int, np.integer)) and not isinstance(user, bool):
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


def _all_messages(dplan: DecodePlan, plan: TransmissionPlan, coeff, data: np.ndarray,
                  user: int, cached: np.ndarray) -> np.ndarray:
    """Recover all S multicast payloads at one user from the plan's coded
    symbols; ``coeff`` is the plan's Cauchy matrix."""
    known = np.flatnonzero(dplan.known[user])
    unknown = np.flatnonzero(~dplan.known[user])
    messages = np.zeros((plan.num_messages, data.shape[2]), dtype=np.uint16)
    pos, seg = _segments(dplan.ptr, known)
    dplan.require_cached(user, cached, pos, seg, known)
    messages[known] = _xor_segments(dplan.gather(data, plan.demands, pos), seg)
    if len(unknown):
        if len(unknown) > len(plan.symbols):
            raise DecodeFailureError(
                user, None,
                f"{len(unknown)} unknown messages but only {len(plan.symbols)} symbols",
            )
        # The first rows suffice: every square submatrix of a Cauchy matrix
        # is Cauchy, so invertible.
        coeff = coeff[:len(unknown)]
        rhs = plan.symbols[:len(unknown)] ^ gf16.matvec(coeff[:, known], messages[known])
        messages[unknown] = gf16.solve(coeff[:, unknown], rhs)
    return messages


def decode_all(scheme, plan: TransmissionPlan, caches: NodeCaches, users=None):
    """Rebuild each user's demanded file, byte-exact, from the user's
    reachable caches plus the plan's symbols; yield ``(k, file)`` for each
    user k (all users by default; an index or a block each), ``file`` the
    F x words array.  The plan must fit the scheme and the library.  See
    :func:`_decode_blocks`."""
    for block, files in _decode_blocks(scheme, plan, caches, users):
        yield from zip(block, files)


def _decode_blocks(scheme, plan: TransmissionPlan, caches: NodeCaches, users=None):
    """:func:`decode_all` a block of users at a time: yield ``(block,
    files)``, the users' files as one len(block) x F x words array.  The
    scheme's decode plan says which rows to read from cache; every row read
    is checked against the placed caches, and a failing user ends the run
    after the block of the users before it.  The leave-one-out XOR is
    computed once, over the messages the users need, and every user peels
    its rows from it."""
    data = caches.library.data
    demands = _check_plan(scheme, caches.library, plan)
    # With no reduction the coded batch is the identity code: the symbols
    # are the multicast payloads verbatim.
    coeff = gf16.cauchy_matrix(plan.symbols_sent, plan.num_messages) if plan.reduced_by else None
    dplan = scheme.decode_plan
    users = (list(range(scheme.num_users)) if users is None
             else [_user_index(scheme, k) for k in users])
    ids = dplan.grid[:, users]
    wanted = np.bincount(ids[ids >= 0], minlength=len(dplan.ptr) - 1) > 0  # by some user
    pos, seg = _segments(dplan.ptr, np.flatnonzero(wanted))
    where = np.empty(len(dplan.rows), dtype=np.intp)  # a cell's place in others
    where[pos] = np.arange(len(pos))
    others = _wide(dplan.others(data, demands, pos, seg))
    reached = reach(caches.grid, scheme.user_nodes[users])
    # Every row a side-starred user reads is a starred row, so one F x users
    # test clears each such user whose starred rows are cached; only the
    # rest take the per-user check.
    checked = dplan.side_starred[users] & ~((ids < 0) & ~reached).any(axis=0)
    f, words = data.shape[1:]
    step = max(1, _BLOCK_ROWS // f)  # users whose files are assembled at once
    for a in range(0, len(users), step):
        block = users[a:a + step]
        recovered = []  # the coded plan's payloads, per user
        failure = None
        # per-user work: the coded plan's solves, and the users not cleared
        for i in range(len(block)) if coeff is not None else np.flatnonzero(~checked[a:a + step]):
            try:
                if coeff is not None:
                    recovered.append(_all_messages(dplan, plan, coeff, data, block[i],
                                                   reached[:, a + i]))
                if not checked[a + i]:
                    dplan.require_user(block[i], reached[:, a + i])
            except DecodeFailureError as exc:  # raised after the users before it
                failure, block = exc, block[:i]
                break
        if block:
            grid = ids[:, a:a + len(block)].T.ravel()  # the block's columns, user after user
            need = np.flatnonzero(grid >= 0)
            at = where[dplan.cell_at[:, block].T.ravel()[need]]
            # The demanded files hold the cached packets at the starred rows;
            # each other row is its message (plain: the symbol; mds: the
            # user's recovered payload) XOR the leave-one-out value at the
            # user's own cell.
            files = np.take(data, demands[block] - 1, axis=0)
            if coeff is None:
                sent = np.take(plan.symbols, grid[need], axis=0)
            else:
                sent = np.take(np.concatenate(recovered[:len(block)]),
                               need // f * plan.num_messages + grid[need], axis=0)
            _wide(files.reshape(-1, words))[need] = _wide(sent) ^ np.take(others, at, axis=0)
            yield block, files
        if failure is not None:
            raise failure


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
    for block, files in _decode_blocks(scheme, plan, caches):
        truth = np.take(library.data, np.asarray(plan.demands)[block] - 1, axis=0)
        verdicts += (_wide(files) == _wide(truth)).reshape(len(block), -1).all(axis=1).tolist()
    max_unknown = plan.num_messages - int(scheme.decode_plan.known.sum(axis=1).min())
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
    trial gathers the multicast payloads once, and :func:`decode_all` decodes
    it at every user, each block of users checked with one comparison.
    Returns the number of trials run; the first mismatch (first user, then
    first row) raises DecodeFailureError naming the user, message and row.
    """
    if not isinstance(num_trials, int) or isinstance(num_trials, bool) or num_trials < 0:
        raise InvalidParametersError(
            f"trial count must be a non-negative integer, got {num_trials!r}"
        )
    caches = place(library, scheme)
    dplan = scheme.decode_plan
    data = library.data
    rng = Random(seed)
    for _ in range(num_trials):
        demands = random_demands(scheme, library, rng)
        plan = TransmissionPlan("plain", demands, scheme.counted_messages,
                                dplan.payloads(data, demands))
        for block, decoded in _decode_blocks(scheme, plan, caches):
            truth = np.take(data, np.asarray(demands)[block] - 1, axis=0)
            wrong = (_wide(decoded) != _wide(truth)).any(axis=2)  # block x F
            if wrong.any():
                i, j = np.argwhere(wrong)[0].tolist()
                k = block[i]
                raise DecodeFailureError(k, int(dplan.grid[j, k]) + 1,
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
    :func:`decode` reads them from the scheme's decode plan."""
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
