"""End-to-end execution of a caching scheme on synthetic file data.

Packets are vectors of 16-bit words (numpy uint16), so XOR multicasting and
the erasure-coded variant share one payload representation.  Delivery sends
one XOR message per delivery-array id in canonical id order; the coded mode
replaces the S multicasts with S - r Cauchy-coded combinations, where r is
the scheme's per-user count of messages reconstructible from cache alone.
"""

from __future__ import annotations

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
from .pda import id_cells


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
    rng = np.random.default_rng(seed)
    data = rng.integers(
        0, 1 << 16, size=(num_files, num_packets, packet_bytes // 2), dtype=np.uint16
    )
    return Library(num_files, num_packets, packet_bytes, seed, data)


def reach(placement: np.ndarray, user_nodes: np.ndarray) -> np.ndarray:
    """F x users boolean grid: user k reaches row j when one of its nodes
    ``user_nodes[k]`` (0-based columns of ``placement``) caches j."""
    return placement[:, user_nodes].any(axis=2)


class ArrayScheme:
    """What every scheme reads off its arrays (``node_placement``,
    ``user_delivery`` and ``user_nodes``, the K x L node columns each user
    accesses), and its decode plan."""

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


def _xor_segments(packets: np.ndarray, ptr) -> np.ndarray:
    """XOR of each segment ``ptr[s]:ptr[s + 1]`` of the packet rows; an
    empty segment gives zeros."""
    out = np.zeros((len(ptr) - 1, packets.shape[1]), dtype=np.uint16)
    full = ptr[:-1] < ptr[1:]  # an empty segment takes no rows
    out[full] = np.bitwise_xor.reduceat(packets, ptr[:-1][full], axis=0)
    return out


# Cells of whole messages that ``DecodePlan.others`` scans at once, which
# bounds its scratch arrays to a few of this many packets.
_SCAN_CELLS = 1 << 12
# Packet rows of the files that ``decode_all`` assembles at once, per plan,
# which bounds its scratch arrays the same way.
_BLOCK_ROWS = _SCAN_CELLS


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
        # one count per (user, message) of its cells in rows the user's
        # column does not star: 0 for a known message, and 1 (the user's
        # own cell) at every needed message of a side-starred user
        known = np.zeros((self.grid.shape[1], len(self.ptr) - 1), dtype=bool)
        side_starred = np.zeros(self.grid.shape[1], dtype=bool)
        for k, column in enumerate((self.grid >= 0).T):
            unstarred = np.add.reduceat(column.view(np.uint8)[self.rows], self.ptr[:-1],
                                        dtype=np.int32)
            known[k] = unstarred == 0
            side_starred[k] = (unstarred[self.grid[column, k]] == 1).all()
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
        # XOR is bitwise: scan the widest words that tile a packet
        wide = out.view(f"u{math.gcd(8, out.itemsize * out.shape[1])}")
        first = 0
        while first < len(seg) - 1:
            last = max(first + 1, int(np.searchsorted(seg, seg[first] + _SCAN_CELLS, "right")) - 1)
            cells = wide[seg[first]:seg[last]]
            before, after = np.zeros((2, len(cells) + 1, cells.shape[1]), dtype=cells.dtype)
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
        block = tuple(sorted(tuple(p) if isinstance(p, (tuple, list)) else p for p in user))
        try:
            return scheme.user_blocks.index(block)
        except ValueError:
            raise InvalidInputError(f"no user with block {block}") from None
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
    """Recover all S multicast payloads at one user; ``coeff`` is the plan's
    Cauchy matrix, or None when the symbols are the payloads verbatim."""
    if coeff is None:
        return plan.symbols

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


def decode_all(scheme, plans, caches: NodeCaches, users=None):
    """Rebuild each user's demanded file, byte-exact, under every plan, from
    the user's reachable caches plus that plan's symbols; yield ``(k, files)``
    for each user k (all users by default; an index or a block each),
    ``files[p]`` the F x words file under ``plans[p]``.  Every plan must fit
    the scheme and the library.  The scheme's decode plan says which rows to
    read from cache; every row read is checked against the placed caches.
    Each plan's leave-one-out XOR is computed once, over the messages the
    users need, and every user peels its rows from it; the files are built
    for a block of users at a time."""
    data = caches.library.data
    demands = [_check_plan(scheme, caches.library, p) for p in plans]
    # With no reduction the coded batch is the identity code: the symbols
    # are the multicast payloads verbatim.
    coeffs = [gf16.cauchy_matrix(p.symbols_sent, p.num_messages) if p.reduced_by else None
              for p in plans]
    dplan = scheme.decode_plan
    users = (list(range(scheme.num_users)) if users is None
             else [_user_index(scheme, k) for k in users])
    ids = dplan.grid[:, users]
    wanted = np.bincount(ids[ids >= 0], minlength=len(dplan.ptr) - 1) > 0  # by some user
    pos, seg = _segments(dplan.ptr, np.flatnonzero(wanted))
    where = np.empty(len(dplan.rows), dtype=np.intp)  # a cell's place in others
    where[pos] = np.arange(len(pos))
    others = [dplan.others(data, d, pos, seg) for d in demands]
    reached = reach(caches.grid, scheme.user_nodes[users])
    # Every row a side-starred user reads is a starred row, so one F x users
    # test clears each such user whose starred rows are cached; only the
    # rest take the per-user check.
    checked = dplan.side_starred[users] & ~((ids < 0) & ~reached).any(axis=0)
    coded = any(c is not None for c in coeffs)
    f, words = data.shape[1:]
    step = max(1, _BLOCK_ROWS // f)  # users whose files are assembled at once
    for a in range(0, len(users), step):
        block = users[a:a + step]
        recovered = [[] for _ in plans]  # each coded plan's payloads, per user
        failure = None
        # per-user work: the coded plans' solves, and the users not cleared
        for i in range(len(block)) if coded else np.flatnonzero(~checked[a:a + step]):
            try:
                for got, p, c in zip(recovered, plans, coeffs):
                    if c is not None:
                        got.append(_all_messages(dplan, p, c, data, block[i], reached[:, a + i]))
                if not checked[a + i]:
                    dplan.require_user(block[i], reached[:, a + i])
            except DecodeFailureError as exc:  # raised after the users before it
                failure, block = exc, block[:i]
                break
        if block:
            grid = ids[:, a:a + len(block)].T.ravel()  # the block's columns, user after user
            need = np.flatnonzero(grid >= 0)
            at = where[dplan.cell_at[:, block].T.ravel()[need]]
            files = []
            for p, c, d, rest, got in zip(plans, coeffs, demands, others, recovered):
                # The demanded files hold the cached packets at the starred
                # rows; each other row is its message (plain: the symbol;
                # mds: the user's recovered payload) XOR the leave-one-out
                # value at the user's own cell.
                out = np.take(data, d[block] - 1, axis=0)
                if c is None:
                    sent = np.take(p.symbols, grid[need], axis=0)
                else:
                    sent = np.take(np.concatenate(got[:len(block)]),
                                   need // f * p.num_messages + grid[need], axis=0)
                out.reshape(-1, words)[need] = sent ^ np.take(rest, at, axis=0)
                files.append(out)
            for i, k in enumerate(block):
                yield k, [out[i] for out in files]
        if failure is not None:
            raise failure


def decode(scheme, user, plan: TransmissionPlan, caches: NodeCaches) -> bytes:
    """Reconstruct the user's demanded file, byte-exact: the one-user,
    one-plan case of :func:`decode_all`."""
    _, (out,) = next(decode_all(scheme, [plan], caches, [user]))
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
    verdicts = [np.array_equal(files[0], library.data[plan.demands[k] - 1])
                for k, files in decode_all(scheme, [plan], caches)]
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
    it at every user.  Returns the number of trials run; the first mismatch
    raises DecodeFailureError naming the user, message and row.
    """
    caches = place(library, scheme)
    dplan = scheme.decode_plan
    data = library.data
    rng = Random(seed)
    for _ in range(num_trials):
        demands = random_demands(scheme, library, rng)
        plan = TransmissionPlan("plain", demands, scheme.counted_messages,
                                dplan.payloads(data, demands))
        for k, (decoded,) in decode_all(scheme, [plan], caches):
            truth = data[demands[k] - 1]
            if not np.array_equal(decoded, truth):
                j = int(np.flatnonzero(np.any(decoded != truth, axis=1))[0])
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
