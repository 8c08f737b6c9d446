"""Flat gate-arena storage behind the trace-formula encoder.

The legacy :class:`~repro.encoding.context.EncodingContext` stores every
clause as a ``list[int]`` and the structure-hash gate cache as a Python
dict — millions of small heap objects per compile.  The arena keeps the
same information in a handful of flat ``array('q')`` buffers instead:

* ``lits``  — every clause's literals, concatenated (one literal pool);
* ``cend``  — per-clause end offset into ``lits`` (start = previous end);
* ``cgid``  — per-clause owning group id (``-1`` = hard set);
* ``gtab``  — the structure-hash gate cache as an open-addressed table of
  ``(op, k1, k2, out)`` int quadruples (linear probing, power-of-two size);
* ``hdr``   — the mutable scalars (variable counter, gate/hit counters,
  rolling FNV signature …) in one small shared array.

Because every buffer is a plain C-layout int64 array, the optional C
emission core (``src/repro/sat/encode.c``) can operate on the *same* state
as the pure-Python routines: a compile may interleave Python scalar gates
with C vector kernels freely, and both backends produce bit-identical
results by construction of the shared layout (and by the differential test
matrix for the C reimplementation of the fold rules).

At the end of an encode :meth:`GateArena.partition` lays the clauses out
as the flat int32 formula buffers (hard block, then one block per
statement group) that compiled programs and trace formulas hold; the
result is byte-for-byte independent of which backend filled the arena.
"""

from __future__ import annotations

from array import array

_M64 = (1 << 64) - 1

# ------------------------------------------------------------- header slots

HDR_NUM_VARS = 0  #: CNF variable counter.
HDR_GATES = 1  #: Gates emitted (structure-hash misses).
HDR_HITS = 2  #: Gate-cache hits.
HDR_SIG = 3  #: Rolling FNV-1a signature (int64 bit pattern of the uint64).
HDR_TRUE = 4  #: The constant-true literal, 0 while unallocated.
HDR_NCLAUSES = 5  #: Number of clauses in the store.
HDR_LITS = 6  #: Logical length of the literal pool.
HDR_GMASK = 7  #: Gate-table slot mask (slot count - 1).
HDR_GUSED = 8  #: Occupied gate-table slots.
HDR_SLOTS = 16  #: Header size (room for growth without an ABI break).

#: Opcodes of the packed-key gates (first key slot holds two literals).
_PACKED_OPS = (3, 4, 5)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _hash_key(op: int, k1: int, k2: int) -> int:
    """Position hash of a canonical gate key (identical in encode.c).

    Multiplicative mixing over the three key words; Python applies the
    64-bit wraparound masks that C gets from ``uint64_t`` arithmetic.
    """
    h = (
        (op * 0x9E3779B97F4A7C15)
        ^ ((k1 & _M64) * 0xC2B2AE3D27D4EB4F)
        ^ ((k2 & _M64) * 0x165667B19E3779F9)
    ) & _M64
    h ^= h >> 29
    h = (h * 0xBF58476D1CE4E5B9) & _M64
    h ^= h >> 32
    return h


def _signed64(value: int) -> int:
    """The int64 bit pattern of a uint64 (array('q') stores signed)."""
    return value - (1 << 64) if value >= (1 << 63) else value


class GateArena:
    """The flat buffers plus the pure-Python routines that fill them."""

    def __init__(self) -> None:
        self.hdr = array("q", [0] * HDR_SLOTS)
        self.hdr[HDR_SIG] = _signed64(_FNV_OFFSET)
        self.lits = array("q", bytes(8 * 4096))
        self.cend = array("q", bytes(8 * 1024))
        self.cgid = array("q", bytes(8 * 1024))
        #: Gate table: stride-4 slots of (op, k1, k2, out); op == 0 = empty.
        self.gtab = array("q", bytes(8 * 4 * 2048))
        self.hdr[HDR_GMASK] = 2048 - 1
        #: Optional C rehash routine ``(old, old_slots, new, new_mask)``,
        #: installed by the C-backend binding (same layout as the Python loop).
        self.rehash_hook = None

    # ------------------------------------------------------------- capacity

    def _grow(self, buf: array, need: int) -> array:
        capacity = len(buf)
        while capacity < need:
            capacity *= 2
        buf.extend(array("q", bytes(8 * (capacity - len(buf)))))
        return buf

    def ensure_clauses(self, clauses: int, lits: int) -> None:
        """Guarantee room for ``clauses`` more clauses / ``lits`` literals."""
        n = self.hdr[HDR_NCLAUSES] + clauses
        if n > len(self.cend):
            self.cend = self._grow(self.cend, n)
            self.cgid = self._grow(self.cgid, n)
        n = self.hdr[HDR_LITS] + lits
        if n > len(self.lits):
            self.lits = self._grow(self.lits, n)

    def ensure_gates(self, gates: int) -> None:
        """Guarantee table headroom (rehash under 50% load) for new gates."""
        mask = self.hdr[HDR_GMASK]
        if (self.hdr[HDR_GUSED] + gates) * 2 <= mask + 1:
            return
        slots = (mask + 1) * 2
        while (self.hdr[HDR_GUSED] + gates) * 2 > slots:
            slots *= 2
        old, old_mask = self.gtab, mask
        self.gtab = array("q", bytes(8 * 4 * slots))
        self.hdr[HDR_GMASK] = slots - 1
        hook = self.rehash_hook
        if hook is not None:
            hook(old, old_mask + 1, self.gtab, slots - 1)
            return
        new, new_mask = self.gtab, slots - 1
        for slot in range(0, (old_mask + 1) * 4, 4):
            op = old[slot]
            if not op:
                continue
            k1, k2 = old[slot + 1], old[slot + 2]
            probe = _hash_key(op, k1, k2) & new_mask
            while new[probe * 4]:
                probe = (probe + 1) & new_mask
            base = probe * 4
            new[base] = op
            new[base + 1] = k1
            new[base + 2] = k2
            new[base + 3] = old[slot + 3]

    # ------------------------------------------------------------ emission

    def new_var(self) -> int:
        hdr = self.hdr
        hdr[HDR_NUM_VARS] += 1
        return hdr[HDR_NUM_VARS]

    def true_lit(self) -> int:
        """The constant-true literal, allocated (with its hard unit) lazily."""
        hdr = self.hdr
        lit = hdr[HDR_TRUE]
        if lit:
            return lit
        lit = self.new_var()
        hdr[HDR_TRUE] = lit
        self.ensure_clauses(1, 1)
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        self.lits[off] = lit
        self.cend[n] = off + 1
        self.cgid[n] = -1
        hdr[HDR_NCLAUSES] = n + 1
        hdr[HDR_LITS] = off + 1
        return lit

    def emit(self, clause: list[int] | tuple[int, ...], gid: int) -> None:
        """Store one non-gate clause under group ``gid`` (-1 = hard)."""
        hdr = self.hdr
        self.ensure_clauses(1, len(clause))
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        lits = self.lits
        for lit in clause:
            lits[off] = lit
            off += 1
        self.cend[n] = off
        self.cgid[n] = gid
        hdr[HDR_NCLAUSES] = n + 1
        hdr[HDR_LITS] = off

    def _observe(self, op: int, k1: int, k2: int, out: int) -> None:
        """Fold a fresh gate into the signature."""
        hdr = self.hdr
        sig = hdr[HDR_SIG] & _M64
        for word in (op, k1, k2, out):
            sig = ((sig ^ (word & 0xFFFFFFFF)) * _FNV_PRIME) & _M64
        hdr[HDR_SIG] = _signed64(sig)
        hdr[HDR_GATES] += 1

    def gate_lookup(self, op: int, k1: int, k2: int) -> int:
        """The cached output of a canonical gate key, or 0 (a miss).

        A hit counts toward the gate-sharing statistic, mirroring the
        legacy builder's ``gate_hits`` bookkeeping.
        """
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        probe = _hash_key(op, k1, k2) & mask
        while True:
            base = probe * 4
            slot_op = gtab[base]
            if not slot_op:
                return 0
            if slot_op == op and gtab[base + 1] == k1 and gtab[base + 2] == k2:
                self.hdr[HDR_HITS] += 1
                return gtab[base + 3]
            probe = (probe + 1) & mask

    def gate_insert(
        self, op: int, k1: int, k2: int, out: int, clauses: list[list[int]]
    ) -> None:
        """Insert a fresh gate: table entry, signature, definition."""
        self.ensure_gates(1)
        gtab, mask = self.gtab, self.hdr[HDR_GMASK]
        probe = _hash_key(op, k1, k2) & mask
        while gtab[probe * 4]:
            probe = (probe + 1) & mask
        base = probe * 4
        gtab[base] = op
        gtab[base + 1] = k1
        gtab[base + 2] = k2
        gtab[base + 3] = out
        self.hdr[HDR_GUSED] += 1
        self._observe(op, k1, k2, out)
        hdr = self.hdr
        total = sum(len(clause) for clause in clauses)
        self.ensure_clauses(len(clauses), total)
        n, off = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        lits, cend, cgid = self.lits, self.cend, self.cgid
        for clause in clauses:
            for lit in clause:
                lits[off] = lit
                off += 1
            cend[n] = off
            cgid[n] = -1
            n += 1
        hdr[HDR_NCLAUSES] = n
        hdr[HDR_LITS] = off

    # --------------------------------------------------------- read-out

    def partition(self, group_table: list) -> tuple:
        """The clause store in the flat formula layout.

        Returns ``(lits, ends, hard_clauses, groups, group_ends)``: int32
        buffers in the :mod:`repro.sat.flat` layout holding the hard
        clauses first and then one block per group of ``group_table`` in
        sorted group order, emission order kept inside every block;
        ``groups`` is that sorted order and ``group_ends[k]`` the clause
        index ending the block of ``groups[k]``.  Runs in C
        (``repro_enc_partition``) when the emission core is loaded.
        """
        from repro.sat import _ccore

        hdr = self.hdr
        nclauses, nlits = hdr[HDR_NCLAUSES], hdr[HDR_LITS]
        order = sorted(range(len(group_table)), key=group_table.__getitem__)
        rank = array("q", bytes(8 * len(order)))
        for position, gid in enumerate(order):
            rank[gid] = position
        out_lits = array("i", bytes(4 * nlits))
        out_ends = array("i", bytes(4 * nclauses))
        group_ends = array("i", bytes(4 * len(order)))
        native = _ccore.partition_function()
        if native is not None:
            counts = array("q", bytes(16 * (len(order) + 1)))
            hard = native(
                self.lits.buffer_info()[0],
                self.cend.buffer_info()[0],
                self.cgid.buffer_info()[0],
                nclauses,
                rank.buffer_info()[0],
                len(order),
                counts.buffer_info()[0],
                out_lits.buffer_info()[0],
                out_ends.buffer_info()[0],
                group_ends.buffer_info()[0],
            )
        else:
            blocks: list[list[tuple[int, int]]] = [[] for _ in range(len(order) + 1)]
            cend, cgid = self.cend, self.cgid
            start = 0
            for index in range(nclauses):
                end = cend[index]
                gid = cgid[index]
                blocks[0 if gid < 0 else rank[gid] + 1].append((start, end))
                start = end
            lits = array("i", self.lits[:nlits])
            offset = clause = 0
            for block_index, block in enumerate(blocks):
                for start, end in block:
                    out_lits[offset : offset + end - start] = lits[start:end]
                    offset += end - start
                    out_ends[clause] = offset
                    clause += 1
                if block_index:
                    group_ends[block_index - 1] = clause
            hard = len(blocks[0])
        groups = tuple(group_table[gid] for gid in order)
        return out_lits, out_ends, hard, groups, group_ends
