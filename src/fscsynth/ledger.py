"""Explored-mass bookkeeping for the probabilistic AND-OR search.

The ledger tracks, for the currently simulated branch ``h_curr`` of
length L (entries 0..n, n = L-1, each entry carrying the probability of
the step that entered it), one accounting slot per index 0..L:

* ``goal[k]`` / ``fail[k]`` / ``noter[k]``: explored mass of goal /
  failing / never-terminating continuations measured *from* the combined
  state ``h_curr[k-1]``, restricted to continuations that do not revisit
  ``h_curr[:k-1]`` and (for k <= n) do not begin with the on-branch step
  into ``h_curr[k]``.  Slot L is the open frontier: terminal events at
  the current node are recorded there with just their final step
  probability.
* ``loop[k]``, one dict per branch entry k < L: explored mass of cycles
  that return to ``h_curr[k]``, measured from ``h_curr[k]`` (the full
  cycle traversal probability), keyed by the index m (k <= m <= L) at
  which the cycle was sealed; only positive masses are stored.  Fresh
  records always land in column L; folds migrate them to lower columns.

``calc_lambda`` turns the slots into sound lower bounds
(lambda vectors) by amplifying through-branch mass with the geometric
series of every cycle recorded at intermediate indices.  ``cumulate_alpha``
folds the frontier slot into its parent when the branch retreats, chosen
so that ``calc_lambda`` is invariant under the fold.

The search never calls ``calc_lambda`` on its hot path.  Every mutating
method keeps a cache of the same bounds up to date instead:

* ``headroom[k]``: one minus calc_lambda's cycle mass at index k (one
  at L), and ``through[k] = ps[k] / headroom[k]``;
* ``prefix[k]``: the product of ``through[:k]``, the weight of slot k in
  the index-0 bounds;
* ``acc_goal[k]`` (and ``acc_fail``, ``acc_noter``): the prefix sums of
  ``prefix[j] * goal[j]``, so that ``goal0 = acc_goal[L]``;
* ``total``: ``goal0 + fail0 + noter0``, the explored mass at index 0.

``extend``, a terminal record and a fold cost O(1) arithmetic; a cycle
record to index k recomputes the cycle mass of k and of the lower rows
that run past a changed index, then rescales the prefix from the lowest
changed index.  No record walks the rest of the branch.

Index j is dead when nothing entering h_curr[j] can terminate: its
never-terminating mass ``nu`` (calc_lambda's ``noter[j + 1]``) fills
``h = headroom[j]``.  The dead-index rule (``_saturate``) rewrites such
an index only where ``h`` is 0 and ``ps[j] / h`` fails, which
``record_loop`` detects.  Elsewhere the rewrite would change no bound:
with ``h > 0`` the through factor passes ``ps[j] / h * nu = ps[j]`` into
j's noter bound, the value a saturation writes; no row below j runs past
j (that escape would push j's explored mass above 1), so nothing below j
changes; and with j's explored mass at 1 its next event is its fold,
where ``cumulate_alpha`` charges ``noter[j] += ps[j]`` exactly.  So
``calc_lambda`` saturates only a cycle mass of 1, which these methods
have saturated already: on their ledgers it changes nothing and is the
reference the cache is tested against.  The fold checks each index's
cycle plus noter mass once and, at a dead index, that no row below runs
past it; ``calc_lambda`` checks the complete law at every index and the
same escape at every dead one.  Writing the slot lists directly bypasses
the cache; ``calc_lambda`` and ``cumulate_alpha`` read only the slots and
stay exact on such ledgers, where ``calc_lambda`` saturates in place.

All arithmetic is exact, on one number type: every slot and cached
bound is a reduced pair ``(numerator, denominator)`` of ``int``s with a
positive denominator, zero as ``(0, 1)``, so that ``==`` on pairs is
``==`` on values.  A step probability enters as such a pair, and
``_add``, ``_sub``, ``_mul``, ``_div`` and ``_cmp`` do the arithmetic
with ``math.gcd`` and no ``Fraction`` call.  A pair is a truthy tuple
even when it is zero, so a zero test reads its numerator.  An operation
whose result is one of its operands (adding zero, multiplying by a one
the code can see) is skipped and that operand stored.  ``calc_lambda``
alone reads the slots as ``Fraction``s and does its own ``Fraction``
arithmetic, so that it stays an independent reference for the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

#: Zero and one as pairs.
_P0 = (0, 1)
_P1 = (1, 1)

#: Flat per-index lists copied by ``snapshot`` (``loop`` is copied per
#: row): the slots, then the cache.
_LISTS = ("ps", "goal", "fail", "noter", "headroom", "through", "prefix", "acc_goal", "acc_fail", "acc_noter")


def _add(a, b):
    """``a + b`` on reduced pairs; where one of them is zero, the other."""
    an, ad = a
    bn, bd = b
    if not an:
        return b
    if not bn:
        return a
    n = an * bd + bn * ad
    d = ad * bd
    g = gcd(n, d)
    return (n // g, d // g)


def _sub(a, b):
    """``a - b`` on reduced pairs."""
    return _add(a, (-b[0], b[1]))


def _mul(a, b):
    """``a * b`` on reduced pairs: cancelling each numerator against the
    other denominator leaves the product reduced, and zero ``(0, 1)``."""
    an, ad = a
    bn, bd = b
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return ((an // g1) * (bn // g2), (ad // g2) * (bd // g1))


def _div(a, b):
    """``a / b`` on reduced pairs."""
    bn, bd = b
    if not bn:
        raise ZeroDivisionError("division of a cached bound by zero")
    return _mul(a, (bd, bn) if bn > 0 else (-bd, -bn))


def _cmp(a, b) -> int:
    """An int with the sign of ``a - b`` (denominators are positive)."""
    return a[0] * b[1] - b[0] * a[1]


class LedgerError(AssertionError):
    """Internal accounting invariant violated: indicates a search bug."""


@dataclass(frozen=True)
class LambdaVector:
    """Per-index lower bounds derived from a ledger by ``calc_lambda``."""

    goal: tuple
    fail: tuple
    noter: tuple
    loop: tuple

    @property
    def goal0(self):
        return self.goal[0]

    @property
    def fail0(self):
        return self.fail[0]

    @property
    def noter0(self):
        return self.noter[0]


class SearchLedger:
    """Mutable search-branch state: ``h_curr``, the alpha slots and the
    cached bounds derived from them."""

    __slots__ = _LISTS + ("pos", "loop", "total")

    def __init__(self):
        self.ps: list[tuple[int, int]] = []
        # h_curr: combined state -> index, in insertion (branch) order
        self.pos: dict[tuple[int, int], int] = {}
        self.goal = [_P0]
        self.fail = [_P0]
        self.noter = [_P0]
        self.loop: list[dict[int, tuple[int, int]]] = []
        self.headroom = [_P1]
        self.through: list[tuple[int, int]] = []
        self.prefix = [_P1]
        self.acc_goal = [_P0]
        self.acc_fail = [_P0]
        self.acc_noter = [_P0]
        self.total = _P0

    # -- shape ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ps)

    def extend(self, q: int, s: int, p) -> None:
        """Append a combined state to h_curr; grow every slot list by one."""
        if (q, s) in self.pos:
            raise LedgerError("h_curr must not contain a combined state twice")
        self.pos[(q, s)] = len(self.ps)
        self.ps.append(p)
        self.goal.append(_P0)
        self.fail.append(_P0)
        self.noter.append(_P0)
        self.loop.append({})
        # the old frontier carries no cycle mass, so its headroom is 1
        self.through.append(p)
        self.prefix.append(_mul(self.prefix[-1], p))
        self.headroom.append(_P1)
        for acc in (self.acc_goal, self.acc_fail, self.acc_noter):
            acc.append(acc[-1])

    # -- mass records -----------------------------------------------------

    def record_goal(self, p) -> None:
        self._record(self.goal, self.acc_goal, p)

    def record_fail(self, p) -> None:
        self._record(self.fail, self.acc_fail, p)

    def record_noter(self, p) -> None:
        self._record(self.noter, self.acc_noter, p)

    def _record(self, slots: list, acc: list, p) -> None:
        """Terminal mass at the frontier slot; its weight in the index-0
        bounds is the prefix product at L."""
        if not p[0] > 0:
            raise LedgerError(f"terminal record of non-positive mass {p[0]}/{p[1]}")
        L = len(self.ps)
        slots[L] = _add(slots[L], p)
        weighted = _mul(self.prefix[L], p)
        acc[L] = _add(acc[L], weighted)
        self.total = _add(self.total, weighted)
        self._check_bounds()

    def record_loop(self, k: int, p_loop) -> None:
        """Seal a decaying cycle back to index k (traversal mass < 1)."""
        L = len(self.ps)
        if not 0 <= k < L:
            raise LedgerError("loop record outside h_curr")
        row = self.loop[k]
        row[L] = _add(row.get(L, _P0), p_loop)
        # a new cycle mass at index j changes the amplification of every
        # lower row that has a column past j; walk down and recompute those
        low = None
        for j in range(k, -1, -1):
            if j < k:
                row = self.loop[j]
                if low is None or not row or max(row) <= low:
                    continue
            # the new mass strictly raises the cycle mass of row k, and so of
            # every lower row that runs past a changed index: h always moves
            h = _sub(_P1, self._row_lambda(j))
            if h[0] < 0:
                raise LedgerError(f"cycle mass above 1 at index {j}")
            if not h[0]:
                # all mass from h_curr[j] cycles, so ps[j] / h cannot be
                # formed: the one place the dead-index rule must rewrite
                if self.acc_noter[L] != self.acc_noter[j]:
                    raise LedgerError(f"cycle+noter mass above 1 at index {j}")
                self._saturate_at(j)
                return
            self.headroom[j] = h
            self.through[j] = _div(self.ps[j], h)
            low = j
        if low is not None:
            self._rescale(low)

    def loop_mass_to(self, k: int, p):
        """Traversal probability of a cycle back to h_curr[k] closed by a
        step of probability ``p``: ``p`` times the on-branch suffix
        h_curr[k:]."""
        for t in range(k + 1, len(self.ps)):
            p = _mul(p, self.ps[t])
        return p

    # -- cache maintenance --------------------------------------------------

    def _row_lambda(self, j: int):
        """calc_lambda's cycle mass at index j from row j and
        the cached headroom above it (Horner form: column m is divided by
        the headroom of every index strictly between j and m).  Only rows
        with mass past a changed index are recomputed, so row j is not
        empty.  Row j holds no column <= j: a cycle record lands in a
        column above its row, and a fold moves column L of a lower row to
        n > j."""
        row = self.loop[j]
        top = max(row)
        headroom = self.headroom
        acc = row[top]
        for m in range(top - 1, j, -1):
            h = headroom[m]
            if h != _P1:
                acc = _div(acc, h)
            v = row.get(m)
            if v is not None:
                acc = _add(acc, v)
        return acc

    def _rescale(self, low: int) -> None:
        """Recompute ``prefix`` and the prefix sums above index ``low``."""
        prefix = self.prefix
        slots = ((self.goal, self.acc_goal), (self.fail, self.acc_fail), (self.noter, self.acc_noter))
        for t in range(low, len(self.ps)):
            # a retry corridor's through factor is p / (1 - (1 - p)) = 1
            through = self.through[t]
            weight = prefix[t] if through == _P1 else _mul(prefix[t], through)
            prefix[t + 1] = weight
            for values, acc in slots:
                v = values[t + 1]
                acc[t + 1] = _add(acc[t], _mul(weight, v)) if v[0] else acc[t]
        self.total = _add(_add(self.acc_goal[-1], self.acc_fail[-1]), self.acc_noter[-1])
        self._check_bounds()

    def _check_bounds(self) -> None:
        """calc_lambda's range checks, on the cached index-0 bounds: every
        record adds positive mass with a positive weight, so each component
        is non-negative, and a total of at most 1 keeps each one in [0, 1]."""
        # goal, fail and noter continuations are disjoint trajectory sets
        if self.total[0] > self.total[1]:
            raise LedgerError("goal+fail+noter mass above 1 at index 0")

    def _saturate_at(self, k: int) -> None:
        """The dead-index rule of ``_saturate``, with the cache kept in step:
        every index from k up loses its cycle mass, and the step into
        h_curr[k] becomes never-terminating mass.  Only a cycle record
        that leaves index k no headroom calls it."""
        _saturate(self, k)
        for j in range(k, len(self.ps) + 1):
            self.headroom[j] = _P1
        self.through[k:] = self.ps[k:]
        self._rescale(k)

    # -- snapshots (copy-on-branch, restored on backtrack) ---------------

    def snapshot(self):
        """Full copy of the branch, the alpha slots and the cache.

        Folds running between snapshot and restore legitimately shorten
        h_curr below its snapshot length, so the branch contents are
        stored, not just a length."""
        return [list(getattr(self, name)) for name in _LISTS], [dict(row) for row in self.loop], dict(self.pos), self.total

    def restore(self, snap) -> None:
        lists, loop, pos, self.total = snap
        for name, values in zip(_LISTS, lists):
            setattr(self, name, list(values))
        self.loop = [dict(row) for row in loop]
        self.pos = dict(pos)


def calc_lambda(ledger: SearchLedger) -> LambdaVector:
    """Lower-bound vectors for the current branch, highest index first.

    May mutate the ledger: where the cycle mass at an index is 1, nothing
    entering that index can terminate and the amplification through it
    would divide by zero, so ``_saturate`` applies the dead-index rule
    there.  A dead index with cycle mass below 1 needs no rewrite (see
    the module docstring).  At every index the cycle mass plus the goal,
    fail and never-terminating mass that leaves without returning must
    fit in the unit, each component must lie in [0, 1], and no row below
    a dead index may run past it.  The slots are read as ``Fraction``s and
    the bounds computed with ``Fraction`` arithmetic, independently of the
    pair arithmetic that maintains the cache.
    """
    L = len(ledger)
    # the frontier slot L carries no cycle mass: its bounds are its slots
    lam_goal, lam_fail, lam_noter = (
        [None] * L + [Fraction(*slots[L])] for slots in (ledger.goal, ledger.fail, ledger.noter)
    )
    lam_loop = [None] * L + [Fraction(0)]
    loop = ledger.loop

    for k in range(L, -1, -1):
        if k < L:
            # cycle mass at index k: row k amplified by cycles at intermediate
            # indices strictly between the target k and each sealing column
            row = loop[k]
            acc = Fraction(0)
            if row:
                amp = 1
                for m in range(k, L + 1):
                    v = row.get(m)
                    if v is not None:
                        acc += amp * Fraction(*v)
                    if m > k:
                        denom = 1 - lam_loop[m]
                        if not denom:
                            raise LedgerError("cycle amplification hit mass 1 past saturation")
                        amp = amp / denom if denom != 1 else amp
            lam_loop[k] = acc
            # from h_curr[k], returning to it and ending without a return
            # are disjoint trajectory sets
            if acc + lam_goal[k + 1] + lam_fail[k + 1] + lam_noter[k + 1] > 1:
                raise LedgerError(f"cycle+goal+fail+noter mass above 1 at index {k}")
            if acc == 1:
                _saturate(ledger, k)
                lam_loop[k] = Fraction(0)
                lam_noter[k + 1] = Fraction(1)
            elif acc + lam_noter[k + 1] == 1:
                _check_none_past(ledger, k)
            # below 1 here: a cycle mass of 1 was saturated just above
            through = Fraction(*ledger.ps[k]) / (1 - lam_loop[k])
            lam_goal[k] = through * lam_goal[k + 1] + Fraction(*ledger.goal[k])
            lam_fail[k] = through * lam_fail[k + 1] + Fraction(*ledger.fail[k])
            lam_noter[k] = through * lam_noter[k + 1] + Fraction(*ledger.noter[k])
        for vec in (lam_goal, lam_fail, lam_noter):
            v = vec[k]
            if v < 0 or v > 1:
                raise LedgerError(f"lambda component {v} outside [0,1] at index {k}")
        # goal, fail and noter continuations are disjoint trajectory sets
        if lam_goal[k] + lam_fail[k] + lam_noter[k] > 1:
            raise LedgerError(f"goal+fail+noter mass above 1 at index {k}")

    return LambdaVector(tuple(lam_goal), tuple(lam_fail), tuple(lam_noter), tuple(lam_loop))


def _saturate(ledger: SearchLedger, k: int) -> None:
    """Apply the dead-index rule: everything entering h_curr[k] is lost.

    All mass from index k provably sits in its cycle and noter slots, so
    any goal/fail slot past k, and any cycle slot sealed past k for a
    target below k, must already be zero; that is asserted, not repaired.
    """
    L = len(ledger)
    for j in range(k + 1, L + 1):
        if ledger.goal[j][0] or ledger.fail[j][0]:
            raise LedgerError("goal/fail mass recorded beyond a saturated index")
    _check_none_past(ledger, k)
    for row in ledger.loop[k:]:
        row.clear()
    for j in range(k + 2, L + 1):
        ledger.noter[j] = _P0
    ledger.noter[k + 1] = _P1


def _check_none_past(ledger: SearchLedger, k: int) -> None:
    """No row below the dead index k may hold a cycle sealed past k: that
    escape from h_curr[k] would push its explored mass above 1."""
    for row in ledger.loop[:k]:
        if any(v[0] for m, v in row.items() if m > k):
            raise LedgerError(f"cycle mass through dead index {k}")


def cumulate_alpha(ledger: SearchLedger) -> SearchLedger:
    """Fold the frontier slot into its parent and shorten h_curr by one.

    The new slot values are chosen so that ``calc_lambda`` returns the
    same values before and after the fold (on the shared indices); the
    through mass of the disappearing entry is amplified by its recorded
    cycles and charged to the parent slot.  The folded entry's row is
    popped: it can only hold columns n and L, so the cycle mass at n is
    just their sum, read from the slots; every cached bound below n stays
    as it was.
    Mutates and returns the ledger.
    """
    L = len(ledger)
    if L == 0:
        raise LedgerError("cannot fold a ledger with an empty branch")
    n = L - 1
    loop = ledger.loop
    row = loop.pop()
    lam_n = _add(row.get(n, _P0), row.get(L, _P0))
    denom = _sub(_P1, lam_n) if lam_n[0] else _P1
    if not denom[0]:
        raise LedgerError("fold hit cycle mass 1: saturation rule missed")
    # index n's cycle + noter law, checked once, as n is folded; a dead n
    # (noter filling the headroom) admits no cycle from below sealed past it
    excess = _cmp(ledger.noter[L], denom)
    if excess > 0:
        raise LedgerError(f"cycle+noter mass above 1 at index {n}")
    dead = not excess
    # with no cycle mass at n, through is ps[n] and v / denom is v
    through = _div(ledger.ps[n], denom) if lam_n[0] else ledger.ps[n]
    for slots in (ledger.goal, ledger.fail, ledger.noter):
        v = slots.pop()
        if v[0]:
            slots[n] = _add(slots[n], _mul(through, v))

    for row in loop:
        v = row.pop(L, _P0)
        if v[0]:
            if dead:
                raise LedgerError(f"cycle mass through dead index {n}")
            row[n] = _add(row.get(n, _P0), _div(v, denom) if lam_n[0] else v)

    # index n becomes the frontier: no cycle mass, and the prefix sums up
    # to it already hold the folded mass (so ``total`` is unchanged)
    del ledger.headroom[L], ledger.through[n], ledger.prefix[L], ledger.ps[n]
    ledger.headroom[n] = _P1
    for acc in (ledger.acc_goal, ledger.acc_fail, ledger.acc_noter):
        acc[n] = acc.pop()

    # h_curr[n] is the newest entry of ``pos``: ``extend`` only appends and
    # a fold only removes the last entry, so insertion order is branch order
    ledger.pos.popitem()
    return ledger
