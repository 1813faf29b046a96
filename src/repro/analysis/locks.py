"""The declared lock hierarchy: one rank table for static and runtime checks.

Every lock in the concurrent core is created through
:func:`repro.analysis.runtime.make_lock` under a *name* listed here.  The
rank is the lock's position in the acquisition hierarchy: a thread may only
acquire a lock whose rank is **strictly greater** than the rank of every
lock it already holds (re-entrant re-acquisition of the same lock excepted).
Lower rank therefore means "acquired earlier / held outermost".

This table is the single source of truth shared by

* the **static analyzer** (:mod:`repro.analysis.rules`, rule ``REPRO001``),
  which checks every lexical/call-graph acquisition edge against it, and
* the **runtime sanitizer** (:mod:`repro.analysis.runtime`), which asserts
  the same ordering at every ``acquire()`` when ``REPRO_LOCK_SANITIZER=1``.

Changing an ordering constraint means editing exactly one line here — both
checkers pick it up.  Adding a lock to the core without registering it is
itself a ``REPRO001`` finding (undeclared lock).

The hierarchy, outermost first:

======================  ====  =====================================================
name                    rank  guards
======================  ====  =====================================================
``gc``                     0  a cache's shared GC state (one commit/round at a time)
``scheduler.worker``      10  background worker lifecycle + submit/close exclusion
``store.cache``           20  the cache store facade's compound reads/mutations
``store.window``          21  the window store facade's compound reads/mutations
``index.write``           25  GCindex writers (standby-copy mutation + publish)
``stats``                 35  the statistics rows and the victim selection over them
``backend``               40  one storage backend's record container
``journal``               45  plan-journal append (count + write-through)
``scheduler.state``       46  scheduler reports/counters
``replication.state``     47  replica-set ship/apply counters (journal subscribers)
``replication.reader``    48  replica-set read fan-out (round-robin cursor)
``index.readers``         50  published-buffer pointer + per-buffer reader counts
``serial``                61  the cache's serial counter
``memo``                  70  one :class:`~repro.memo.BoundedMemo`'s writes (a leaf)
``matcher.fallback``      75  lazy construction of the shared fallback matcher
``label.intern``          80  the process-wide label intern table
======================  ====  =====================================================
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = ["GC_LOCK_NAME", "LOCK_RANKS", "rank_of"]

#: Name → rank.  Strictly increasing ranks along every legal acquisition path.
LOCK_RANKS: Dict[str, int] = {
    "gc": 0,
    "scheduler.worker": 10,
    "store.cache": 20,
    "store.window": 21,
    "index.write": 25,
    "stats": 35,
    "backend": 40,
    "journal": 45,
    "scheduler.state": 46,
    "replication.state": 47,
    "replication.reader": 48,
    "index.readers": 50,
    "serial": 61,
    "memo": 70,
    "matcher.fallback": 75,
    "label.intern": 80,
}

#: The name of the cache-level GC lock (rule ``REPRO002`` keys on it).
GC_LOCK_NAME = "gc"


def rank_of(name: str) -> Optional[int]:
    """The declared rank of a lock name, or ``None`` for ad-hoc locks."""
    return LOCK_RANKS.get(name)
