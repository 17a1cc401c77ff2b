"""Two byte budgets: every size-gated branch of the package.

A driver step or a broadcast skips the distributed shape's fixed costs
(an execution ~50 ms, a ``from_blocks`` ~2 ms: ``joins.DriverBlocks``),
as a local loop beats per-call engine costs for in-database UDFs (CIDR
2022, PAPERS.md). Each gate asks ``decide(name, nbytes)`` with its
input's bytes, read from metadata, against a budget read from its env
var at call time:

- ``FMR_DRIVER_BYTES`` (512 MiB: 16M slim key rows of ~32 B): what one
  driver step may hold — key-local kernels, union-find edges, BPE words,
  PageRank edges, a fold's pinned prior sketch;
- ``FMR_BROADCAST_BYTES`` (160 MiB: 20M 8-byte keys): what one worker
  may receive — verify texts, semi-join keys, labels, a vocabulary,
  verify vectors.

Both at 0 force the cluster shape a web-scale shard runs. Each decision
is logged at DEBUG as ``(name, nbytes, branch)``.
"""

from __future__ import annotations

import logging
import os

log = logging.getLogger(__name__)

DRIVER = "FMR_DRIVER_BYTES"
BROADCAST = "FMR_BROADCAST_BYTES"
_DEFAULT = {DRIVER: 512 << 20, BROADCAST: 160 << 20}
# (branch within the budget, branch past it)
_BRANCHES = {DRIVER: ("driver", "distributed"),
             BROADCAST: ("broadcast", "join")}
_BUDGET_OF = {
    **dict.fromkeys(("blocks", "segments", "union", "labels", "words",
                     "graph", "sketch_pin"), DRIVER),
    **dict.fromkeys(("attach", "anti", "relabel", "texts", "keys", "vocab",
                     "vectors"), BROADCAST),
}


def budget(var: str) -> int:
    """The byte budget ``var`` (``DRIVER`` or ``BROADCAST``), read now."""
    return int(os.environ.get(var, _DEFAULT[var]))


def decide(name: str, nbytes: int) -> str:
    """Gate ``name``'s branch for ``nbytes``: "driver" or "distributed"
    under the driver budget, "broadcast" or "join" under the broadcast
    budget; the first while ``nbytes`` fits the budget."""
    var = _BUDGET_OF[name]
    branch = _BRANCHES[var][nbytes > budget(var)]
    log.debug("%s %d %s", name, nbytes, branch)
    return branch
