"""Instance-size guards.

Exact game solving is exponential, so every entry point that can blow up
checks a size precondition first and raises GuardExceededError instead of
hanging.  Guards measure instance size (vertex counts, assignment-space
and table-space products), never wall time, so outcomes stay
deterministic.

Defaults can be overridden by the environment variable HATCHECK_GUARDS,
a comma-separated list of integers in the order

    assignment,table,enumeration,circumference,tree_size

Empty fields keep their defaults, e.g. ``HATCHECK_GUARDS=",,,24"`` only
raises the circumference vertex limit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import GuardExceededError

_ENV_VAR = "HATCHECK_GUARDS"
_FIELD_ORDER = ("assignment", "table", "enumeration", "circumference", "tree_size")


@dataclass(frozen=True)
class Guards:
    """Size limits for the exponential kernels.

    assignment: max product of color budgets a solver call may enumerate.
    table: max total number of strategy table entries in a solver call.
    enumeration: max product enumerated by assignment/coloring generators.
        Items, not time: at about 1.1 us per sampled entry the
        independent-set peel's defeat at the 10^7 default takes about 11 s
        on a 2-core x86 host (see the README).
    circumference: max vertex count for exact longest-cycle search.
    tree_size: max node count of a complete t-ary tree in embedding search.
    """

    assignment: int = 10**6
    table: int = 10**5
    enumeration: int = 10**7
    circumference: int = 20
    tree_size: int = 20

    def check(self, guard: str, needed) -> None:
        limit = getattr(self, guard)
        if needed > limit:
            raise GuardExceededError(guard, needed, limit)


def guards_from_env() -> Guards:
    """Build a Guards value, applying HATCHECK_GUARDS overrides if set."""
    raw = os.environ.get(_ENV_VAR)
    if not raw:
        return Guards()
    values = {}
    parts = raw.split(",")
    if len(parts) > len(_FIELD_ORDER):
        raise ValueError(f"{_ENV_VAR} has {len(parts)} fields, expected <= {len(_FIELD_ORDER)}")
    for name, part in zip(_FIELD_ORDER, parts):
        part = part.strip()
        if not part:
            continue
        values[name] = int(part)
    return Guards(**values)


DEFAULT_GUARDS = Guards()
