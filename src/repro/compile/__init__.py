"""Plan compilation layer: multi-query prefix sharing.

:mod:`repro.compile.sharing` factors the common leading axis/predicate
chains of a multi-query batch into a shared prefix trie evaluated once,
fanning out to per-query suffixes (on by default;
``share_prefixes=False`` opts out); the differential suite holds it
byte-identical to the unshared executor.
"""

from .sharing import (QueryChain, SharedGroup, build_shared_groups,
                      describe_sharing, extract_chain)

__all__ = [
    "QueryChain",
    "SharedGroup",
    "build_shared_groups",
    "describe_sharing",
    "extract_chain",
]
