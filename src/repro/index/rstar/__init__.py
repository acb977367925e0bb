"""R*-tree building blocks shared by the X-tree, plus the plain R*-tree.

The X-tree (Berchtold, Keim, Kriegel, VLDB 1996) is structurally an
R*-tree whose directory avoids high-overlap splits by creating
*supernodes*.  This subpackage provides the shared machinery: MBR
algebra, the R* topological split, and STR bulk loading -- and
:class:`~repro.index.rstar.tree.RStarTree`, the supernode-free R*-tree
registered as the ``"rstar"`` access method.
"""

from repro.index.rstar.mbr import MBR
from repro.index.rstar.split import SplitResult, rstar_split
from repro.index.rstar.str_load import str_partition

__all__ = [
    "MBR",
    "RStarTree",
    "SplitResult",
    "rstar_split",
    "str_partition",
]


def __getattr__(name: str):
    # RStarTree subclasses XTree, which in turn imports this package's
    # submodules; a lazy attribute avoids the circular import when
    # repro.index.xtree is loaded first.
    if name == "RStarTree":
        from repro.index.rstar.tree import RStarTree

        return RStarTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
