"""Page-table helpers shared by the tests.

* :func:`page_table_steps` is the one generator of random page-table
  writes.  ``TestAddressSpaceAgainstModel`` (``test_property_mmu.py``)
  checks each write against a dict-of-pages model;
  ``TestDifferentialFuzz`` (``test_columnar.py``) sweeps with every
  engine between writes.  Each draws over its own address populations.
* :func:`walk_nodes` is the one traversal of a table's node tree.
"""

import numpy as np
from hypothesis import strategies as st

from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.mmu.flags import (
    KERNEL_RW,
    KERNEL_RX,
    USER_RO,
    USER_RW,
    USER_RX,
    PageFlags,
    flags_from_prot,
)

pfns = st.integers(min_value=1, max_value=1 << 20)
leaf_flags = st.sampled_from([
    USER_RX, USER_RO, USER_RW, KERNEL_RX, KERNEL_RW,
    USER_RW | PageFlags.DIRTY, KERNEL_RW | PageFlags.GLOBAL,
])
#: read-only, read-write, supervisor and PROT_NONE (drops the leaf)
protections = st.sampled_from([
    USER_RO, USER_RW, KERNEL_RX, flags_from_prot(read=False),
])
run_pages = st.integers(min_value=1, max_value=700)


def page_table_steps(vas_4k, vas_2m, targets, vas_1g=None, extra=()):
    """Steps ``(kind, *args)`` for :func:`writers`: maps and runs at
    the VAs drawn from ``vas_<size>`` (1 GiB ones only with ``vas_1g``),
    and ``unmap``/``protect``/``set_flag`` of a ``targets`` VA, then the
    ``extra`` strategies."""
    sized = [(vas_4k, PAGE_SIZE), (vas_2m, PAGE_SIZE_2M)]
    if vas_1g is not None:
        sized.append((vas_1g, PAGE_SIZE_1G))
    spans = {
        PAGE_SIZE: run_pages.map(lambda n: n * PAGE_SIZE),
        PAGE_SIZE_2M: st.integers(1, 3).map(lambda n: n * PAGE_SIZE_2M),
        PAGE_SIZE_1G: st.just(PAGE_SIZE_1G),
    }
    return st.one_of(
        *[st.tuples(st.just("map"), vas, pfns, leaf_flags, st.just(size))
          for vas, size in sized],
        st.tuples(st.just("map_run"), vas_4k, pfns, run_pages, leaf_flags),
        *[st.tuples(st.just("map_range"), vas, spans[size], leaf_flags,
                    st.just(size))
          for vas, size in sized],
        st.tuples(st.just("unmap"), targets),
        st.tuples(st.just("protect"), targets, protections),
        st.tuples(st.just("set_flag"), targets,
                  st.just(PageFlags.ACCESSED | PageFlags.DIRTY)),
        *extra,
    )


def writers(space):
    """The callable behind each step kind, on ``space``."""
    table = space.page_table
    return {
        "map": table.map, "map_run": table.map_run,
        "map_range": space.map_range, "unmap": table.unmap,
        "protect": table.protect, "set_flag": table.set_flag,
    }


def walk_nodes(table):
    """``(path, node)`` for every paging structure of ``table``, top
    down and in index order; ``path`` is the tuple of slot indices
    leading to ``node`` (empty for the root)."""

    def walk(node, path):
        yield path, node
        for index in np.flatnonzero(node.child).tolist():
            yield from walk(node.child[index], path + (index,))

    return walk(table.root, ())
