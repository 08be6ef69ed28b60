"""Golden digests of booted machine layouts.

Each cell boots one machine and hashes everything page-table
construction decides: the sorted ``(va, pfn, flags, size)`` leaves of the
kernel and user tables, the paging-structure tree shape with node ids
taken relative to each table's root (the walker and the paging-structure
cache key on node ids), the frame allocator's state, the module map and
the FLARE dummy slots.  The digests were recorded when every mapping was
still installed one 4 KiB page at a time, so a faster construction path
must reproduce that layout exactly.
"""

import hashlib
import json

import pytest

from repro.cpu.models import CPU_CATALOG
from repro.machine import Machine

from tests.pagetables import walk_nodes


def _table_record(table):
    root_id = table.root.node_id
    leaves = sorted(
        (va, leaf.pfn, int(leaf.flags), size)
        for va, leaf, size in table.iter_terminal()
    )
    shape = [(path, node.level, node.node_id - root_id)
             for path, node in walk_nodes(table)]
    return {"leaves": leaves, "shape": shape}


def _layout_digest(machine):
    kernel = machine.kernel
    kernel_space = kernel.kernel_space
    user_space = kernel.user_space
    frames = kernel_space.frames
    document = {
        "kernel": _table_record(kernel_space.page_table),
        "user": (None if user_space is kernel_space
                 else _table_record(user_space.page_table)),
        "process_space_is_user": (machine.process is None
                                  or machine.process.space is user_space),
        "shared_frames": user_space.frames is frames,
        "allocated_count": frames.allocated_count,
        "module_map": sorted(getattr(kernel, "module_map", {}).items()),
        "flare_dummy_slots": getattr(kernel, "flare_dummy_slots", None),
    }
    # the next PFN handed out; taken last because it allocates
    document["next_pfn"] = frames.alloc()
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()


def _boot(kind, cpu, seed):
    if kind == "windows":
        return Machine.windows(cpu=cpu, seed=seed)
    options = {
        "default": {},
        "kpti": {"kpti": True},
        "fgkaslr": {"fgkaslr": True},
        "flare": {"flare": True},
    }[kind]
    return Machine.linux(cpu=cpu, seed=seed, **options)


#: (kind, cpu, seed) -> layout digest
GOLDEN = {
    "default/i7-1065G7/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/i7-1065G7/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/i9-9900/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/i9-9900/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/i5-12400F/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/i5-12400F/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/i7-6600U/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "default/i7-6600U/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "default/ryzen5-5600X/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/ryzen5-5600X/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/xeon-e5-2676/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "default/xeon-e5-2676/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "default/xeon-cascade-lake/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/xeon-cascade-lake/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/xeon-8171m/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "default/xeon-8171m/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "default/ryzen7-3700X/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/ryzen7-3700X/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/ryzen5-2600/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/ryzen5-2600/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/i7-1185G7/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/i7-1185G7/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "default/i5-10400/3":
        "f5f9957d7a9e684c739f595821345b485e9bc5fdfeaad5666449fb6ce47dbfb4",
    "default/i5-10400/11":
        "86635cc5ed8e07031d80a0ba9ac7c438f26a86a74a4ff0aeb6b0cf9d65eb4da2",
    "kpti/i7-1065G7/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i7-1065G7/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/i9-9900/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i9-9900/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/i5-12400F/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i5-12400F/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/i7-6600U/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i7-6600U/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/ryzen5-5600X/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/ryzen5-5600X/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/xeon-e5-2676/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/xeon-e5-2676/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/xeon-cascade-lake/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/xeon-cascade-lake/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/xeon-8171m/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/xeon-8171m/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/ryzen7-3700X/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/ryzen7-3700X/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/ryzen5-2600/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/ryzen5-2600/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/i7-1185G7/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i7-1185G7/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "kpti/i5-10400/3":
        "04e71e584e7da9db1d7a2a65a8ae9803ba667804686beeafb64a9d938c5a452a",
    "kpti/i5-10400/11":
        "ab5d05e9a03508a164a0b3d8a12b37dc54603dbceda59034ffeddc1942ffface",
    "fgkaslr/i5-12400F/5":
        "148f870e5c2dbcf75f25252a857e90add6294dcf0e1ce9c8a7fe45e25d27d76f",
    "fgkaslr/ryzen5-5600X/5":
        "148f870e5c2dbcf75f25252a857e90add6294dcf0e1ce9c8a7fe45e25d27d76f",
    "fgkaslr/xeon-8171m/5":
        "b8ef43e71887493dcfb288e75fb1067baf8232b9bfcedff3f985d139880d896b",
    "flare/i5-12400F/5":
        "9caaa90d69f3a6b9cde37d586e8b469391acdf1a9410b70699a545deed726e62",
    "flare/i7-6600U/5":
        "e4897664809cda7a2238df9f471068ec12e7c3848af3f879918a6332d25c348d",
    "flare/ryzen7-3700X/5":
        "9caaa90d69f3a6b9cde37d586e8b469391acdf1a9410b70699a545deed726e62",
    "windows/i5-12400F/2":
        "8fbfac64b211b9d13bc1a1d84e8b575a49222825224cc97897b84acceef9983a",
    "windows/xeon-e5-2676/2":
        "732ac22c1644e1dba020882d128940e6fbb40e8d6f1c29468672868f63449143",
    "windows/i7-1065G7/9":
        "5e28ae8a66d31c1970720f4b5999e190304e57f63c8ab0042a1561a21d44bad5",
}

_CELLS = (
    [(kind, cpu, seed) for kind in ("default", "kpti")
     for cpu in CPU_CATALOG for seed in (3, 11)]
    + [("fgkaslr", cpu, 5)
       for cpu in ("i5-12400F", "ryzen5-5600X", "xeon-8171m")]
    + [("flare", cpu, 5)
       for cpu in ("i5-12400F", "i7-6600U", "ryzen7-3700X")]
    + [("windows", cpu, seed)
       for cpu, seed in (("i5-12400F", 2), ("xeon-e5-2676", 2),
                         ("i7-1065G7", 9))]
)


def test_every_cpu_model_is_covered():
    assert {cpu for kind, cpu, __ in _CELLS if kind == "default"} \
        == set(CPU_CATALOG)


@pytest.mark.parametrize("kind,cpu,seed", _CELLS)
def test_layout_digest(kind, cpu, seed):
    assert _layout_digest(_boot(kind, cpu, seed)) \
        == GOLDEN["{}/{}/{}".format(kind, cpu, seed)]
