"""The simulated Linux kernel: image mapping, modules, KPTI, procfs.

A :class:`LinuxKernel` owns one or two page tables:

* ``kernel_space``  -- the full kernel view (always complete),
* ``user_space``    -- what a user process's CR3 translates.  Without KPTI
  this *is* the kernel space (kernel pages protected only by U/S=0, the
  state P2 attacks); with KPTI it contains just the user half plus the
  trampoline pages (Section IV-D).

The kernel also models its own execution: syscalls and driver activity
touch kernel pages in supervisor mode, which is what loads their
translations into the TLB for the P4-based attacks (Sections IV-E, V-A).
"""

import numpy as np

from repro.errors import ConfigError
from repro.mmu.address import PAGE_SIZE, PAGE_SIZE_2M
from repro.mmu.flags import PageFlags
from repro.mmu.pagetable import AddressSpace
from repro.os.linux import layout
from repro.os.linux.kaslr import KASLRPolicy
from repro.os.linux.modules import default_module_set

#: Kernel flag shorthands (supervisor pages: US clear).
_KTEXT = PageFlags.PRESENT
_KDATA = (
    PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.NX
    | PageFlags.DIRTY | PageFlags.ACCESSED
)

#: Syscall handlers whose text pages the FGKASLR template attack targets.
SYSCALL_TABLE = (
    "sys_read", "sys_write", "sys_open", "sys_close", "sys_stat",
    "sys_fstat", "sys_lseek", "sys_mmap", "sys_mprotect", "sys_munmap",
    "sys_brk", "sys_ioctl", "sys_pread64", "sys_pwrite64", "sys_access",
    "sys_pipe", "sys_select", "sys_sched_yield", "sys_mremap", "sys_msync",
    "sys_dup", "sys_nanosleep", "sys_getpid", "sys_socket", "sys_connect",
    "sys_accept", "sys_sendto", "sys_recvfrom", "sys_bind", "sys_listen",
    "sys_clone", "sys_fork", "sys_execve", "sys_exit", "sys_wait4",
    "sys_kill", "sys_uname", "sys_fcntl", "sys_ftruncate", "sys_getcwd",
    "sys_chdir", "sys_rename", "sys_mkdir", "sys_rmdir", "sys_creat",
    "sys_unlink", "sys_readlink", "sys_chmod", "sys_chown", "sys_umask",
    "sys_gettimeofday", "sys_getrlimit", "sys_getuid", "sys_getgid",
    "sys_setuid", "sys_setgid", "sys_capget", "sys_sigaltstack",
    "sys_statfs", "sys_sync", "sys_mount", "sys_reboot", "sys_sethostname",
    "sys_init_module",
)


class LinuxKernel:
    """One booted kernel instance with randomized layout."""

    def __init__(
        self,
        version="5.11.0-27",
        kaslr=True,
        kpti=False,
        modules=None,
        fgkaslr=False,
        flare=False,
        policy=None,
        rng=None,
        seed=0,
        image_2m_pages=layout.KERNEL_IMAGE_2M_PAGES,
    ):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self.version = version
        self.kaslr_enabled = kaslr
        self.kpti = kpti
        self.fgkaslr = fgkaslr
        self.flare = flare
        self.image_2m_pages = image_2m_pages
        if policy is None:
            policy = KASLRPolicy(rng=rng, enabled=kaslr)
        self.policy = policy
        self.trampoline_offset = layout.KPTI_TRAMPOLINE_OFFSETS.get(
            version, layout.DEFAULT_TRAMPOLINE_OFFSET
        )

        self.kernel_space = AddressSpace()
        if kpti:
            self.user_space = AddressSpace(
                frames=self.kernel_space.frames,
                memory=self.kernel_space.memory,
            )
        else:
            self.user_space = self.kernel_space

        self.base = self.policy.kernel_base(
            image_2m_pages=image_2m_pages,
            extra_tail_bytes=max(layout.KERNEL_4K_PAGE_OFFSETS) + PAGE_SIZE,
        )
        self._map_image()
        self._place_functions()
        if kpti:
            self._map_trampoline()

        if modules is None:
            modules = default_module_set()
        self.modules = list(modules)
        self.module_map = {}
        self._load_modules()

        if flare:
            self._map_flare_dummies()

    # -- construction --------------------------------------------------------

    def _map_image(self):
        """Map the kernel image: 2 MiB text/data pages plus 4 KiB tails.

        FGKASLR is incompatible with huge text pages (functions must be
        relocatable at 4 KiB grain), so with it enabled the text half is
        mapped with 4 KiB pages -- which is also what makes the TLB
        template bypass function-granular.
        """
        text_2m = max(1, self.image_2m_pages // 2)
        for i in range(self.image_2m_pages):
            flags = _KTEXT if i < text_2m else _KDATA
            page_size = PAGE_SIZE_2M
            if self.fgkaslr and i < text_2m:
                page_size = PAGE_SIZE
            self.kernel_space.map_range(
                self.base + i * PAGE_SIZE_2M, PAGE_SIZE_2M, flags,
                page_size=page_size,
            )
        for offset in layout.KERNEL_4K_PAGE_OFFSETS:
            self.kernel_space.map_range(
                self.base + offset, PAGE_SIZE, _KDATA, page_size=PAGE_SIZE
            )

    def _place_functions(self):
        """Assign each syscall handler a text page.

        Stock KASLR places functions at constant offsets from the base
        (the attacker's assumption in Section IV-A); FGKASLR shuffles the
        assignment so the offsets are no longer constant (Section V-A).
        """
        text_bytes = max(1, self.image_2m_pages // 2) * PAGE_SIZE_2M
        pages = text_bytes // PAGE_SIZE
        slots = np.arange(16, 16 + len(SYSCALL_TABLE) * 3, 3)
        if self.fgkaslr:
            slots = self.rng.permutation(
                np.arange(16, pages - 16)
            )[: len(SYSCALL_TABLE)]
        self.functions = {
            name: self.base + int(slot) * PAGE_SIZE
            for name, slot in zip(SYSCALL_TABLE, slots)
        }
        self.entry_address = self.base + self.trampoline_offset

    def _map_trampoline(self):
        """KPTI: alias the entry trampoline pages into the user table."""
        for i in range(layout.KPTI_TRAMPOLINE_PAGES):
            va = self.base + self.trampoline_offset + i * PAGE_SIZE
            translation = self.kernel_space.translate(va)
            if translation is None:
                # entry code lives inside a 2 MiB text page; alias a
                # dedicated 4 KiB frame in the user table.
                pfn = self.kernel_space.frames.alloc()
            else:
                pfn = translation.pfn
            self.user_space.page_table.map(va, pfn, _KTEXT, PAGE_SIZE)

    def _load_modules(self):
        """Pack modules into the module window with unmapped guard gaps."""
        total_pages = sum(m.pages for m in self.modules)
        total_pages += 3 * len(self.modules)  # worst-case gaps
        cursor = self.policy.module_area_start(total_pages)
        for module in self.modules:
            text_pages = max(1, (module.pages * 3) // 5)
            self.kernel_space.map_range(cursor, text_pages * PAGE_SIZE, _KTEXT)
            data_pages = module.pages - text_pages
            if data_pages:
                self.kernel_space.map_range(
                    cursor + text_pages * PAGE_SIZE, data_pages * PAGE_SIZE,
                    _KDATA,
                )
            self.module_map[module.name] = (cursor, module.pages)
            cursor += (module.pages + self.policy.intermodule_gap_pages()) \
                * PAGE_SIZE
            if cursor >= layout.MODULE_END:
                raise ConfigError("module window overflow")

    def _map_flare_dummies(self):
        """FLARE (Section V-A): back every unmapped kernel slot with dummies.

        Dummy pages make every page-table walk succeed, defeating the
        page-table attack (P2/P3); they are never *executed*, which is why
        the TLB attack (P4) still works.
        """
        self.flare_dummy_slots = []
        image_slots = set(range(
            layout.kernel_slot_of(self.base),
            layout.kernel_slot_of(self.base) + self.image_2m_pages,
        ))
        for slot in range(layout.KERNEL_TEXT_SLOTS):
            if slot in image_slots:
                continue
            va = layout.kernel_base_of_slot(slot)
            if self.kernel_space.translate(va) is None:
                self.kernel_space.map_range(
                    va, PAGE_SIZE_2M, _KTEXT, page_size=PAGE_SIZE_2M
                )
                self.flare_dummy_slots.append(slot)
        # module window dummies (4 KiB grain): one run per gap between
        # the loaded modules, which are all the window holds so far
        va = layout.MODULE_START
        for start, pages in sorted(self.module_map.values()):
            if start > va:
                self.kernel_space.map_range(va, start - va, _KTEXT)
            va = start + pages * PAGE_SIZE
        if va < layout.MODULE_END:
            self.kernel_space.map_range(va, layout.MODULE_END - va, _KTEXT)

    def rerandomize(self):
        """Mid-run KASLR re-randomization: move the image to a fresh base.

        Models runtime re-randomization defenses (and the chaos runtime's
        worst-case disturbance): the image, its 4 KiB tails and -- under
        KPTI -- the user-visible trampoline alias are unmapped, a new base
        is drawn from the same policy RNG, and everything is remapped
        there.  Function addresses and the entry point move with it.

        Returns the new base.  No-ops (returning the current base) when
        KASLR is off or FLARE dummies pin the whole slot space -- there is
        nowhere distinguishable to move to.
        """
        if not self.kaslr_enabled or self.flare:
            return self.base
        old_base = self.base
        text_2m = max(1, self.image_2m_pages // 2)
        for i in range(self.image_2m_pages):
            page_size = PAGE_SIZE_2M
            if self.fgkaslr and i < text_2m:
                page_size = PAGE_SIZE
            self.kernel_space.unmap_range(
                old_base + i * PAGE_SIZE_2M, PAGE_SIZE_2M,
                page_size=page_size,
            )
        for offset in layout.KERNEL_4K_PAGE_OFFSETS:
            self.kernel_space.unmap_range(old_base + offset, PAGE_SIZE)
        if self.kpti:
            for i in range(layout.KPTI_TRAMPOLINE_PAGES):
                va = old_base + self.trampoline_offset + i * PAGE_SIZE
                self.user_space.page_table.unmap(va)

        self.base = self.policy.kernel_base(
            image_2m_pages=self.image_2m_pages,
            extra_tail_bytes=max(layout.KERNEL_4K_PAGE_OFFSETS) + PAGE_SIZE,
        )
        self._map_image()
        self._place_functions()
        if self.kpti:
            self._map_trampoline()
        return self.base

    # -- ground truth (root-only files) ---------------------------------------

    def kallsyms(self):
        """/proc/kallsyms: symbol -> address (root-only ground truth)."""
        symbols = {"_text": self.base, "entry_SYSCALL_64": self.entry_address}
        symbols.update(self.functions)
        return symbols

    def proc_modules(self):
        """/proc/modules lines: (name, size_bytes) -- addresses are hidden
        from unprivileged readers (kptr_restrict), exactly why the paper
        must *infer* them by size correlation."""
        return [(m.name, m.size_bytes) for m in self.modules]

    def is_kernel_text_mapped(self, va):
        """Ground truth: does ``va`` hit the real kernel image?"""
        end = self.base + self.image_2m_pages * PAGE_SIZE_2M
        if self.base <= va < end:
            return True
        return any(
            va >> 12 == (self.base + off) >> 12
            for off in layout.KERNEL_4K_PAGE_OFFSETS
        )

    # -- kernel execution (supervisor-mode activity) ---------------------------

    def syscall(self, core, name="sys_getpid"):
        """Enter the kernel: touch entry + handler pages in supervisor mode.

        This loads their translations into the TLB of ``core`` -- the side
        effect the TLB attack and the FLARE/FGKASLR bypasses measure.
        """
        touched = [self.entry_address]
        if name in self.functions:
            touched.append(self.functions[name])
        core.kernel_touch(touched, space=self.kernel_space)
        core.clock.advance(900)  # syscall entry/exit cost

    def touch_module(self, core, name, pages=10):
        """Driver activity: the kernel executes a module's first pages."""
        start, size = self.module_map[name]
        count = min(pages, size)
        vas = [start + i * PAGE_SIZE for i in range(count)]
        core.kernel_touch(vas, space=self.kernel_space)
        core.clock.advance(1200)
