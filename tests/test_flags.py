"""PTE flag semantics."""

from repro.mmu.flags import PageFlags, describe, flags_from_prot


class TestPageFlags:
    def test_describe_rwx(self):
        rx = PageFlags.PRESENT | PageFlags.USER
        assert describe(rx) == "r-x"
        rw = PageFlags.PRESENT | PageFlags.WRITABLE | PageFlags.NX
        assert describe(rw) == "rw-"
        assert describe(PageFlags.NONE) == "---"
        ro = PageFlags.PRESENT | PageFlags.NX
        assert describe(ro) == "r--"
        # the plain word a node's flag column holds reads the same
        assert describe(int(rw)) == "rw-"
        assert describe(0) == "---"


class TestFlagsFromProt:
    def test_prot_none_is_nonpresent(self):
        assert flags_from_prot(read=False) == PageFlags.NONE

    def test_read_only(self):
        flags = flags_from_prot(read=True)
        assert flags & PageFlags.PRESENT
        assert not flags & PageFlags.WRITABLE
        assert flags & PageFlags.NX
        assert flags & PageFlags.USER

    def test_read_write(self):
        flags = flags_from_prot(read=True, write=True)
        assert flags & PageFlags.WRITABLE and flags & PageFlags.NX

    def test_read_exec(self):
        flags = flags_from_prot(read=True, execute=True)
        assert not flags & PageFlags.NX and not flags & PageFlags.WRITABLE

    def test_kernel_page(self):
        flags = flags_from_prot(read=True, user=False)
        assert flags & PageFlags.PRESENT and not flags & PageFlags.USER

    def test_fresh_mapping_is_clean(self):
        # the attack's calibration page must start with D=0
        assert not flags_from_prot(read=True, write=True) & PageFlags.DIRTY
