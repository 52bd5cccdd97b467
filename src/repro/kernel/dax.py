"""An ext4-DAX-like filesystem over a :class:`~repro.mem.PMEMDevice`.

File *data* lives in device blocks tracked by per-inode extent lists; file
*metadata* (inodes, directories) lives in the kernel's in-DRAM caches — as it
does on a real system — with journal-commit charges modeling its
persistence.  Two data paths exist, matching the paper's §2.2:

- **POSIX** (``read_file``/``write_file``): one syscall, then an in-kernel
  copy between the user buffer and PMEM.  The kernel's ``copy_from_iter``
  into PMEM is slightly less efficient than a userspace non-temporal
  memcpy (``KernelSpec.dax_copy_efficiency``).
- **mmap** (:class:`DaxMapping`): direct load/store.  First touch of each
  (2 MiB) page pays a minor fault; with :attr:`MapFlags.SYNC` each fault
  additionally performs a synchronous filesystem-journal commit, of which
  only ``map_sync_parallel_fraction`` can overlap across concurrently
  faulting ranks.  This is the PMCPY-A vs PMCPY-B distinction of Figs. 6–7.

Behavioral substitution note (DESIGN.md §2): we charge the MAP_SYNC commit
on *all* first-touch faults, including read faults.  Strictly, MAP_SYNC only
affects write faults, but the paper observes the penalty symmetrically in
its read experiment (Fig. 7: "PMCPY-B ... no better than ADIOS"), so the
emulation follows the observed behavior and we document the liberty taken.
The two sides charge at different granularities: *write* faults pay the
journal commit once per device page globally (block-allocation durability
belongs to the file blocks — the device tracks the committed set, so the
aggregate charge does not depend on which rank's write reaches a shared
page first and the threads/procs engines agree); *read* faults pay per
mapping first-touch, counted at cacheline granularity and scaled to page
fractions (every fresh mapping re-faults, which is what Fig. 7 measures,
and the charge follows the bytes actually read rather than which model
pages the allocator packed them into).  The *aggregate* write-side charge
is arrival-order-independent, but which rank absorbs the commit for a
shared metadata page is first-writer-wins — as on real hardware — so
high-rank-count makespans carry a few percent of attribution jitter
(scenarios that measure them declare a widened tolerance; DESIGN.md §11).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import IntFlag

import numpy as np

from ..errors import (
    BadAddressError,
    FileExistsError_,
    InvalidArgumentError,
    IsADirectoryError_,
    NoSpaceError,
    NoSuchFileError,
    NotADirectoryError_,
    NotEmptyError,
)
from ..mem.device import PMEMDevice
from ..mem.memcpy import (
    _COPY_SETUP_NS,
    charge_persist,
    charge_pmem_read,
    charge_pmem_write,
)
from ..units import CACHELINE
from .syscall import page_fault, syscall


class MapFlags(IntFlag):
    SHARED = 1
    SYNC = 2  # MAP_SYNC: synchronous metadata on fault


@dataclass
class Extent:
    """``nblocks`` blocks of file data starting at file block
    ``file_block``, stored at device block ``dev_block``."""

    file_block: int
    dev_block: int
    nblocks: int


@dataclass
class Inode:
    ino: int
    is_dir: bool
    size: int = 0
    extents: list[Extent] = field(default_factory=list)
    children: dict[str, int] = field(default_factory=dict)  # dirs only
    nlink: int = 1


def _split_path(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p not in ("", ".")]
    for p in parts:
        if p == "..":
            raise InvalidArgumentError("'..' not supported in paths")
    return parts


class DaxFS:
    """The filesystem.  All mutating metadata ops are lock-protected so
    concurrent ranks (threads) can create files/directories safely."""

    #: functional block size.  Small enough that scaled-down experiments
    #: still exercise multi-extent files.
    def __init__(self, device: PMEMDevice, *, block_size: int = 4096):
        if block_size % CACHELINE:
            raise ValueError("block size must be a cacheline multiple")
        self.device = device
        self.block_size = block_size
        self.nblocks = device.capacity // block_size
        self.lock = threading.RLock()
        self._free: list[tuple[int, int]] = [(0, self.nblocks)]  # (start, count)
        self._inodes: dict[int, Inode] = {}
        self._next_ino = 2
        self.root = Inode(ino=1, is_dir=True)
        self._inodes[1] = self.root
        #: optional observer called after every metadata mutation (the
        #: crash-journal hook; see repro.crash.journal)
        self._meta_watcher = None
        #: set by every metadata mutation; a shared-meta lock publishes and
        #: clears it on outermost release (no-op under plain threading)
        self._meta_dirty = False

    def enable_shared_meta(self, domain) -> None:
        """Swap the metadata guard for a cross-process one (procs engine).

        Inodes and the free list stay ordinary in-DRAM objects — as on a
        real kernel — but every locked section is bracketed by a
        refresh-from / publish-to a pickled snapshot in the shared heap, so
        forked rank workers see one coherent filesystem.  Idempotent; one
        filesystem per domain (the snapshot tag is fixed).
        """
        if isinstance(self.lock, _SharedMetaLock):
            return
        if self.device.crash_sim:
            raise RuntimeError("enable_shared_meta() requires crash_sim=False")
        self.lock = _SharedMetaLock(self, domain)
        self._meta_dirty = True
        with self.lock:
            pass  # publish the pre-fork metadata as the first generation

    def _meta_sync(self) -> None:
        """Entry check for lockless read paths: when metadata is shared and
        a peer process published a newer generation, take the lock once (the
        outermost acquire refreshes) before walking local structures."""
        lk = self.lock
        if isinstance(lk, _SharedMetaLock) and lk.stale():
            with lk:
                pass

    # ------------------------------------------------------------------ blocks

    def _alloc_blocks(self, n: int, *, contiguous: bool = False) -> list[tuple[int, int]]:
        """Allocate ``n`` blocks; returns (start, count) runs (first-fit)."""
        with self.lock:
            runs: list[tuple[int, int]] = []
            need = n
            if contiguous:
                for i, (start, count) in enumerate(self._free):
                    if count >= n:
                        self._free[i] = (start + n, count - n)
                        if self._free[i][1] == 0:
                            del self._free[i]
                        return [(start, n)]
                raise NoSpaceError(f"no contiguous run of {n} blocks")
            i = 0
            while need > 0 and i < len(self._free):
                start, count = self._free[i]
                take = min(count, need)
                runs.append((start, take))
                need -= take
                if take == count:
                    del self._free[i]
                else:
                    self._free[i] = (start + take, count - take)
                    i += 1
            if need > 0:
                # roll back
                for r in runs:
                    self._free_blocks([r])
                raise NoSpaceError(
                    f"filesystem full: wanted {n} blocks, short {need}"
                )
            return runs

    def _free_blocks(self, runs: list[tuple[int, int]]) -> None:
        with self.lock:
            for start, count in runs:
                self._free.append((start, count))
            self._free.sort()
            merged: list[tuple[int, int]] = []
            for start, count in self._free:
                if merged and merged[-1][0] + merged[-1][1] == start:
                    merged[-1] = (merged[-1][0], merged[-1][1] + count)
                else:
                    merged.append((start, count))
            self._free = merged

    def free_blocks_count(self) -> int:
        with self.lock:
            return sum(c for _s, c in self._free)

    # ------------------------------------------------------------------ namei

    def _namei(self, path: str) -> Inode:
        node = self.root
        for part in _split_path(path):
            if not node.is_dir:
                raise NotADirectoryError_(path)
            ino = node.children.get(part)
            if ino is None:
                raise NoSuchFileError(path)
            node = self._inodes[ino]
        return node

    def _namei_parent(self, path: str) -> tuple[Inode, str]:
        parts = _split_path(path)
        if not parts:
            raise InvalidArgumentError("empty path")
        parent = self.root
        for part in parts[:-1]:
            ino = parent.children.get(part)
            if ino is None:
                raise NoSuchFileError(path)
            parent = self._inodes[ino]
            if not parent.is_dir:
                raise NotADirectoryError_(path)
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        self._meta_sync()
        try:
            self._namei(path)
            return True
        except (NoSuchFileError, NotADirectoryError_):
            return False

    # ------------------------------------------------------------------ charging

    def _charge_meta(self, ctx, note: str) -> None:
        """An async-journaled metadata update: a small unscaled PMEM write."""
        if ctx is not None:
            charge_pmem_write(ctx, 512.0, note=note)
        self._notify_meta()

    def _notify_meta(self) -> None:
        """Tell the attached watcher (if any) that fs metadata changed.

        Also marks the metadata dirty for shared-meta publication.

        The crash journal snapshots the metadata here, modeling a
        synchronously-journaled filesystem: every committed metadata state
        is recoverable, paired with whatever device image the store buffer
        left behind."""
        self._meta_dirty = True
        if self._meta_watcher is not None:
            self._meta_watcher(self)

    # ------------------------------------------------------------------ meta snapshots

    def meta_snapshot(self) -> dict:
        """Deep copy of all volatile fs metadata (inodes, free list).

        File *data* lives on the device and is snapshot separately by the
        crash machinery; this captures everything the device image cannot
        rewind on its own."""
        import copy

        with self.lock:
            return {
                "inodes": copy.deepcopy(self._inodes),
                "free": list(self._free),
                "next_ino": self._next_ino,
            }

    def meta_restore(self, snap: dict) -> None:
        """Install a :meth:`meta_snapshot` (deep-copied, so the snapshot
        stays reusable across repeated crash-state materializations)."""
        import copy

        with self.lock:
            self._inodes = copy.deepcopy(snap["inodes"])
            self._free = list(snap["free"])
            self._next_ino = snap["next_ino"]
            self.root = self._inodes[1]

    # ------------------------------------------------------------------ dirs/files

    def mkdir(self, ctx, path: str, *, parents: bool = False) -> Inode:
        with self.lock:
            if parents:
                parts = _split_path(path)
                node = self.root
                built = ""
                for part in parts:
                    built += "/" + part
                    ino = node.children.get(part)
                    if ino is None:
                        node = self.mkdir(ctx, built)
                    else:
                        node = self._inodes[ino]
                        if not node.is_dir:
                            raise NotADirectoryError_(built)
                return node
            parent, name = self._namei_parent(path)
            if not parent.is_dir:
                raise NotADirectoryError_(path)
            if name in parent.children:
                raise FileExistsError_(path)
            inode = Inode(ino=self._next_ino, is_dir=True)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self._charge_meta(ctx, "mkdir")
            return inode

    def create(self, ctx, path: str, *, exist_ok: bool = False) -> Inode:
        with self.lock:
            parent, name = self._namei_parent(path)
            if not parent.is_dir:
                raise NotADirectoryError_(path)
            existing = parent.children.get(name)
            if existing is not None:
                node = self._inodes[existing]
                if node.is_dir:
                    raise IsADirectoryError_(path)
                if not exist_ok:
                    raise FileExistsError_(path)
                return node
            inode = Inode(ino=self._next_ino, is_dir=False)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self._charge_meta(ctx, "create")
            return inode

    def lookup(self, path: str) -> Inode:
        self._meta_sync()
        with self.lock:
            return self._namei(path)

    def listdir(self, path: str) -> list[str]:
        with self.lock:
            node = self._namei(path)
            if not node.is_dir:
                raise NotADirectoryError_(path)
            return sorted(node.children)

    def unlink(self, ctx, path: str) -> None:
        with self.lock:
            parent, name = self._namei_parent(path)
            ino = parent.children.get(name)
            if ino is None:
                raise NoSuchFileError(path)
            node = self._inodes[ino]
            if node.is_dir:
                if node.children:
                    raise NotEmptyError(path)
            else:
                self._free_blocks([(e.dev_block, e.nblocks) for e in node.extents])
            del parent.children[name]
            del self._inodes[ino]
            self._charge_meta(ctx, "unlink")

    def rename(self, ctx, old: str, new: str) -> None:
        """Atomically move a *file* over ``new`` (POSIX rename semantics:
        an existing target is replaced in the same metadata commit)."""
        with self.lock:
            src_parent, src_name = self._namei_parent(old)
            src_ino = src_parent.children.get(src_name)
            if src_ino is None:
                raise NoSuchFileError(old)
            node = self._inodes[src_ino]
            if node.is_dir:
                raise IsADirectoryError_(old)
            dst_parent, dst_name = self._namei_parent(new)
            if not dst_parent.is_dir:
                raise NotADirectoryError_(new)
            existing = dst_parent.children.get(dst_name)
            if existing is not None and existing != src_ino:
                target = self._inodes[existing]
                if target.is_dir:
                    raise IsADirectoryError_(new)
                self._free_blocks(
                    [(e.dev_block, e.nblocks) for e in target.extents]
                )
                del self._inodes[existing]
            del src_parent.children[src_name]
            dst_parent.children[dst_name] = src_ino
            self._charge_meta(ctx, "rename")

    def truncate(self, ctx, inode: Inode, size: int) -> None:
        with self.lock:
            if inode.is_dir:
                raise IsADirectoryError_("truncate")
            needed = -(-size // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed < have:
                # shrink: release whole extents from the tail
                keep: list[Extent] = []
                total = 0
                freed: list[tuple[int, int]] = []
                for e in inode.extents:
                    if total + e.nblocks <= needed:
                        keep.append(e)
                        total += e.nblocks
                    elif total >= needed:
                        freed.append((e.dev_block, e.nblocks))
                    else:
                        cut = needed - total
                        keep.append(Extent(e.file_block, e.dev_block, cut))
                        freed.append((e.dev_block + cut, e.nblocks - cut))
                        total = needed
                inode.extents = keep
                self._free_blocks(freed)
            elif needed > have:
                self._extend(inode, needed - have)
            inode.size = size
            self._charge_meta(ctx, "truncate")

    def fallocate(self, ctx, inode: Inode, size: int, *, contiguous: bool = False) -> None:
        """Preallocate blocks up to ``size`` (optionally as one extent,
        used by the PMDK pool so it can be mapped as one flat region)."""
        with self.lock:
            needed = -(-size // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed <= have:
                inode.size = max(inode.size, size)
                self._notify_meta()
                return
            if contiguous:
                if inode.extents:
                    raise InvalidArgumentError(
                        "contiguous fallocate requires an empty file"
                    )
                runs = self._alloc_blocks(needed, contiguous=True)
            else:
                runs = self._alloc_blocks(needed - have)
            base = have
            for start, count in runs:
                inode.extents.append(Extent(base, start, count))
                base += count
            inode.size = max(inode.size, size)
            self._charge_meta(ctx, "fallocate")

    def _extend(self, inode: Inode, nblocks: int) -> None:
        runs = self._alloc_blocks(nblocks)
        base = sum(e.nblocks for e in inode.extents)
        for start, count in runs:
            inode.extents.append(Extent(base, start, count))
            base += count

    # ------------------------------------------------------------------ data ranges

    def file_ranges(self, inode: Inode, offset: int, size: int) -> list[tuple[int, int]]:
        """Map a file byte range to device (offset, length) runs.

        Raises :class:`BadAddressError` if the range exceeds allocated
        extents.
        """
        if offset < 0 or size < 0:
            raise InvalidArgumentError("negative offset/size")
        self._meta_sync()
        out: list[tuple[int, int]] = []
        remaining = size
        pos = offset
        bs = self.block_size
        for e in inode.extents:
            if remaining == 0:
                break
            e_start = e.file_block * bs
            e_end = e_start + e.nblocks * bs
            if pos >= e_end or pos + remaining <= e_start:
                continue
            within = max(pos, e_start)
            take = min(e_end, pos + remaining) - within
            dev_off = e.dev_block * bs + (within - e_start)
            out.append((dev_off, take))
            if within == pos:
                pos += take
                remaining -= take
        if remaining > 0:
            raise BadAddressError(
                f"range [{offset}, {offset + size}) not fully allocated "
                f"(short {remaining} bytes)"
            )
        return out

    def _ensure_allocated(self, ctx, inode: Inode, offset: int, size: int) -> None:
        with self.lock:
            needed = -(-(offset + size) // self.block_size)
            have = sum(e.nblocks for e in inode.extents)
            if needed > have:
                self._extend(inode, needed - have)
                if offset + size > inode.size:
                    inode.size = offset + size
                self._charge_meta(ctx, "extend")
            elif offset + size > inode.size:
                inode.size = offset + size
                self._notify_meta()

    # ------------------------------------------------------------------ POSIX data path

    def write_file(
        self, ctx, inode: Inode, offset: int, data, *, model_bytes: float | None = None
    ) -> int:
        """POSIX-style write: in-kernel copy user→PMEM at slightly reduced
        per-stream efficiency, via the extent map."""
        buf = PMEMDevice._as_bytes(data)
        size = int(buf.size)
        if size == 0:
            return 0
        self._ensure_allocated(ctx, inode, offset, size)
        pos = 0
        for dev_off, length in self.file_ranges(inode, offset, size):
            self.device.store(dev_off, buf[pos : pos + length])
            self.device.persist(dev_off, length)
            pos += length
        mb = float(size) if model_bytes is None else float(model_bytes)
        spec = ctx.machine.pmem
        eff = ctx.machine.kernel.dax_copy_efficiency
        ctx.delay(spec.write_latency_ns + _COPY_SETUP_NS, note="dax-write")
        ctx.transfer("pmem_write", mb, spec.stream_write_bw * eff, note="dax-write")
        return size

    def read_file(
        self, ctx, inode: Inode, offset: int, size: int, *, model_bytes: float | None = None
    ) -> np.ndarray:
        """POSIX-style read: in-kernel copy PMEM→user."""
        size = min(size, max(inode.size - offset, 0))
        out = np.empty(size, dtype=np.uint8)
        pos = 0
        for dev_off, length in self.file_ranges(inode, offset, size):
            out[pos : pos + length] = self.device.view(dev_off, length)
            pos += length
        mb = float(size) if model_bytes is None else float(model_bytes)
        spec = ctx.machine.pmem
        eff = ctx.machine.kernel.dax_copy_efficiency
        ctx.delay(spec.read_latency_ns + _COPY_SETUP_NS, note="dax-read")
        ctx.transfer("pmem_read", mb, spec.stream_read_bw * eff, note="dax-read")
        return out

    # ------------------------------------------------------------------ mmap

    def mmap(self, ctx, inode: Inode, flags: MapFlags = MapFlags.SHARED) -> "DaxMapping":
        syscall(ctx, note="mmap")
        self._charge_meta(ctx, "mmap")
        real_page = max(CACHELINE, ctx.machine.kernel.dax_page_bytes // ctx.scale)
        return DaxMapping(
            self, inode, flags, real_page=real_page, nprocs=ctx.nprocs
        )


class DaxMapping:
    """A per-rank DAX mapping of one file: direct, zero-copy access with
    per-page fault accounting (see module docstring for the MAP_SYNC
    model)."""

    def __init__(self, fs: DaxFS, inode: Inode, flags: MapFlags, *, real_page: int, nprocs: int):
        self.fs = fs
        self.inode = inode
        self.flags = flags
        #: ``flags & MapFlags.SYNC``, taken once: an IntFlag operation is
        #: far dearer than an attribute read on the per-access fault path
        self._sync = bool(flags & MapFlags.SYNC)
        self.nprocs = nprocs
        #: one functional page corresponds to one model DAX page
        self._real_page = real_page
        self._touched: set[int] = set()
        #: cachelines first-touched by *read* faults (SYNC commit accounting
        #: is line-granular on the read side — see :meth:`_charge_faults`)
        self._touched_lines: set[int] = set()
        self.closed = False

    # -- fault accounting -------------------------------------------------------

    def _check_range(self, offset: int, size: int) -> None:
        """SIGBUS model: touching pages beyond the file's allocated extents
        faults *before* any charge.  Validated up front so a garbage size
        read out of corrupted pool metadata (e.g. a torn undo-log entry
        during recovery probing) cannot enumerate billions of model pages
        in the fault accounting."""
        if offset < 0 or size < 0:
            raise BadAddressError(
                f"bad mapping range [{offset}, +{size})"
            )
        allocated = (
            sum(e.nblocks for e in self.inode.extents) * self.fs.block_size
        )
        if offset + size > allocated:
            raise BadAddressError(
                f"mapping access [{offset}, {offset + size}) beyond "
                f"allocated {allocated} bytes (SIGBUS)"
            )

    def _fault_pages(self, offset: int, size: int) -> int:
        p0 = offset // self._real_page
        p1 = -(-(offset + size) // self._real_page)
        touched = self._touched
        before = len(touched)
        touched.update(range(p0, p1))
        return len(touched) - before

    def _charge_faults(
        self, ctx, offset: int, size: int, *, allocating: bool = False
    ) -> None:
        if size <= 0:
            return
        nfaults = self._fault_pages(offset, size)
        k = ctx.machine.kernel
        if nfaults > 0:
            page_fault(ctx, nfaults)
        if not self._sync:
            return
        if allocating:
            # Write faults: the *first writer device-wide* pays the
            # filesystem journal commit that makes a page's block
            # allocation durable — later SYNC write faults on the same
            # page, from any mapping in any process, are minor.  The
            # committed-page set lives on the device (in the shared heap
            # under the procs engine), so both engines see one global
            # set.  Which rank absorbs the commit for a *shared* metadata
            # page is arrival-order-dependent — exactly as on real
            # hardware — so high-rank-count makespans carry a few percent
            # of attribution jitter (the procs.* 48p scenarios declare a
            # widened modeled_tolerance_frac for this; DESIGN.md §11).
            ncommit = 0.0
            for dev_off, length in self.fs.file_ranges(
                self.inode, offset, size
            ):
                ncommit += self.fs.device.sync_commit(
                    dev_off, length, self._real_page
                )
        else:
            # Read faults: charged per *mapping* first-touch — the
            # documented modeling liberty (module docstring) that
            # reproduces Fig. 7's symmetric MAP_SYNC read penalty: every
            # fresh mapping re-pays the synchronous fault path even
            # though no block allocation happens.  Counted at cacheline
            # granularity and scaled to page fractions: the bytes a rank
            # first-reads are fixed by its access pattern, so the charge
            # does not depend on which model pages the allocator happened
            # to pack those bytes into (page-granular counting made the
            # total vary with cross-rank allocation interleaving).
            l0 = offset // 64
            l1 = -(-(offset + size) // 64)
            before = len(self._touched_lines)
            self._touched_lines.update(range(l0, l1))
            nnew = len(self._touched_lines) - before
            ncommit = nnew * 64.0 / self._real_page
        if ncommit <= 0:
            return
        keff = min(self.nprocs, ctx.machine.cpu.physical_cores)
        per_fault = k.map_sync_commit_ns * (
            (1.0 - k.map_sync_parallel_fraction)
            + k.map_sync_parallel_fraction / keff
        )
        ctx.delay(per_fault * ncommit, note="map-sync-commit")

    # -- data access -------------------------------------------------------------

    def _check_open(self):
        if self.closed:
            raise InvalidArgumentError("mapping has been unmapped")

    def write(self, ctx, offset: int, data, *, model_bytes: float | None = None) -> int:
        """Userspace store through the mapping: full-rate non-temporal
        copy straight to PMEM (the pMEMCPY fast path)."""
        self._check_open()
        buf = PMEMDevice._as_bytes(data)
        size = int(buf.size)
        if size == 0:
            return 0
        self.fs._ensure_allocated(ctx, self.inode, offset, size)
        self._charge_faults(ctx, offset, size, allocating=True)
        pos = 0
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            self.fs.device.store(dev_off, buf[pos : pos + length])
            pos += length
        charge_pmem_write(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-store",
        )
        return size

    def read(self, ctx, offset: int, size: int, *, model_bytes: float | None = None) -> np.ndarray:
        """Userspace load through the mapping (zero intermediate copies)."""
        self._check_open()
        self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)
        out = np.empty(size, dtype=np.uint8)
        pos = 0
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            out[pos : pos + length] = self.fs.device.view(dev_off, length)
            pos += length
        charge_pmem_read(
            ctx, float(size) if model_bytes is None else float(model_bytes),
            note="mmap-load",
        )
        return out

    def touch(self, ctx, offset: int, size: int) -> None:
        """Charge the page faults a zero-copy access to the range would take
        (used by sources that read through :meth:`view`)."""
        self._check_open()
        self._check_range(offset, size)
        self._charge_faults(ctx, offset, size)

    def view(self, offset: int, size: int) -> np.ndarray:
        """Zero-copy read-only view; requires the range to live in a single
        extent (guaranteed for contiguously fallocated files)."""
        self._check_open()
        if size == 0:
            return np.empty(0, dtype=np.uint8)
        ranges = self.fs.file_ranges(self.inode, offset, size)
        if len(ranges) != 1:
            raise InvalidArgumentError(
                "view crosses extents; use read() or fallocate contiguously"
            )
        dev_off, length = ranges[0]
        return self.fs.device.view(dev_off, length)

    def persist(self, ctx, offset: int, size: int) -> None:
        """Flush stored cachelines (CLWB loop + fence)."""
        self._check_open()
        for dev_off, length in self.fs.file_ranges(self.inode, offset, size):
            self.fs.device.persist(dev_off, length)
        charge_persist(ctx, size)

    def unmap(self, ctx) -> None:
        syscall(ctx, note="munmap")
        self.closed = True


class _SharedMetaLock:
    """Cross-process guard for :class:`DaxFS` volatile metadata.

    Replaces the filesystem's ``threading.RLock`` when rank workers are
    forked processes.  The kernel's metadata caches (inode table, free
    list) remain ordinary per-process objects; coherence comes from the
    lock protocol:

    - a shm mutex serializes every metadata section across processes;
    - the *outermost* acquire refreshes local caches from the last
      published snapshot (a pickled blob in the shared heap stamped with a
      generation word) — inodes are merged **by ino, in place**, so live
      references held by mappings and open handles stay valid;
    - the outermost release publishes a new snapshot iff the section
      dirtied metadata (``fs._meta_dirty``, set by ``_notify_meta``).

    Every publisher refreshed under the same lock first, so snapshots form
    a single linear history.  None of this is charged — on a real kernel
    these caches are shared DRAM, and the journal-commit costs are already
    modeled by ``_charge_meta``.
    """

    def __init__(self, fs: DaxFS, domain):
        from ..shm.sync import ShmMutexCore

        self._fs = fs
        self._domain = domain
        self._core = ShmMutexCore(domain, ("daxfs", "meta"), reentrant=True)
        # gen | blob off | blob cap | blob len  (raw block: metadata
        # outlives run epochs, like the files it describes)
        self._blk = domain.state_block(("daxfs", "meta-blob"), 32)
        self._local_gen = 0
        self._depth = threading.local()

    def stale(self) -> bool:
        gen = self._blk.u64(0)
        return gen != 0 and gen != self._local_gen

    def __enter__(self):
        self._core.acquire()
        d = getattr(self._depth, "n", 0) + 1
        self._depth.n = d
        if d == 1:
            self._refresh()
        return self

    def __exit__(self, *exc):
        d = self._depth.n - 1
        self._depth.n = d
        try:
            if d == 0 and self._fs._meta_dirty:
                self._publish()
                self._fs._meta_dirty = False
        finally:
            self._core.release()
        return False

    # -- snapshot plumbing ------------------------------------------------------

    def _refresh(self) -> None:
        import pickle

        gen = self._blk.u64(0)
        if gen == 0 or gen == self._local_gen:
            return
        blob = self._domain.heap.read_bytes(self._blk.u64(1), self._blk.u64(3))
        self._install(pickle.loads(blob))
        self._local_gen = gen

    def _install(self, snap: dict) -> None:
        fs = self._fs
        incoming = snap["inodes"]
        local = fs._inodes
        for ino, node in incoming.items():
            cur = local.get(ino)
            if cur is None:
                local[ino] = node
            else:
                cur.is_dir = node.is_dir
                cur.size = node.size
                cur.extents = node.extents
                cur.children = node.children
                cur.nlink = node.nlink
        for ino in [i for i in local if i not in incoming]:
            del local[ino]
        fs._free = list(snap["free"])
        fs._next_ino = snap["next_ino"]
        fs.root = local[1]

    def _publish(self) -> None:
        import pickle

        fs = self._fs
        blob = pickle.dumps(
            {
                "inodes": fs._inodes,
                "free": list(fs._free),
                "next_ino": fs._next_ino,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        heap = self._domain.heap
        off, cap = self._blk.u64(1), self._blk.u64(2)
        if len(blob) > cap:
            nb = heap.alloc(max(2 * len(blob), 4096), zero=False)
            if cap:
                heap.free(heap.block_at(off, cap))
            off, cap = nb.off, nb.size
            self._blk.set_u64(1, off)
            self._blk.set_u64(2, cap)
        heap.write_bytes(off, blob)
        self._blk.set_u64(3, len(blob))
        self._local_gen = self._blk.u64(0) + 1
        self._blk.set_u64(0, self._local_gen)
