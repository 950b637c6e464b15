"""The compute-server (CS) client of the Sherman-style tree.

All tree operations are one-sided:

* traversal = RDMA Reads of 1 KB nodes (internal nodes are cached
  client-side, Sherman's index cache, with fence-key fallback);
* node locks = CAS on the node's lock word;
* space allocation = FAA on the superblock cursor;
* root installation = CAS on the superblock root pointer;
* point updates = a single 64 B RDMA Write of one leaf entry — the
  access pattern the Section VI-B attacker snoops on.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.sherman.layout import (
    HEADER_SIZE,
    INTERNAL_CAPACITY,
    KEY_MAX,
    LEAF_CAPACITY,
    LEAF_ENTRY_SIZE,
    NODE_SIZE,
    InternalNode,
    LeafEntry,
    LeafNode,
    NodeHeader,
)
from repro.apps.sherman.server import (
    ALLOC_CURSOR_OFFSET,
    ROOT_ADDR_OFFSET,
    ShermanMemoryServer,
)
from repro.host.cluster import RDMAConnection

MAX_LOCK_RETRIES = 64
LOCK_BACKOFF_NS = 2000.0


class TreeError(RuntimeError):
    """Unrecoverable tree-protocol failure."""


class ShermanClient:
    """One CS process operating on the shared tree."""

    def __init__(self, conn: RDMAConnection, server: ShermanMemoryServer,
                 client_id: int = 1) -> None:
        if client_id <= 0:
            raise ValueError("client_id must be positive (0 means unlocked)")
        self.conn = conn
        self.server = server
        self.client_id = client_id
        self.cache: dict[int, InternalNode] = {}
        #: op counters (Grain-III observable, and handy in tests)
        self.reads = 0
        self.writes = 0
        self.casses = 0

    # ------------------------------------------------------------------
    # One-sided primitives
    # ------------------------------------------------------------------
    def _read(self, offset: int, size: int) -> bytes:
        self.conn.post_read(self.server.mr, offset, size)
        wc = self.conn.await_completions(1)[0]
        if not wc.ok:
            raise TreeError(f"read @{offset} failed: {wc.status}")
        self.reads += 1
        return self.conn.client.memory.read(self.conn.local_mr.addr, size)

    def _write(self, offset: int, data: bytes) -> None:
        self.conn.client.memory.write(self.conn.local_mr.addr, data)
        self.conn.post_write(self.server.mr, offset, len(data))
        wc = self.conn.await_completions(1)[0]
        if not wc.ok:
            raise TreeError(f"write @{offset} failed: {wc.status}")
        self.writes += 1

    def _cas(self, offset: int, compare: int, swap: int) -> int:
        self.conn.post_atomic(self.server.mr, offset, compare=compare, swap=swap)
        wc = self.conn.await_completions(1)[0]
        if not wc.ok:
            raise TreeError(f"CAS @{offset} failed: {wc.status}")
        self.casses += 1
        return self.conn.client.memory.read_u64(self.conn.local_mr.addr)

    def _faa(self, offset: int, add: int) -> int:
        self.conn.post_atomic(self.server.mr, offset, fetch_add=add)
        wc = self.conn.await_completions(1)[0]
        if not wc.ok:
            raise TreeError(f"FAA @{offset} failed: {wc.status}")
        self.casses += 1
        return self.conn.client.memory.read_u64(self.conn.local_mr.addr)

    # ------------------------------------------------------------------
    # Tree plumbing
    # ------------------------------------------------------------------
    def _root(self) -> int:
        return int.from_bytes(self._read(ROOT_ADDR_OFFSET, 8), "little")

    def _alloc_node(self) -> int:
        offset = self._faa(ALLOC_CURSOR_OFFSET, NODE_SIZE)
        if offset + NODE_SIZE > self.server.mr.length:
            raise TreeError("memory server region exhausted")
        return offset

    def _load_header(self, offset: int) -> NodeHeader:
        return NodeHeader.unpack(self._read(offset, HEADER_SIZE))

    def _load_raw(self, offset: int) -> bytes:
        return self._read(offset, NODE_SIZE)

    def _lock(self, offset: int) -> None:
        for _ in range(MAX_LOCK_RETRIES):
            old = self._cas(offset, 0, self.client_id)
            if old == 0:
                return
            self.conn.cluster.run_for(LOCK_BACKOFF_NS)
        raise TreeError(f"could not lock node @{offset}")

    def _write_unlocked(self, offset: int, packed: bytes) -> None:
        """Write a full node image with its lock word cleared."""
        header = NodeHeader.unpack(packed)
        header.lock = 0
        header.version += 1
        self._write(offset, header.pack() + packed[HEADER_SIZE:])

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def _descend(self, key: int, use_cache: bool = True) -> tuple[int, list[int]]:
        """Walk to the leaf owning ``key``; returns (leaf_offset, path of
        internal offsets, root first)."""
        offset = self._root()
        path: list[int] = []
        for _ in range(64):  # tree depth bound
            node = self.cache.get(offset) if use_cache else None
            if node is not None:
                header = node.header
            else:
                raw = self._load_raw(offset)
                header = NodeHeader.unpack(raw)
                if not header.is_leaf:
                    node = InternalNode.unpack(raw)
                    self.cache[offset] = node
            if header.is_leaf:
                if header.covers(key):
                    return offset, path
                # stale route: chase the right sibling chain, else retry
                if key >= header.high_key and header.right_sibling:
                    offset = header.right_sibling
                    continue
                if use_cache:
                    self.cache.clear()
                    return self._descend(key, use_cache=False)
                raise TreeError(f"misrouted to leaf @{offset} for key {key}")
            path.append(offset)
            offset = node.route(key)
        raise TreeError("tree deeper than the traversal bound")

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------
    def search(self, key: int) -> Optional[bytes]:
        """Point lookup; None if absent."""
        leaf_offset, _ = self._descend(key)
        leaf = LeafNode.unpack(self._load_raw(leaf_offset))
        entry = leaf.find(key)
        return entry.value if entry is not None else None

    def insert(self, key: int, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        if not 0 < key < KEY_MAX:
            raise ValueError(f"key {key} out of the usable range")
        leaf_offset, path = self._descend(key)
        self._lock(leaf_offset)
        leaf = LeafNode.unpack(self._load_raw(leaf_offset))
        if not leaf.header.covers(key):
            # split raced us between descend and lock: release and retry
            self._write_unlocked(leaf_offset, leaf.pack())
            self.cache.clear()
            self.insert(key, value)
            return
        existing = leaf.find(key)
        if existing is not None:
            existing.value = value
            existing.version += 1
            self._write_unlocked(leaf_offset, leaf.pack())
            return
        if len(leaf.entries) < LEAF_CAPACITY:
            leaf.entries.append(LeafEntry(key=key, value=value))
            leaf.entries.sort(key=lambda e: e.key)
            self._write_unlocked(leaf_offset, leaf.pack())
            return
        self._split_leaf(leaf_offset, leaf, path, key, value)

    def _split_leaf(self, leaf_offset: int, leaf: LeafNode,
                    path: list[int], key: int, value: bytes) -> None:
        """Split a full, locked leaf and insert (key, value)."""
        entries = sorted(leaf.entries + [LeafEntry(key=key, value=value)],
                         key=lambda e: e.key)
        mid = len(entries) // 2
        separator = entries[mid].key
        right_offset = self._alloc_node()
        right = LeafNode(
            header=NodeHeader(
                level=0,
                low_key=separator,
                high_key=leaf.header.high_key,
                right_sibling=leaf.header.right_sibling,
            ),
            entries=entries[mid:],
        )
        # write the new right node before linking it in
        self._write(right_offset, right.pack())
        left = LeafNode(
            header=NodeHeader(
                level=0,
                low_key=leaf.header.low_key,
                high_key=separator,
                right_sibling=right_offset,
                version=leaf.header.version,
            ),
            entries=entries[:mid],
        )
        self._write_unlocked(leaf_offset, left.pack())
        self._insert_separator(path, separator, right_offset, level=1)

    def _insert_separator(self, path: list[int], separator: int,
                          child_offset: int, level: int) -> None:
        """Install a separator in the parent, splitting upward as needed."""
        if not path:
            self._grow_root(separator, child_offset, level)
            return
        parent_offset = path[-1]
        self._lock(parent_offset)
        parent = InternalNode.unpack(self._load_raw(parent_offset))
        if not parent.header.covers(separator):
            # parent itself split under us; restart from the root
            self._write_unlocked(parent_offset, parent.pack())
            self.cache.clear()
            new_path = self._find_internal_path(separator, level)
            self._insert_separator(new_path, separator, child_offset, level)
            return
        position = 0
        while position < len(parent.keys) and parent.keys[position] < separator:
            position += 1
        # keys[i] pairs with children[i] (child owns [keys[i], keys[i+1]));
        # inserting (separator, new child) at the first key >= separator
        # keeps every pair correct: the left sibling's range shrinks to
        # [its key, separator) and the new child owns [separator, next).
        parent.keys.insert(position, separator)
        parent.children.insert(position, child_offset)
        self.cache.pop(parent_offset, None)
        if len(parent.keys) <= INTERNAL_CAPACITY:
            self._write_unlocked(parent_offset, parent.pack())
            return
        self._split_internal(parent_offset, parent, path[:-1])

    def _split_internal(self, offset: int, node: InternalNode,
                        path: list[int]) -> None:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right_offset = self._alloc_node()
        right = InternalNode(
            header=NodeHeader(
                level=node.header.level,
                low_key=separator,
                high_key=node.header.high_key,
            ),
            keys=node.keys[mid:],
            children=node.children[mid:],
        )
        self._write(right_offset, right.pack())
        left = InternalNode(
            header=NodeHeader(
                level=node.header.level,
                low_key=node.header.low_key,
                high_key=separator,
                version=node.header.version,
            ),
            keys=node.keys[:mid],
            children=node.children[:mid],
        )
        self._write_unlocked(offset, left.pack())
        self.cache.pop(offset, None)
        self._insert_separator(path, separator, right_offset,
                               level=node.header.level + 1)

    def _grow_root(self, separator: int, right_child: int, level: int) -> None:
        """Install a new root above the current one (root split)."""
        for _ in range(MAX_LOCK_RETRIES):
            old_root = self._root()
            old_header = self._load_header(old_root)
            new_root_offset = self._alloc_node()
            # ``level`` is the level the separator belongs to, i.e. one
            # above the split node — exactly the new root's level (the
            # max() guards a raced root replacement by a taller tree)
            new_root = InternalNode(
                header=NodeHeader(level=max(level, old_header.level + 1)),
                keys=[old_header.low_key, separator],
                children=[old_root, right_child],
            )
            self._write(new_root_offset, new_root.pack())
            if self._cas(ROOT_ADDR_OFFSET, old_root, new_root_offset) == old_root:
                self.cache.clear()
                return
            self.conn.cluster.run_for(LOCK_BACKOFF_NS)
        raise TreeError("could not install a new root")

    def _find_internal_path(self, key: int, target_level: int) -> list[int]:
        """Path of internal nodes from the root down to (excluding)
        ``target_level`` — used to restart separator insertion."""
        offset = self._root()
        path = []
        for _ in range(64):
            raw = self._load_raw(offset)
            header = NodeHeader.unpack(raw)
            if header.level <= target_level:
                return path
            node = InternalNode.unpack(raw)
            path.append(offset)
            offset = node.route(key)
        raise TreeError("internal path search exceeded depth bound")

    def update(self, key: int, value: bytes) -> bool:
        """In-place entry update: ONE 64 B RDMA Write (plus lock) to the
        entry's slot — the disaggregated-memory file-access pattern the
        snooping attack targets.  Returns False if the key is absent."""
        leaf_offset, _ = self._descend(key)
        self._lock(leaf_offset)
        leaf = LeafNode.unpack(self._load_raw(leaf_offset))
        index = next((i for i, e in enumerate(leaf.entries) if e.key == key), None)
        if index is None:
            self._write_unlocked(leaf_offset, leaf.pack())
            return False
        entry = leaf.entries[index]
        entry.value = value
        entry.version += 1
        self._write(leaf_offset + LeafNode.entry_offset(index), entry.pack())
        # release the lock (header-only write)
        leaf.header.lock = 0
        leaf.header.version += 1
        self._write(leaf_offset, leaf.header.pack())
        return True

    # ------------------------------------------------------------------
    # Victim-side helpers for the snooping experiment
    # ------------------------------------------------------------------
    def locate_entry(self, key: int) -> tuple[int, int]:
        """(node offset, entry byte offset within the node) of ``key`` —
        the address the attacker will try to recover."""
        leaf_offset, _ = self._descend(key)
        leaf = LeafNode.unpack(self._load_raw(leaf_offset))
        for index, entry in enumerate(leaf.entries):
            if entry.key == key:
                return leaf_offset, LeafNode.entry_offset(index)
        raise KeyError(f"key {key} not present")

    def read_entry_at(self, node_offset: int, entry_offset: int) -> LeafEntry:
        """The victim's hot-path access: one 64 B RDMA Read of a fixed
        slot in the shared region."""
        raw = self._read(node_offset + entry_offset, LEAF_ENTRY_SIZE)
        return LeafEntry.unpack(raw)
