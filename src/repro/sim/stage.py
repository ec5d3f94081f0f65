"""Stage instances: the runtime objects generated code operates on.

A :class:`StageInst` is the paper's "Stage" object (§III-B1): a block of
logic with external IO, internal registers/memories, and child stages.
Its ``code`` attribute points at a shared :class:`CompiledModule`; hot
reload replaces that pointer without touching the rest of the tree.
State enters an instance through one door, :meth:`StageInst.load`; the
rules that carry it across a design version live in
:mod:`repro.live.transform`, which this package knows nothing about.
"""

from __future__ import annotations

from itertools import chain, compress, count
from operator import is_, is_not, le
from typing import (
    Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from .. import obs
from ..codegen.module import PAGE_SHIFT, PAGE_WORDS, CompiledModule, MemSpec
from ..hdl.errors import SimulationError


class MemImage:
    """One memory's words at capture, in pages of :data:`PAGE_WORDS`.

    :meth:`capture` reuses each page of a base image whose contents
    equal the live words there, so consecutive checkpoints share every
    page the interval between them did not write: the in-process
    counterpart of the copy-on-write pages a forked checkpoint shares
    (paper §III-D).  No page is mutated after capture, and pickle
    writes a shared page once.  A reader sees a sequence of words:
    ``len``, iteration, an integer index, a slice (a new list), ``==``.
    """

    __slots__ = ("pages", "_length")

    def __init__(self, pages: Tuple[List[int], ...], length: int):
        self.pages = pages
        self._length = length

    @classmethod
    def capture(cls, words: List[int], base=None, pages=None) -> "MemImage":
        """An image of ``words``.  ``base`` (any earlier image of the
        same memory, or None) only decides which objects are reused: a
        page only when its contents are equal, the image itself when
        every page is.  ``pages``, when given, holds every page where
        ``words`` can differ from ``base``: only those are compared,
        and every other page is ``base``'s."""
        if base is not None and base._length == len(words):
            new = None
            for index in range(len(base.pages)) if pages is None else pages:
                start = index << PAGE_SHIFT
                page = words[start : start + PAGE_WORDS]
                if page != base.pages[index]:
                    if new is None:
                        new = list(base.pages)
                    new[index] = page
            return base if new is None else cls(tuple(new), len(words))
        return cls(
            tuple([
                words[start : start + PAGE_WORDS]
                for start in range(0, len(words), PAGE_WORDS)
            ]),
            len(words),
        )

    def tolist(self) -> List[int]:
        """The words as one new list (page by page, at C speed)."""
        words: List[int] = []
        for page in self.pages:
            words += page
        return words

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.pages)

    def __getitem__(self, index):
        if isinstance(index, slice):
            words = self.tolist()
            if index.indices(self._length) == (0, self._length, 1):
                return words  # the whole image: no second copy
            return words[index]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("memory image index out of range")
        return self.pages[index // PAGE_WORDS][index % PAGE_WORDS]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MemImage):
            return NotImplemented
        return self._length == other._length and all(
            a is b or a == b for a, b in zip(self.pages, other.pages)
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return MemImage, (self.pages, self._length)


def _same_items(new: tuple, old: tuple) -> bool:
    """Whether ``new`` holds ``old``'s objects, position by position."""
    return len(new) == len(old) and all(map(is_, new, old))


def _unsynced(marks, image: MemImage) -> Optional[Set[int]]:
    """The pages where a memory whose marks are ``marks`` can differ
    from ``image`` (an image of its depth): the marked pages, and the
    pages of ``image`` that are not those of the image the marks were
    synced with.  None when the marks hold no image: every page can."""
    synced = marks.image
    if synced is None:
        return None
    pages = set(marks)
    if image is not synced:
        pages.update(compress(count(), map(is_not, image.pages, synced.pages)))
    return pages


def _capture(state: list, spec: MemSpec, old: Optional[MemImage],
             tally: List[int]) -> MemImage:
    """Memory ``spec`` of ``state`` as an image against ``old`` (an
    earlier image of it, or None), its page marks synced to the result;
    ``tally[0]`` counts the pages compared: those where the words can
    differ from ``old`` (:func:`_unsynced`), or all of them."""
    words = state[spec.slot]
    if old is not None and len(old) != len(words):
        old = None
    if spec.marks_slot < 0:
        if old is not None:
            tally[0] += len(old.pages)
        return MemImage.capture(words, old)
    marks = state[spec.marks_slot]
    if old is None:
        image = MemImage.capture(words)
    else:
        todo = _unsynced(marks, old)
        tally[0] += len(old.pages) if todo is None else len(todo)
        image = MemImage.capture(words, old, todo)
    marks.sync(image)
    return image


def _fill(state: list, spec: MemSpec, words: Optional[Sequence[int]]) -> int:
    """Put ``words`` (an image, a list or None) into memory ``spec`` of
    ``state``, masked to its width, and return how many words were
    copied.  A memory keeps the words that overlap and a tail they do
    not cover reads zero.  An image of the memory's depth is copied by
    page, and only the pages where the live words can differ from it
    (:func:`_unsynced`)."""
    live = state[spec.slot]
    mask = (1 << spec.width) - 1
    marks = state[spec.marks_slot] if spec.marks_slot >= 0 else None
    if type(words) is MemImage and len(words) == spec.depth:
        pages = words.pages
        todo = None if marks is None else _unsynced(marks, words)
        masked, copied = [], 0
        for index in range(len(pages)) if todo is None else todo:
            page = pages[index]
            # Same-width words (the common case) are copied, not
            # re-masked one by one.
            if max(page) > mask:
                page = [w & mask for w in page]
                masked.append(index)
            start = index << PAGE_SHIFT
            live[start : start + len(page)] = page
            copied += len(page)
        if marks is not None:
            marks.sync(words, masked)
        return copied
    # A slice is a new flat list of an image or a list alike.
    words = (words or [])[: spec.depth]
    carried = len(words)
    if words and max(words) > mask:
        words = [w & mask for w in words]
    words += [0] * (spec.depth - carried)
    live[:] = words
    if marks is not None:
        marks.sync(None)
    return spec.depth


def _fits(snap: "StateSnapshot", code: CompiledModule) -> bool:
    """Whether ``snap`` is a record of ``code``'s module (its key,
    register names and memory names) whose values fit their widths, so
    that they load slot by slot as they are."""
    return (
        snap.key == code.key
        and snap.reg_names == code.reg_names
        and snap.mem_names == code.mem_names
        and all(map(le, snap.values, code.reg_masks))
    )


def _paired(insts: Sequence["StageInst"], snaps: Sequence["StateSnapshot"]):
    """``snaps`` in the order of ``insts``, matched by instance name
    (None for an instance no record names).  Records captured from one
    compiled module are in its instance order already, so they pair by
    position without a lookup."""
    if len(snaps) == len(insts) and all(
        snap.name == inst.name for snap, inst in zip(snaps, insts)
    ):
        return snaps
    by_name = {snap.name: snap for snap in snaps}
    return [by_name.get(inst.name) for inst in insts]


class StateSnapshot:
    """One instance subtree's state at capture: an immutable record.

    ``values`` holds the register values in slot order and
    ``reg_names`` their names, one tuple per compiled module
    (:attr:`CompiledModule.reg_names`) that every record captured from
    it shares and a store file writes once.  ``images`` holds one
    :class:`MemImage` per memory of ``mem_names`` alike, ``children``
    the children's records in the module's instance order.  Sanitizer
    shadow state (empty for clean builds): ``reg_poison`` names the
    poisoned registers, ``poison_words`` holds every memory's
    word-poison bitmap, empty when no word is poisoned.  Every field
    is a tuple or a string; an empty one is the shared ``()``.

    A record captured against a base (:meth:`StageInst.snapshot`)
    reuses every tuple, image and record of the base whose contents
    did not change, so nothing may mutate a record after capture:
    build a new one (:meth:`of`, :meth:`replace`).

    State crosses a design version by *name* (paper §III-E,
    :mod:`repro.live.transform`): :attr:`regs`, :attr:`mems` and
    :attr:`mem_poison` are name-keyed dicts built on demand.
    """

    __slots__ = (
        "key", "name", "reg_names", "values", "mem_names", "images",
        "children", "reg_poison", "poison_words",
    )

    def __init__(
        self,
        key: str,
        name: str,
        reg_names: Tuple[str, ...],
        values: Tuple[int, ...],
        mem_names: Tuple[str, ...],
        images: Tuple[Sequence[int], ...],
        children: Tuple["StateSnapshot", ...],
        reg_poison: Tuple[str, ...],
        poison_words: Tuple[int, ...],
    ):
        self.key = key
        self.name = name
        self.reg_names = reg_names
        self.values = values
        self.mem_names = mem_names
        self.images = images
        self.children = children
        self.reg_poison = reg_poison
        self.poison_words = poison_words

    @classmethod
    def of(
        cls,
        key: str,
        name: str,
        regs: Mapping[str, int],
        mems: Mapping[str, Sequence[int]],
        children: Sequence["StateSnapshot"] = (),
        reg_poison: Sequence[str] = (),
        mem_poison: Optional[Mapping[str, int]] = None,
    ) -> "StateSnapshot":
        """A record of name-keyed state (a translation's result)."""
        mem_names = tuple(mems)
        poison_words = ()
        if mem_poison and any(mem_poison.get(n, 0) for n in mem_names):
            poison_words = tuple(mem_poison.get(n, 0) for n in mem_names)
        return cls(
            key, name, tuple(regs), tuple(regs.values()), mem_names,
            tuple(mems.values()), tuple(children), tuple(reg_poison),
            poison_words,
        )

    def replace(self, **changes) -> "StateSnapshot":
        """A new record: this one with the name-keyed fields in
        ``changes`` (``regs``, ``mems``, ``children``, ``reg_poison``,
        ``mem_poison``) replaced."""
        children = tuple(changes.pop("children", self.children))
        if not changes:
            return StateSnapshot(
                self.key, self.name, self.reg_names, self.values,
                self.mem_names, self.images, children, self.reg_poison,
                self.poison_words,
            )
        fields = {
            "regs": self.regs, "mems": self.mems,
            "reg_poison": self.reg_poison, "mem_poison": self.mem_poison,
        }
        fields.update(changes)
        return StateSnapshot.of(self.key, self.name, children=children, **fields)

    # -- name-keyed views -----------------------------------------------------

    @property
    def regs(self) -> Dict[str, int]:
        """Register name -> value (a new dict)."""
        return dict(zip(self.reg_names, self.values))

    @property
    def mems(self) -> Dict[str, Sequence[int]]:
        """Memory name -> image (a new dict)."""
        return dict(zip(self.mem_names, self.images))

    @property
    def mem_poison(self) -> Dict[str, int]:
        """Memory name -> word-poison bitmap, for the poisoned ones."""
        return {
            name: bits
            for name, bits in zip(self.mem_names, self.poison_words)
            if bits
        }

    # -- sizes ----------------------------------------------------------------

    def total_bytes(self) -> int:
        """Logical payload size (8 bytes per register/memory word).

        Used by the checkpoint-overhead bench; the paper notes the
        256-core PGAS checkpoint is < 3 MB.
        """
        size = 8 * len(self.values)
        for words in self.images:
            size += 8 * len(words)
        for child in self.children:
            size += child.total_bytes()
        return size

    def resident_bytes(self, seen: Set[int]) -> int:
        """:meth:`total_bytes`, counting only the records, register
        tuples and memory pages whose ``id`` is not yet in ``seen``
        (and adding them to it)."""
        if id(self) in seen:
            return 0  # a shared record: counted with its first holder
        seen.add(id(self))
        size = 0
        if id(self.values) not in seen:
            seen.add(id(self.values))
            size += 8 * len(self.values)
        for words in self.images:
            for page in words.pages:
                if id(page) not in seen:
                    seen.add(id(page))
                    size += 8 * len(page)
        for child in self.children:
            size += child.resident_bytes(seen)
        return size

    # -- comparison -----------------------------------------------------------

    def equal_state(self, other: "StateSnapshot") -> bool:
        """Same register values and memory words by name, over the
        subtree (the consistency compare; poison is not state)."""
        if self is other:
            return True
        if self.reg_names == other.reg_names:
            if self.values != other.values:
                return False
        elif self.regs != other.regs:
            return False
        if self.mem_names == other.mem_names:
            if self.images != other.images:
                return False
        elif self.mems != other.mems:
            return False
        return len(self.children) == len(other.children) and all(
            a.name == b.name and a.equal_state(b)
            for a, b in zip(self.children, other.children)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateSnapshot):
            return NotImplemented
        return self is other or (
            self.key == other.key
            and self.name == other.name
            and self.regs == other.regs
            and self.mems == other.mems
            and self.reg_poison == other.reg_poison
            and self.mem_poison == other.mem_poison
            and self.children == other.children
        )

    __hash__ = None  # type: ignore[assignment]

    # -- pickling -------------------------------------------------------------

    def __reduce__(self):
        return StateSnapshot, (
            self.key, self.name, self.reg_names, self.values,
            self.mem_names, self.images, self.children, self.reg_poison,
            self.poison_words,
        )


class StageInst:
    """One instantiated stage: shared code + private state + children.

    ``pipe`` is the :class:`~repro.sim.pipeline.Pipe` whose tree holds
    this instance (None outside one).  No instance holds a memo: the
    pipe caches the settled outputs, so a mutation outside ``cycle``
    drops them there (:meth:`invalidate_cache`).
    """

    __slots__ = ("code", "state", "children", "name", "pipe")

    def __init__(self, code: CompiledModule, name: str = "top", pipe=None):
        self.code = code
        self.name = name
        self.pipe = pipe
        self.state = code.make_state()
        self.children: List[StageInst] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        key: str,
        library: Dict[str, CompiledModule],
        name: str = "top",
        pipe=None,
    ) -> "StageInst":
        """Instantiate the subtree rooted at specialization ``key``, in
        ``pipe``'s tree."""
        code = library.get(key)
        if code is None:
            raise SimulationError(f"no compiled module for {key!r}")
        inst = cls(code, name=name, pipe=pipe)
        for child_name, child_key in code.child_insts:
            inst.children.append(
                cls.build(child_key, library, name=child_name, pipe=pipe)
            )
        return inst

    # -- navigation -------------------------------------------------------------

    def child(self, name: str) -> "StageInst":
        for inst in self.children:
            if inst.name == name:
                return inst
        raise SimulationError(f"{self.name!r} has no child instance {name!r}")

    def find(self, path: str) -> "StageInst":
        """Resolve a dotted hierarchical path like ``u_core.u_ifu``."""
        inst = self
        if path:
            for part in path.split("."):
                inst = inst.child(part)
        return inst

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "StageInst"]]:
        path = prefix or self.name
        yield path, self
        for child in self.children:
            yield from child.walk(f"{path}.{child.name}")

    # -- state access -----------------------------------------------------------

    def peek_reg(self, name: str) -> int:
        slot = self.code.reg_slots.get(name)
        if slot is None:
            raise SimulationError(
                f"{self.code.name!r} has no register {name!r}"
            )
        return self.state[slot]

    def poke_reg(self, name: str, value: int) -> None:
        slot = self.code.reg_slots.get(name)
        if slot is None:
            raise SimulationError(
                f"{self.code.name!r} has no register {name!r}"
            )
        mask = (1 << self.code.reg_widths[name]) - 1
        self.state[slot] = value & mask
        if self.code.build.sanitize:
            self.state[self.code.layout.reg_poison_slot] &= ~(1 << slot)
        self.invalidate_cache()

    def memory(self, name: str) -> List[int]:
        """The live words of memory ``name``.  A caller may write them
        (then :meth:`invalidate_cache`), so the next capture of the
        memory compares every page."""
        spec = self.code.mem_specs.get(name)
        if spec is None:
            raise SimulationError(f"{self.code.name!r} has no memory {name!r}")
        if spec.marks_slot >= 0:
            self.state[spec.marks_slot].sync(None)
        return self.state[spec.slot]

    def registers(self) -> Dict[str, int]:
        return {name: self.state[slot] for name, slot in self.code.reg_slots.items()}

    # -- snapshot / restore -------------------------------------------------------

    def snapshot(self, base: Optional[StateSnapshot] = None) -> StateSnapshot:
        """This subtree's state now, one record per instance.

        With ``base`` (an earlier record of this subtree, of any
        version) the capture reuses what did not change: register
        values equal to the base's are its tuple, a memory whose pages
        all equal the base's image of that memory (by name) is that
        image, and a record equal to the base's in every field *is*
        the base's record, so an idle subtree costs nothing.  Children
        pair with the base's by instance name, by position whenever
        the two lists agree (always, against a base of this module).

        Each memory with page marks is compared only where its words
        can differ from the base's image: its marked pages, and the
        pages of that image which are not the image the marks were last
        synced with (none, when the base is the previous capture); it
        is then synced to its new image.  Counter
        ``checkpoint.pages_compared`` counts the pages compared.
        """
        tally = [0]
        snap = self._snapshot(base, tally)
        if tally[0]:
            obs.incr("checkpoint.pages_compared", tally[0])
        return snap

    def _snapshot(self, base: Optional[StateSnapshot], tally: List[int]) -> StateSnapshot:
        code = self.code
        state = self.state
        reg_names = code.reg_names
        mem_names = code.mem_names
        values = tuple(state[: code.num_regs])
        reg_poison = poison_words = ()
        if code.build.sanitize:
            pbits = state[code.layout.reg_poison_slot]
            if pbits:
                reg_poison = tuple([
                    name for slot, name in enumerate(reg_names)
                    if pbits >> slot & 1
                ])
            words = tuple([state[spec.poison_slot] for spec in code.mem_order])
            if any(words):
                poison_words = words
        if base is None:
            return StateSnapshot(
                code.key, self.name, reg_names, values, mem_names,
                tuple([
                    _capture(state, spec, None, tally)
                    for spec in code.mem_order
                ]),
                tuple([child._snapshot(None, tally) for child in self.children]),
                reg_poison, poison_words,
            )
        if values == base.values:
            values = base.values
        images = ()
        if mem_names:
            if base.mem_names == mem_names:
                olds = base.images
            else:
                by_name = base.mems
                olds = [by_name.get(name) for name in mem_names]
            images = tuple([
                _capture(state, spec, old, tally)
                for spec, old in zip(code.mem_order, olds)
            ])
            if _same_items(images, base.images):
                images = base.images
        children = ()
        if self.children:
            children = tuple([
                child._snapshot(old, tally)
                for child, old in zip(
                    self.children, _paired(self.children, base.children)
                )
            ])
            if _same_items(children, base.children):
                children = base.children
        if (
            values is base.values
            and images is base.images
            and children is base.children
            and base.key == code.key
            and base.name == self.name
            and base.reg_names == reg_names
            and base.mem_names == mem_names
            and base.reg_poison == reg_poison
            and base.poison_words == poison_words
        ):
            return base
        return StateSnapshot(
            code.key, self.name, reg_names, values, mem_names, images,
            children, reg_poison, poison_words,
        )

    def restore(self, snap: StateSnapshot) -> None:
        """Restore a snapshot taken from an *identical* module version;
        anything else is an error and leaves this subtree untouched.

        A snapshot from another version is first translated into this
        version's namespace (:mod:`repro.live.transform`) and then goes
        through :meth:`load`, which fits instead of requiring identity.
        """
        self._require_identical(snap)
        self.load(snap)

    def _require_identical(self, snap: StateSnapshot) -> None:
        if snap.key != self.code.key:
            raise SimulationError(
                f"snapshot is for {snap.key!r} but instance runs {self.code.key!r}"
            )
        if set(snap.reg_names) != set(self.code.reg_slots):
            raise SimulationError(
                f"snapshot register set differs for {self.code.key!r}"
            )
        mems = snap.mems
        for name, spec in self.code.mem_specs.items():
            words = mems.get(name)
            if words is None or len(words) != spec.depth:
                raise SimulationError(f"snapshot memory {name!r} mismatch")
        if len(snap.children) != len(self.children):
            raise SimulationError("snapshot child count mismatch")
        for child, child_snap in zip(self.children, snap.children):
            child._require_identical(child_snap)

    def load(self, snap: StateSnapshot) -> None:
        """Fit name-keyed state into this subtree's current layout.

        The snapshot speaks this version's names (the Table V rules in
        :mod:`repro.live.transform` put it there); what is left is
        shape.  Values are masked to the declared width; a memory keeps
        the overlapping words and a grown tail reads zero.  A register
        or memory word the snapshot does not carry is zero and, to the
        sanitizer, poisoned like the state the snapshot itself marks
        poisoned: Table V's rule for created state, whatever a
        from-reset run would hold there.  Children are matched by
        instance name (by position when the lists agree); one the
        snapshot lacks restarts at power-on.

        A record of this module (its key, register and memory names)
        whose values fit their widths is written slot by slot, its
        registers in one slice store.  A memory takes only the pages
        of its image that can differ from its words (:func:`_fill`);
        counter ``checkpoint.words_restored`` counts the words copied.
        """
        restored = self._load(snap)
        if restored:
            obs.incr("checkpoint.words_restored", restored)

    def _load(self, snap: StateSnapshot) -> int:
        code = self.code
        state = self.state
        num_regs = code.num_regs
        if _fits(snap, code):
            state[:num_regs] = snap.values
            poisoned = snap.reg_poison
            images = snap.images
        else:
            poisoned = list(snap.reg_poison)
            # The name-keyed views are built only for an instance that
            # has registers or memories to fill.
            regs = snap.regs if num_regs else {}
            for name, slot in code.reg_slots.items():
                value = regs.get(name)
                if value is None:
                    value = 0
                    poisoned.append(name)
                state[slot] = value & ((1 << code.reg_widths[name]) - 1)
            mems = snap.mems if code.mem_specs else {}
            images = [mems.get(spec.name) for spec in code.mem_order]
        restored = 0
        if code.mem_specs:
            mem_poison = snap.mem_poison
            sanitize = code.build.sanitize
            for spec, words in zip(code.mem_order, images):
                if sanitize:
                    carried = (1 << min(len(words or ()), spec.depth)) - 1
                    state[spec.poison_slot] = (
                        ((1 << spec.depth) - 1) & ~carried
                    ) | (mem_poison.get(spec.name, 0) & carried)
                restored += _fill(state, spec, words)
                del state[spec.pending_slot][:]
        if code.build.sanitize:
            pbits = 0
            for name in poisoned:
                slot = code.reg_slots.get(name)
                if slot is not None:
                    pbits |= 1 << slot
            state[code.layout.reg_poison_slot] = pbits
            state[code.layout.nw_slot].clear()
        self.invalidate_cache()
        children = self.children
        if not children:
            return restored
        for child, child_snap in zip(children, _paired(children, snap.children)):
            if child_snap is not None:
                restored += child._load(child_snap)
            else:
                child.reset_state()
        return restored

    def reset_state(self) -> None:
        """Zero all registers and memories (power-on state)."""
        self.invalidate_cache()
        for _, inst in self.walk():
            inst.state = inst.code.make_state()

    def invalidate_cache(self) -> None:
        """Drop what was settled from this subtree's state: the owning
        pipe's outputs, and the stash each instance's next ``cycle``
        reads, which the pipe's next edge settles again.

        The accessors on this class invalidate what they must by
        themselves; only callers who mutate state behind their back —
        grab a memory list via :meth:`memory` and write into it — need
        to call this (or go through :meth:`write_memory`).
        """
        if self.pipe is not None:
            self.pipe.invalidate()

    def write_memory(self, name: str, offset: int, words: List[int]) -> None:
        """Write ``words`` into memory ``name`` starting at ``offset``
        (word-indexed), dropping the pipe's settled outputs and marking
        the pages written."""
        spec = self.code.mem_specs.get(name)
        if spec is None:
            raise SimulationError(f"{self.code.name!r} has no memory {name!r}")
        target = self.state[spec.slot]
        if offset < 0 or offset + len(words) > len(target):
            raise SimulationError(
                f"write of {len(words)} words at {offset} exceeds "
                f"memory {name!r}"
            )
        mask = (1 << spec.width) - 1
        target[offset : offset + len(words)] = [w & mask for w in words]
        if spec.marks_slot >= 0 and words:
            self.state[spec.marks_slot].update(range(
                offset >> PAGE_SHIFT, ((offset + len(words) - 1) >> PAGE_SHIFT) + 1
            ))
        if self.code.build.sanitize:
            self.state[spec.poison_slot] &= ~(
                ((1 << len(words)) - 1) << offset
            )
        self.invalidate_cache()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StageInst {self.name} code={self.code.key}>"
