"""LiveParser: attribute edits to regions and detect behavioural change.

Paper §III-C: "The LiveParser identifies which stage the change in code
took place in, and confirm that actual behavior was changed, not just
comments or spacing. LiveParser then extracts those sections of the
codebase and sends only those to LiveCompiler."

The decision procedure:

1. Split old and new text into regions (modules / directives).
2. A module region whose *token-stream fingerprint* changed is a
   behavioural change in that module; comment/whitespace edits produce
   identical fingerprints and are ignored.
3. A changed/added/removed directive poisons every module whose region
   starts below the earliest affected directive line ("much more will
   have to be recompiled").

A region whose text changed is read against the committed parse of its
module (:class:`RegionParse`): every module item whose lines did not
change is reused (its fingerprint piece and its AST nodes), and only the
lines of the other items are lexed, once, and parsed from those tokens.
Regions whose text did not change are not lexed at all, and a revert is
read as any other edit: against the committed parse, lexing the lines
it changed back.  Sharing a parsed module or item between versions is
safe because nothing mutates an AST after the parse (pinned
by ``tests/test_live_compiler.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Set

from ..hdl import ast_nodes as ast
from ..hdl.errors import HDLError, LexError, ParseError
from ..hdl.lexer import (
    behavioral_fingerprint,
    fingerprint_parts,
    parts_fingerprint,
    tokenize,
)
from ..hdl.parser import ModuleItem, parse
from ..hdl.source_regions import (
    DIRECTIVE_REGION,
    MODULE_REGION,
    SourceRegion,
    split_regions,
)
from ..hdl.tokens import EOF, ITEM, Token

# Token(*fields) without the NamedTuple ``__new__`` (as the lexer does).
_item_token = partial(tuple.__new__, Token)


class RegionParse:
    """One module region's text at one start line: lexed once, for its
    fingerprint; parsed at most once, from the same tokens, which go
    once they have.

    Its AST counts lines from :attr:`line`: the region's start line, or
    for a region with a *base* (the committed ``RegionParse`` of the
    same module), the base's, so a region an edit moved keeps its
    base's coordinates, as an unchanged module that moved keeps its AST.
    Lex and parse errors come out in file coordinates.

    The parse keeps one :class:`~repro.hdl.parser.ModuleItem` per module
    header and item that owns its lines (no other item's token on its
    first or last line) and has a token after it: its lines, the line
    of that token, its fingerprint piece and its nodes.  A base's item
    whose lines, through the one of the token after it, are unchanged
    is reused as it is: its piece joins the fingerprint, its nodes the
    AST, and only the lines between reused items are lexed and parsed.
    A region containing ``/*`` keeps no items and reuses none (a
    comment can span lines), and a region without a base is lexed whole.
    Whatever the base, the fingerprint, the AST and every error are
    those of a parse without one at the same :attr:`line`: a parse that
    fails with reused items reads the region whole and fails as it does.
    """

    def __init__(self, region: SourceRegion,
                 base: Optional["RegionParse"] = None):
        self._text = text = region.text
        self.line = region.start_line if base is None else base.line
        # From this parse's coordinates to the file's.
        self._moved = region.start_line - self.line
        self.items: Optional[List[ModuleItem]] = None
        self._design: Optional[ast.Design] = None
        self._reused = False  # does the token list hold ITEM tokens?
        tokens = None
        if base is not None and base.items and "/*" not in text:
            try:
                tokens, parts = self._relex(base)
            except LexError:
                self._reused = False  # lexed whole below, as it fails
        if tokens is None:
            try:
                tokens, parts = self._lex()
            except HDLError as err:
                err.move(self._moved)
                raise
        self._tokens, self._parts = tokens, parts
        self.fingerprint = parts_fingerprint(parts)

    def _lex(self):
        tokens = tokenize(self._text, self.line)
        return tokens, fingerprint_parts(tokens)

    def _relex(self, base: "RegionParse"):
        """The tokens and fingerprint parts of the text, each of
        ``base``'s items whose lines are unchanged standing in as one
        ``ITEM`` token for its tokens, and its piece for their parts."""
        lines = self._text.split("\n")
        old = base._text.split("\n")
        # Changed line indices; from the shorter text's end on, all are.
        end = min(len(lines), len(old))
        changed = [i for i, (a, b) in enumerate(zip(lines, old)) if a != b]
        changed.append(end)
        tokens: List[Token] = []
        parts: List[str] = []
        origin, done, at = self.line, 0, 0
        for item in base.items:
            first, look = item.first - origin, item.look - origin
            if look >= end:
                break
            while changed[at] < first:
                at += 1
            if changed[at] <= look:
                continue
            if first > done:
                span = tokenize("\n".join(lines[done:first]), origin + done)
                tokens += span[:-1]
                parts += fingerprint_parts(span)
            tokens.append(_item_token((ITEM, item, item.first, 1, None, None)))
            parts.append(item.piece)
            done = item.last - origin + 1
            self._reused = True
        span = tokenize("\n".join(lines[done:]), origin + done)
        tokens += span
        parts += fingerprint_parts(span)
        return tokens, parts

    def design(self) -> ast.Design:
        """What the region parses to (raises the parse's HDLError)."""
        if self._design is None:
            try:
                self._design = self._parse()
            except HDLError as err:
                err.move(self._moved)
                raise
            self._tokens = self._parts = None
        return self._design

    def _parse(self) -> ast.Design:
        tokens = self._tokens
        found: Optional[list] = None if "/*" in self._text else []
        try:
            design = parse(self._text, tokens=tokens, items=found)
        except ParseError:
            if not self._reused:
                raise
            # An edit that breaks the module around a reused item: read
            # the region whole, and fail (or not) as that read does.
            self._tokens, self._parts = self._lex()
            self._reused = False
            return self._parse()
        if found is not None:
            self.items = self._records(found)
        return design

    def _records(self, found: list) -> List[ModuleItem]:
        """The :class:`ModuleItem` of every item of ``found`` that owns
        its lines and has a token after it; a reused one as it was."""
        tokens, parts = self._tokens, self._parts
        items: List[ModuleItem] = []
        for start, end, attr, nodes in found:
            head = tokens[start]
            if head.kind == ITEM:
                items.append(head.value)
                continue
            before = tokens[start - 1] if start else None
            last, after = tokens[end - 1], tokens[end]
            if after.kind == EOF or last.line == after.line or (
                    before is not None and head.line == (
                        before.value.last if before.kind == ITEM
                        else before.line)):
                continue
            items.append(ModuleItem(
                head.line, last.line, after.line,
                "".join(parts[start:end]), attr, tuple(nodes),
            ))
        return items


@dataclass
class LiveParseResult:
    """Outcome of one LiveParser pass over an edit."""

    behavioral: bool  # does any region change behaviour?
    changed_modules: Set[str] = field(default_factory=set)
    added_modules: Set[str] = field(default_factory=set)
    removed_modules: Set[str] = field(default_factory=set)
    directive_changed: bool = False
    directive_line: Optional[int] = None  # earliest affected directive
    poisoned_modules: Set[str] = field(default_factory=set)  # below directive
    # What the analysis worked out about the new text;
    # :meth:`LiveParser.commit` adopts it as the baseline instead of
    # splitting and lexing again.
    source: str = ""
    regions: List[SourceRegion] = field(default_factory=list)
    # module name -> its region's RegionParse, for every module region.
    parses: Dict[str, RegionParse] = field(default_factory=dict)

    @property
    def modules_to_recompile(self) -> Set[str]:
        return self.changed_modules | self.added_modules | self.poisoned_modules


class LiveParser:
    """Stateful incremental parser over one evolving source text."""

    def __init__(self, source: str):
        regions = split_regions(source)
        self._commit(source, regions, {
            region.name: RegionParse(region)
            for region in regions if region.kind == MODULE_REGION
        })

    def _commit(self, source: str, regions: List[SourceRegion],
                parses: Dict[str, RegionParse]) -> None:
        self._source = source
        self._regions = regions
        self._parses = parses
        self._module_regions = {
            r.name: r for r in regions if r.kind == MODULE_REGION
        }
        self._fingerprints: Dict[str, str] = {}

    @property
    def source(self) -> str:
        return self._source

    @property
    def regions(self) -> List[SourceRegion]:
        return list(self._regions)

    @staticmethod
    def _directive_signature(regions: List[SourceRegion]) -> List[str]:
        return [
            region.name for region in regions if region.kind == DIRECTIVE_REGION
        ]

    def module_names(self) -> Set[str]:
        return set(self._parses)

    def region_parse(self, module_name: str) -> RegionParse:
        """The committed text's :class:`RegionParse` of one module."""
        return self._parses[module_name]

    def header_line(self, module_name: str) -> Optional[int]:
        """Where module ``module_name``'s header is in the committed
        text (None for a module without a region)."""
        region = self._module_regions.get(module_name)
        return region.start_line if region is not None else None

    def fingerprint(self, module_name: str) -> str:
        """The committed behavioural fingerprint of one module.

        Includes the *preprocessor context*: every directive above the
        module's region.  A ``\\`define`` edit therefore changes the
        fingerprint of each module below it, even though the modules'
        own text (which references the macro by name) is unchanged —
        this is what keeps the compile cache honest across directive
        edits (the paper's "much more will have to be recompiled").
        Worked out once per committed text.
        """
        fp = self._fingerprints.get(module_name)
        if fp is None:
            fp = self._fingerprints[module_name] = self._fingerprint(
                module_name)
        return fp

    def _fingerprint(self, module_name: str) -> str:
        import hashlib

        entry = self._parses.get(module_name)
        if entry is None:
            # Module was merged into the design without a region (e.g.
            # generated programmatically): hash on demand.
            return behavioral_fingerprint(module_name)
        fp = entry.fingerprint
        region = self._module_regions[module_name]
        context = [
            r.name
            for r in self._regions
            if r.kind == DIRECTIVE_REGION and r.start_line < region.start_line
        ]
        if not context:
            return fp
        digest = hashlib.sha256(fp.encode())
        for directive in context:
            digest.update(b"\x00")
            digest.update(directive.encode())
        return digest.hexdigest()

    def analyze(self, new_source: str) -> LiveParseResult:
        """Compare ``new_source`` against the current text.

        Does **not** commit; call :meth:`commit` with the result once
        the downstream compile succeeded, so a failed edit can be
        retried without corrupting the baseline.
        """
        new_regions = split_regions(new_source)
        # Fast path: textually identical regions keep their RegionParse
        # (lexing is only paid for regions that actually changed).
        parses: Dict[str, RegionParse] = {}
        for region in new_regions:
            if region.kind != MODULE_REGION:
                continue
            old = self._module_regions.get(region.name)
            parses[region.name] = (
                self._parses[region.name]
                if old is not None and old.text == region.text
                else RegionParse(region, self._parses.get(region.name))
            )
        old_fps = {name: p.fingerprint for name, p in self._parses.items()}
        new_fps = {name: p.fingerprint for name, p in parses.items()}

        result = LiveParseResult(
            behavioral=False,
            source=new_source,
            regions=new_regions,
            parses=parses,
        )
        old_names = set(old_fps)
        new_names = set(new_fps)
        result.added_modules = new_names - old_names
        result.removed_modules = old_names - new_names
        result.changed_modules = {
            name
            for name in old_names & new_names
            if old_fps[name] != new_fps[name]
        }

        old_directives = self._directive_signature(self._regions)
        new_directives = self._directive_signature(new_regions)
        if old_directives != new_directives:
            result.directive_changed = True
            result.directive_line = self._earliest_directive_divergence(
                new_regions, old_directives, new_directives
            )
            # Everything below the earliest affected directive is
            # poisoned (paper: "this could affect any code below").
            line = result.directive_line or 0
            result.poisoned_modules = {
                region.name
                for region in new_regions
                if region.kind == MODULE_REGION and region.start_line >= line
            }

        result.behavioral = bool(
            result.changed_modules
            or result.added_modules
            or result.removed_modules
            or result.directive_changed
        )
        return result

    def _earliest_directive_divergence(
        self,
        new_regions: List[SourceRegion],
        old_directives: List[str],
        new_directives: List[str],
    ) -> int:
        new_directive_regions = [
            r for r in new_regions if r.kind == DIRECTIVE_REGION
        ]
        old_directive_regions = [
            r for r in self._regions if r.kind == DIRECTIVE_REGION
        ]
        for i in range(max(len(old_directives), len(new_directives))):
            old = old_directives[i] if i < len(old_directives) else None
            new = new_directives[i] if i < len(new_directives) else None
            if old != new:
                candidates = []
                if i < len(new_directive_regions):
                    candidates.append(new_directive_regions[i].start_line)
                if i < len(old_directive_regions):
                    candidates.append(old_directive_regions[i].start_line)
                return min(candidates) if candidates else 1
        return 1

    def commit(self, result: LiveParseResult) -> None:
        """Accept the text ``result`` analyzed as the new baseline."""
        self._commit(result.source, result.regions, result.parses)
