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

A region whose text changed is lexed once, at its line in the file; the
fingerprint is taken from that token list and the list travels in the
:class:`LiveParseResult`, so LiveCompiler parses the region from the
same tokens instead of scanning it again.  Regions whose text did not
change are not lexed at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..hdl.lexer import behavioral_fingerprint, token_fingerprint, tokenize
from ..hdl.source_regions import (
    DIRECTIVE_REGION,
    MODULE_REGION,
    SourceRegion,
    split_regions,
)
from ..hdl.tokens import Token


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
    parse_seconds: float = 0.0
    # What the analysis worked out about the new text;
    # :meth:`LiveParser.commit` adopts it as the baseline instead of
    # splitting and lexing again.
    source: str = ""
    regions: List[SourceRegion] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    # module name -> the tokens of its region, in file coordinates, for
    # every module region whose text changed (the only ones lexed).
    tokens: Dict[str, List[Token]] = field(default_factory=dict)

    @property
    def modules_to_recompile(self) -> Set[str]:
        return self.changed_modules | self.added_modules | self.poisoned_modules


class LiveParser:
    """Stateful incremental parser over one evolving source text."""

    def __init__(self, source: str):
        self._source = source
        self._regions = split_regions(source)
        self._fingerprints = {
            region.name: token_fingerprint(
                tokenize(region.text, region.start_line)
            )
            for region in self._regions
            if region.kind == MODULE_REGION
        }
        self._region_texts = {
            r.name: r.text for r in self._regions if r.kind == MODULE_REGION
        }

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
        return set(self._fingerprints)

    def fingerprint(self, module_name: str) -> str:
        """The committed behavioural fingerprint of one module.

        Includes the *preprocessor context*: every directive above the
        module's region.  A ``\\`define`` edit therefore changes the
        fingerprint of each module below it, even though the modules'
        own text (which references the macro by name) is unchanged —
        this is what keeps the compile cache honest across directive
        edits (the paper's "much more will have to be recompiled").
        """
        import hashlib

        fp = self._fingerprints.get(module_name)
        if fp is None:
            # Module was merged into the design without a region (e.g.
            # generated programmatically): hash on demand.
            return behavioral_fingerprint(module_name)
        region = self.region_of_module(module_name)
        context = [
            r.name
            for r in self._regions
            if r.kind == DIRECTIVE_REGION
            and (region is None or r.start_line < region.start_line)
        ]
        if not context:
            return fp
        digest = hashlib.sha256(fp.encode())
        for directive in context:
            digest.update(b"\x00")
            digest.update(directive.encode())
        return digest.hexdigest()

    def region_of_module(self, name: str) -> Optional[SourceRegion]:
        for region in self._regions:
            if region.kind == MODULE_REGION and region.name == name:
                return region
        return None

    def analyze(self, new_source: str) -> LiveParseResult:
        """Compare ``new_source`` against the current text.

        Does **not** commit; call :meth:`commit` with the result once
        the downstream compile succeeded, so a failed edit can be
        retried without corrupting the baseline.
        """
        started = time.perf_counter()
        new_regions = split_regions(new_source)
        # Fast path: textually identical regions keep their fingerprint
        # (lexing is only paid for regions that actually changed).
        new_fps: Dict[str, str] = {}
        tokens: Dict[str, List[Token]] = {}
        for region in new_regions:
            if region.kind != MODULE_REGION:
                continue
            if self._region_texts.get(region.name) == region.text:
                new_fps[region.name] = self._fingerprints[region.name]
            else:
                tokens[region.name] = tokenize(region.text, region.start_line)
                new_fps[region.name] = token_fingerprint(tokens[region.name])
        old_fps = self._fingerprints

        result = LiveParseResult(
            behavioral=False,
            source=new_source,
            regions=new_regions,
            fingerprints=new_fps,
            tokens=tokens,
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
        result.parse_seconds = time.perf_counter() - started
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
        self._source = result.source
        self._regions = result.regions
        self._fingerprints = result.fingerprints
        self._region_texts = {
            r.name: r.text for r in result.regions if r.kind == MODULE_REGION
        }
