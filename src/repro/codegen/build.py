"""The build flavour and the compiled-module address.

:class:`BuildConfig` names *how* a design is compiled; :class:`ModuleKey`
decides *when a compiled module is reusable*.  The in-memory compile
cache keys on the ``ModuleKey`` itself, the artifact store on its
``digest`` and ``linecache`` on its ``filename`` — nothing else derives
any of the three.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Tuple

from .optplan import OPT_LEVELS

MUX_STYLES = ("branch", "select")

# Folded into every digest, so bumping it (whenever the pickled payload
# or the CompiledModule field set changes) turns an old store directory
# into a cold cache: its artifacts are never addressed again.
STORE_FORMAT = "repro.store/v5"


@dataclass(frozen=True)
class BuildConfig:
    """One design point of the code generator.

    ``san_elide`` only matters under ``sanitize``: proof-driven check
    elision and the inline fast paths (:mod:`repro.sanitize.elide`).
    """

    mux_style: str = "branch"
    sanitize: bool = False
    opt: str = "none"
    san_elide: bool = True

    def __post_init__(self) -> None:
        if self.opt not in OPT_LEVELS:
            raise ValueError(
                f"unknown opt level {self.opt!r} (know {OPT_LEVELS})"
            )
        if self.mux_style not in MUX_STYLES:
            raise ValueError(
                f"unknown mux_style {self.mux_style!r} (know {MUX_STYLES})"
            )


@dataclass(frozen=True)
class ModuleKey:
    """The exact conditions under which a compiled module is reusable.

    ``fingerprint`` is the module's own token fingerprint, ``child_fps``
    its children's interface fingerprints (tagged ``+pure`` where the
    parent's code skips a pure subtree) and ``facts_fp`` the digest of
    the dataflow facts its code was specialised on ("" when dataflow is
    gated off).
    """

    spec: str
    fingerprint: str = ""
    child_fps: Tuple[str, ...] = ()
    facts_fp: str = ""
    build: BuildConfig = BuildConfig()

    @cached_property
    def digest(self) -> str:
        canonical = json.dumps([
            STORE_FORMAT, self.spec, self.fingerprint, self.child_fps,
            self.facts_fp, astuple(self.build),
        ])
        return hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def filename(self) -> str:
        """The ``linecache`` name of this module's generated source."""
        return f"<lhdl:{self.spec}@{self.digest[:16]}>"
