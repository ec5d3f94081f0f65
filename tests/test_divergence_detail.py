"""Divergence descriptions (§III-F "useful for debugging").

The description must localize *any* structural difference between the
replayed and the stored state — including registers/memories that only
one side has and child-count mismatches, which used to fall through to
an unhelpful "states differ".
"""

from repro.live.consistency import _describe_divergence
from repro.sim.stage import StateSnapshot


def snap(name="top", regs=None, mems=None, children=None):
    return StateSnapshot.of(
        key=name,
        name=name,
        regs=dict(regs or {}),
        mems={k: list(v) for k, v in (mems or {}).items()},
        children=list(children or []),
    )


class TestRegisters:
    def test_value_mismatch(self):
        detail = _describe_divergence(
            snap(regs={"pc": 8}), snap(regs={"pc": 4})
        )
        assert detail == "top.pc: replayed=8 stored=4"

    def test_register_only_in_replayed(self):
        detail = _describe_divergence(
            snap(regs={"pc": 8, "extra_q": 1}), snap(regs={"pc": 8})
        )
        assert "extra_q" in detail
        assert "replayed=1" in detail and "stored=None" in detail

    def test_register_only_in_stored(self):
        # The old implementation iterated only actual.regs and reported
        # the generic "states differ" for this case.
        detail = _describe_divergence(
            snap(regs={"pc": 8}), snap(regs={"pc": 8, "gone_q": 3})
        )
        assert "gone_q" in detail
        assert "replayed=None" in detail and "stored=3" in detail


class TestMemories:
    def test_word_mismatch(self):
        detail = _describe_divergence(
            snap(mems={"mem": [1, 2, 3]}), snap(mems={"mem": [1, 9, 3]})
        )
        assert detail == "top.mem[1]: replayed=2 stored=9"

    def test_memory_only_in_stored(self):
        detail = _describe_divergence(
            snap(mems={}), snap(mems={"mem": [1]})
        )
        assert "top.mem" in detail and "missing from replayed state" in detail

    def test_memory_only_in_replayed(self):
        detail = _describe_divergence(
            snap(mems={"mem": [1]}), snap(mems={})
        )
        assert "top.mem" in detail and "missing from stored state" in detail

    def test_length_mismatch_reports_lengths(self):
        detail = _describe_divergence(
            snap(mems={"mem": [1, 2]}), snap(mems={"mem": [1, 2, 3]})
        )
        assert detail == "top.mem: length mismatch replayed=2 stored=3"


class TestChildren:
    def test_child_count_mismatch(self):
        detail = _describe_divergence(
            snap(children=[snap("u0")]),
            snap(children=[snap("u0"), snap("u1")]),
        )
        assert detail == "top: child count replayed=1 stored=2"

    def test_child_name_mismatch(self):
        detail = _describe_divergence(
            snap(children=[snap("u0")]), snap(children=[snap("u9")])
        )
        assert detail == "top: child name replayed='u0' stored='u9'"

    def test_nested_divergence_has_full_path(self):
        inner_a = snap("u_core", regs={"pc": 12})
        inner_b = snap("u_core", regs={"pc": 16})
        detail = _describe_divergence(
            snap(children=[snap("n_0", children=[inner_a])]),
            snap(children=[snap("n_0", children=[inner_b])]),
        )
        assert detail == "top.n_0.u_core.pc: replayed=12 stored=16"

    def test_grandchild_count_mismatch_descends(self):
        # Child-count mismatch one level down must be named, not
        # swallowed by the zip() in the old implementation.
        detail = _describe_divergence(
            snap(children=[snap("n_0", children=[snap("a")])]),
            snap(children=[snap("n_0", children=[snap("a"), snap("b")])]),
        )
        assert detail == "top.n_0: child count replayed=1 stored=2"
