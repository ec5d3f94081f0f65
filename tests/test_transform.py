"""Register transform rules and branching history tests (Tables V/VI)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hdl.errors import SimulationError
from repro.live.transform import (
    CREATE,
    DELETE,
    RENAME,
    RegisterTransform,
    RegisterTransformHistory,
    TransformOp,
    guess_transforms,
)


class TestTransformOps:
    def test_create_initializes(self):
        t = RegisterTransform([TransformOp(CREATE, "newR", init_value=7)])
        assert t.apply({"oldR": 1}) == {"oldR": 1, "newR": 7}

    def test_create_defaults_to_zero(self):
        t = RegisterTransform([TransformOp(CREATE, "newR")])
        assert t.apply({})["newR"] == 0

    def test_delete_drops_data(self):
        t = RegisterTransform([TransformOp(DELETE, "gone")])
        assert t.apply({"gone": 9, "kept": 1}) == {"kept": 1}

    def test_delete_missing_is_noop(self):
        t = RegisterTransform([TransformOp(DELETE, "nope")])
        assert t.apply({"a": 1}) == {"a": 1}

    def test_rename_maps_value(self):
        t = RegisterTransform([TransformOp(RENAME, "someR", new_name="newR")])
        assert t.apply({"someR": 42}) == {"newR": 42}

    def test_rename_missing_is_noop(self):
        t = RegisterTransform([TransformOp(RENAME, "nope", new_name="x")])
        assert t.apply({"a": 1}) == {"a": 1}

    def test_rename_requires_new_name(self):
        with pytest.raises(ValueError):
            TransformOp(RENAME, "a")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TransformOp("mutate", "a")

    def test_compose_applies_in_order(self):
        first = RegisterTransform([TransformOp(RENAME, "a", new_name="b")])
        second = RegisterTransform([TransformOp(RENAME, "b", new_name="c")])
        composed = first.compose(second)
        assert composed.apply({"a": 5}) == {"c": 5}

    def test_identity(self):
        assert RegisterTransform().is_identity()
        assert not RegisterTransform([TransformOp(DELETE, "x")]).is_identity()

    @given(values=st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 1000),
    ))
    @settings(max_examples=30, deadline=None)
    def test_identity_preserves_everything(self, values):
        assert RegisterTransform().apply(values) == values


class TestGuessTransforms:
    def test_unchanged_names_need_no_ops(self):
        t = guess_transforms({"a": 8, "b": 8}, {"a": 8, "b": 8})
        assert t.is_identity()

    def test_pure_addition_creates(self):
        t = guess_transforms({"a": 8}, {"a": 8, "shiny_new": 4})
        assert [op.kind for op in t.ops] == [CREATE]

    def test_pure_removal_deletes(self):
        t = guess_transforms({"a": 8, "legacy": 4}, {"a": 8})
        assert [op.kind for op in t.ops] == [DELETE]

    def test_similar_name_same_width_renames(self):
        t = guess_transforms({"count_q": 8}, {"counter_q": 8})
        assert t.ops == [TransformOp(RENAME, "count_q", new_name="counter_q")]
        assert t.apply({"count_q": 42}) == {"counter_q": 42}

    def test_different_width_not_renamed(self):
        t = guess_transforms({"count_q": 8}, {"count_w": 16})
        kinds = sorted(op.kind for op in t.ops)
        assert kinds == [CREATE, DELETE]

    def test_dissimilar_names_not_renamed(self):
        t = guess_transforms({"alpha": 8}, {"zzz9": 8})
        kinds = sorted(op.kind for op in t.ops)
        assert kinds == [CREATE, DELETE]

    def test_rename_pairs_each_target_once(self):
        t = guess_transforms(
            {"val_q": 8, "val_r": 8}, {"value_q": 8, "value_r": 8}
        )
        renames = [op for op in t.ops if op.kind == RENAME]
        targets = [op.new_name for op in renames]
        assert len(targets) == len(set(targets))

    @given(
        kept=st.sets(st.sampled_from(["r0", "r1", "r2"]), max_size=3),
        added=st.sets(st.sampled_from(["zz8", "yy7"]), max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_guess_produces_exactly_new_register_set(self, kept, added):
        old = {name: 8 for name in kept | {"dropped_zq"}}
        new = {name: 8 for name in kept | added}
        t = guess_transforms(old, new)
        values = {name: i for i, name in enumerate(old)}
        migrated = t.apply(values)
        assert set(migrated) == set(new)


class TestHistory:
    def test_root_exists(self):
        history = RegisterTransformHistory("1.0")
        assert "1.0" in history
        assert history.parent_of("1.0") is None

    def test_linear_chain_composes(self):
        history = RegisterTransformHistory("1.0")
        history.add_version("1.1", "1.0", {
            "m": RegisterTransform([TransformOp(CREATE, "newR")]),
        })
        history.add_version("1.2", "1.1", {
            "m": RegisterTransform([TransformOp(RENAME, "someR",
                                                new_name="newR2")]),
        })
        composed = history.composed_transforms("1.0", "1.2")["m"]
        assert composed.apply({"someR": 5}) == {"someR": 5, "newR": 0} or (
            composed.apply({"someR": 5}) == {"newR2": 5, "newR": 0}
        )
        result = composed.apply({"someR": 5})
        assert result["newR"] == 0
        assert result.get("newR2") == 5

    def test_branching_like_table6(self):
        """The paper's Table VI: 1.3 and 1.3a both branch from 1.2."""
        history = RegisterTransformHistory("1.1")
        history.add_version("1.2", "1.1", {
            "m": RegisterTransform([TransformOp(CREATE, "newR1")]),
        })
        history.add_version("1.3", "1.2", {
            "m": RegisterTransform([TransformOp(DELETE, "otherR")]),
        })
        history.add_version("1.3a", "1.2", {
            "m": RegisterTransform([
                TransformOp(RENAME, "newR1", new_name="myR1"),
                TransformOp(DELETE, "newR"),
            ]),
        })
        via_a = history.composed_transforms("1.1", "1.3a")["m"]
        result = via_a.apply({"newR": 3, "otherR": 4})
        assert "newR" not in result
        assert result["myR1"] == 0  # created in 1.2, renamed in 1.3a

    def test_cross_branch_transform_rejected(self):
        history = RegisterTransformHistory("1.0")
        history.add_version("1.1", "1.0")
        history.add_version("1.1b", "1.0")
        with pytest.raises(SimulationError, match="cross branches"):
            history.composed_transforms("1.1", "1.1b")["m"]

    def test_same_version_is_empty_path(self):
        history = RegisterTransformHistory("1.0")
        assert history.path("1.0", "1.0") == []

    def test_path_walks_only_the_edits_between(self, monkeypatch):
        history = RegisterTransformHistory("1.0")
        for i in range(1, 500):
            history.add_version(f"1.{i}", f"1.{i - 1}")
        looked_up = []
        node = history._node
        monkeypatch.setattr(
            history, "_node", lambda v: looked_up.append(v) or node(v)
        )
        assert history.path("1.496", "1.499") == ["1.497", "1.498", "1.499"]
        assert len(looked_up) <= 5
        with pytest.raises(SimulationError, match="unknown design version"):
            history.path("2.0", "1.499")

    def test_duplicate_version_rejected(self):
        history = RegisterTransformHistory("1.0")
        history.add_version("1.1", "1.0")
        with pytest.raises(SimulationError):
            history.add_version("1.1", "1.0")

    def test_unknown_parent_rejected(self):
        history = RegisterTransformHistory("1.0")
        with pytest.raises(SimulationError):
            history.add_version("2.0", "9.9")

    def test_manual_override(self):
        history = RegisterTransformHistory("1.0")
        history.add_version("1.1", "1.0")
        history.set_transform(
            "1.1", "m",
            RegisterTransform([TransformOp(RENAME, "a", new_name="b")]),
        )
        composed = history.composed_transforms("1.0", "1.1")["m"]
        assert composed.apply({"a": 1}) == {"b": 1}

    def test_rows_render_like_table6(self):
        history = RegisterTransformHistory("1.1")
        history.add_version("1.2", "1.1", {
            "m": RegisterTransform([TransformOp(CREATE, "newR1")]),
        })
        rows = dict((v, (ops, parent)) for v, ops, parent in history.rows())
        assert rows["1.1"] == ("-", "null")
        assert "create newR1" in rows["1.2"][0]
        assert rows["1.2"][1] == "1.1"
