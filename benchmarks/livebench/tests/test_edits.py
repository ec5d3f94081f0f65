"""The edit generator yields the stated mix, and each kind of edit does
to the compiler what its name says."""

from collections import Counter

from benchmarks.livebench.workloads import (
    COSMETIC,
    COUNTER_DESIGN,
    COUNTER_EDIT_TARGETS,
    COUNTER_TOP,
    FRESH,
    REVERT,
    WORKLOADS,
    EditGenerator,
    mesh_edit_targets,
)


def test_edit_mix_proportions_are_exact_in_every_block():
    workload = WORKLOADS["edit_loop2"]
    assert workload.edit_mix == (0.60, 0.25, 0.15)
    block = workload.edit_block
    for seed in range(5):
        gen = EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS, block, seed)
        for _ in range(3):
            edits = [gen.next() for _ in range(sum(block))]
            kinds = Counter(edit.kind for edit in edits)
            assert (kinds[FRESH], kinds[REVERT], kinds[COSMETIC]) == block
            modules = Counter(e.module for e in edits if e.kind == FRESH)
            assert set(modules.values()) == {block[0] // 2}


def test_reverts_put_back_the_same_targets_at_every_seed():
    def schedule(seed):
        gen = EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS,
                            (12, 5, 3), seed)
        return [gen.next() for _ in range(3 * 20)]

    def reverted(edits):
        return Counter(e.target for e in edits if e.kind == REVERT)

    edits = schedule(1)
    assert reverted(edits) == reverted(schedule(2)) == {
        "adder-nonce": 8, "counter-nonce": 7,
    }
    for before, edit in zip(edits, edits[1:]):
        if edit.kind == REVERT:
            assert (before.kind, before.target) == (FRESH, edit.target)


def test_fresh_count_must_cover_the_targets():
    import pytest

    with pytest.raises(ValueError):
        EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS, (3, 0, 0), 1)


def test_same_seed_same_schedule():
    def schedule(seed):
        gen = EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS,
                            (12, 5, 3), seed)
        return [gen.next().source for _ in range(50)]

    assert schedule(5) == schedule(5)
    assert schedule(5) != schedule(6)


def test_streams_never_share_a_fresh_text():
    texts = [
        {EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS, (2, 0, 0), 1,
                       stream=stream).next().source for _ in range(20)}
        for stream in (0, 1)
    ]
    assert not texts[0] & texts[1]


def test_each_edit_kind_does_what_it_says():
    from repro.live.session import LiveSession

    session = LiveSession(COUNTER_DESIGN)
    session.inst_pipe("p0", session.stage_handle_for(COUNTER_TOP))
    gen = EditGenerator(COUNTER_DESIGN, COUNTER_EDIT_TARGETS,
                        (12, 5, 3), seed=2)
    seen = Counter()
    for _ in range(60):
        edit = gen.next()
        report = session.apply_change(edit.source)
        seen[edit.kind] += 1
        if edit.kind == FRESH:
            assert report.recompiled_keys  # never-before-compiled text
            assert any(edit.module in key for key in report.recompiled_keys)
        elif edit.kind == REVERT:
            assert report.behavioral and not report.recompiled_keys
        else:
            assert not report.behavioral
    assert all(seen[kind] for kind in (FRESH, REVERT, COSMETIC))


def test_mesh_targets_are_single_stage_patches():
    from repro.riscv.patches import single_stage_patches
    from repro.riscv.pgas import build_pgas_source

    single = {patch.name: patch.module for patch in single_stage_patches()}
    source = build_pgas_source(1)
    targets = mesh_edit_targets()
    assert WORKLOADS["edit_loop2"].edit_block[0] % len(targets) == 0
    for name, (module, rewrite) in targets.items():
        assert module in set(single.values())  # a pipeline-stage module
        if rewrite:
            good, bad = rewrite
            assert single[name] == module
            assert good in source and bad not in source
