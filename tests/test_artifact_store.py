"""On-disk compile-artifact store tests: round trip, corruption
tolerance, and the LiveCompiler read-through/write-behind path."""

import os
import pickle
from dataclasses import replace

import pytest

from repro import obs
from repro.codegen import build
from repro.codegen.build import BuildConfig, ModuleKey
from repro.live import checkpoint
from repro.live.checkpoint import read_sealed
from repro.live.compiler_live import LiveCompiler
from repro.server.store import ArtifactStore
from tests.conftest import COUNTER_SRC, damaged_copies


def _compile_one(store=None):
    compiler = LiveCompiler(COUNTER_SRC, store=store)
    result = compiler.compile_top("top")
    return compiler, result


def _one_cache_key(compiler, spec="adder#(W=8)"):
    for cache_key in compiler.cache.entries("compile"):
        if cache_key.spec == spec:
            return cache_key
    raise AssertionError(f"no cache key for {spec}")


class TestModuleKey:
    """The one key: cache identity, store address and linecache name."""

    BUILD = BuildConfig(sanitize=True)
    KEY = ModuleKey("top", "fp1", ("c1", "c2"), BUILD)

    @pytest.mark.parametrize("changed", [
        replace(KEY, spec="top#(W=8)"),
        replace(KEY, fingerprint="fp2"),
        replace(KEY, child_fps=("c1",)),
        replace(KEY, child_fps=("c1", "c2+pure")),
        replace(KEY, child_fps=()),
        replace(KEY, build=replace(BUILD, mux_style="select")),
        replace(KEY, build=replace(BUILD, sanitize=False)),
        replace(KEY, build=replace(BUILD, opt="full")),
        replace(KEY, build=replace(BUILD, san_elide=False)),
    ])
    def test_every_field_reaches_digest_and_filename(self, changed):
        assert changed != self.KEY
        assert changed.digest != self.KEY.digest
        assert changed.filename != self.KEY.filename

    def test_equal_keys_agree(self):
        twin = ModuleKey("top", "fp1", ("c1", "c2"),
                         BuildConfig(sanitize=True))
        assert twin == self.KEY and hash(twin) == hash(self.KEY)
        assert twin.digest == self.KEY.digest
        assert twin.filename == self.KEY.filename

    def test_build_config_validates_once_for_everyone(self):
        with pytest.raises(ValueError, match="unknown opt level"):
            BuildConfig(opt="extreme")
        with pytest.raises(ValueError, match="unknown mux_style"):
            replace(self.BUILD, mux_style="table")

    def test_other_store_format_is_a_silent_miss(self, tmp_path, monkeypatch):
        """A store directory another format wrote is a cold cache, never
        an error: that format's digests address other files."""
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        cache_key = _one_cache_key(compiler)
        module = compiler.cache.entries("compile")[cache_key]
        with monkeypatch.context() as patched:
            for mod in (build, checkpoint):
                patched.setattr(mod, "STORE_FORMAT", "repro.store/v4")
            old_key = replace(cache_key)  # fresh digest cache
            assert store.save(old_key, module)
            assert store.load(old_key) is not None
            assert store.path_for(old_key) != store.path_for(cache_key)
        metrics = obs.get_metrics()
        misses = metrics.counter("compile.store_misses")
        errors = metrics.counter("compile.store_errors")
        assert store.load(cache_key) is None
        assert metrics.counter("compile.store_misses") == misses + 1
        assert metrics.counter("compile.store_errors") == errors

    def test_a_v6_store_is_a_cold_cache_at_v7(self, tmp_path, monkeypatch):
        """v6 artifacts follow the other calling convention (the callee
        masks its arguments, so a v6 parent passes them unmasked: it
        must never meet a v7 child) and carry an ``interface_fp`` field.
        Whether they sit where v6 addressed them or were copied to
        where this format looks, a compile over that store recompiles
        everything and execs none of them: the copies have no header,
        so each is a counted store error."""
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        for cache_key, module in compiler.cache.entries("compile").items():
            with monkeypatch.context() as patched:
                for mod in (build, checkpoint):
                    patched.setattr(mod, "STORE_FORMAT", "repro.store/v6")
                old_key = replace(cache_key)  # fresh digest cache
                assert store.save(old_key, module)
                old_path = store.path_for(old_key)
                payload = pickle.loads(read_sealed(old_path, "artifact"))
            payload["format"] = "repro.store/v6"
            payload["fields"]["source"] = (
                "def eval_out(s, ch, *args):\n    raise AssertionError('v6')\n"
                "def cycle(s, ch, *args):\n    raise AssertionError('v6')\n"
            )
            payload["fields"]["interface_fp"] = "0" * 64
            for path in (old_path, store.path_for(cache_key)):
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "wb") as fh:  # as v6 wrote it
                    pickle.dump(payload, fh)
        metrics = obs.get_metrics()
        errors = metrics.counter("compile.store_errors")
        _, result = _compile_one(store)
        assert len(result.report.recompiled_keys) == 3
        assert metrics.counter("compile.store_errors") == errors + 3
        for module in result.library.values():
            assert "AssertionError" not in module.source
            assert module.cycle_fn.__name__ == "cycle"


class TestRoundTrip:
    def test_save_load_rebuilds_working_module(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, result = _compile_one()
        cache_key = _one_cache_key(compiler)
        module = compiler.cache.entries("compile")[cache_key]
        assert store.save(cache_key, module)
        loaded = store.load(cache_key)
        assert loaded is not None
        assert loaded.key == module.key
        assert loaded.source == module.source
        assert loaded.source_hash == module.source_hash
        assert loaded.reg_widths == module.reg_widths
        # The rehydrated functions actually compute: adder sums inputs.
        state = loaded.make_state()
        out = loaded.eval_out_fn(state, (), 5, 7)
        assert out == (12,)

    def test_missing_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        metrics = obs.get_metrics()
        before = metrics.counter("compile.store_misses")
        assert store.load(ModuleKey("nope", "fp")) is None
        assert metrics.counter("compile.store_misses") == before + 1

    def test_len_and_clear(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        for cache_key, module in compiler.cache.entries("compile").items():
            store.save(cache_key, module)
        assert len(store) == 3
        assert store.total_bytes() > 0
        assert store.clear() == 3
        assert len(store) == 0


class TestCorruptionTolerance:
    def test_truncated_file_is_a_counted_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        cache_key = _one_cache_key(compiler)
        store.save(cache_key, compiler.cache.entries("compile")[cache_key])
        path = store.path_for(cache_key)
        with open(path, "wb") as fh:
            fh.write(b"\x80\x04garbage")
        metrics = obs.get_metrics()
        errors = metrics.counter("compile.store_errors")
        assert store.load(cache_key) is None
        assert metrics.counter("compile.store_errors") == errors + 1

    def test_no_damaged_file_is_served(self, tmp_path):
        """Bit 0 and bit 7 of every byte of an artifact flipped, and 200
        truncations: each load is a miss counted as a store error (the
        header is checked before a byte is unpickled), and a compiler
        over the damaged store compiles the module again."""
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one(store)
        cache_key = _one_cache_key(compiler)
        path = store.path_for(cache_key)
        with open(path, "rb") as fh:
            good = fh.read()
        metrics = obs.get_metrics()
        for data in damaged_copies(good):
            with open(path, "wb") as fh:
                fh.write(data)
            errors = metrics.counter("compile.store_errors")
            misses = metrics.counter("compile.store_misses")
            assert store.load(cache_key) is None
            assert metrics.counter("compile.store_errors") == errors + 1
            assert metrics.counter("compile.store_misses") == misses + 1
        _, result = _compile_one(ArtifactStore(str(tmp_path)))
        assert result.report.recompiled_keys == [cache_key.spec]
        assert result.library[cache_key.spec].source == \
            compiler.cache.entries("compile")[cache_key].source

    def test_key_mismatch_never_served(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        key_a = _one_cache_key(compiler, "adder#(W=8)")
        key_b = _one_cache_key(compiler, "top")
        store.save(key_a, compiler.cache.entries("compile")[key_a])
        # Copy a's artifact into b's address (a forged/colliding file).
        os.makedirs(os.path.dirname(store.path_for(key_b)), exist_ok=True)
        with open(store.path_for(key_a), "rb") as src:
            data = src.read()
        with open(store.path_for(key_b), "wb") as dst:
            dst.write(data)
        assert store.load(key_b) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one()
        for cache_key, module in compiler.cache.entries("compile").items():
            store.save(cache_key, module)
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ArtifactStore(str(blocked))
        compiler, _ = _compile_one()
        cache_key = _one_cache_key(compiler)
        metrics = obs.get_metrics()
        errors = metrics.counter("compile.store_errors")
        assert not store.save(cache_key, compiler.cache.entries("compile")[cache_key])
        assert metrics.counter("compile.store_errors") == errors + 1


class TestCompilerReadThrough:
    def test_cold_compile_populates_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        metrics = obs.get_metrics()
        writes = metrics.counter("compile.store_writes")
        _compile_one(store)
        assert len(store) == 3
        assert metrics.counter("compile.store_writes") == writes + 3

    def test_warm_restart_skips_codegen(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        _compile_one(store)
        metrics = obs.get_metrics()
        compiled = metrics.counter("codegen.modules_compiled")
        hits = metrics.counter("compile.store_hits")
        # A fresh compiler (fresh process, conceptually) on the same
        # design: everything loads from disk, zero codegen.
        compiler, result = _compile_one(ArtifactStore(str(tmp_path)))
        assert result.report.recompiled_keys == []
        assert len(result.report.reused_keys) == 3
        assert metrics.counter("codegen.modules_compiled") == compiled
        assert metrics.counter("compile.store_hits") == hits + 3
        # And the rehydrated library simulates correctly.
        from repro.sim import Pipe

        pipe = Pipe(result.netlist.top, result.library)
        pipe.set_inputs(rst=1)
        pipe.step(1)
        pipe.set_inputs(rst=0)
        pipe.step(10)
        assert pipe.outputs() == {"c0": 10, "c1": 30}

    def test_edit_hits_store_for_unchanged_modules(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one(store)
        # Second compiler, edited design: only the edited module is
        # recompiled; unchanged modules come from disk.
        compiler2 = LiveCompiler(COUNTER_SRC,
                                 store=ArtifactStore(str(tmp_path)))
        compiler2.update_source(
            COUNTER_SRC.replace("assign sum = a + b;",
                                "assign sum = a - b;")
        )
        metrics = obs.get_metrics()
        compiled = metrics.counter("codegen.modules_compiled")
        result = compiler2.compile_top("top")
        assert result.report.recompiled_keys == ["adder#(W=8)"]
        assert sorted(result.report.reused_keys) == ["counter#(W=8)", "top"]
        assert metrics.counter("codegen.modules_compiled") == compiled + 1
        # The edited module's artifact is now persisted too.
        assert len(ArtifactStore(str(tmp_path))) == 4

    def test_memory_cache_wins_over_store(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one(store)
        metrics = obs.get_metrics()
        hits = metrics.counter("compile.store_hits")
        mem_hits = metrics.counter("compile.cache_hits")
        result = compiler.compile_top("top")
        assert len(result.report.reused_keys) == 3
        assert metrics.counter("compile.store_hits") == hits
        assert metrics.counter("compile.cache_hits") == mem_hits + 3

    def test_memory_bound_leaves_disk_artifacts(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        compiler, _ = _compile_one(store)
        metrics = obs.get_metrics()
        evicted = metrics.counter("compile.cache_evicted")
        variants = ["a - b", "a ^ b", "a & b", "a | b", "a * b"]
        for variant in variants:
            compiler.update_source(COUNTER_SRC.replace("a + b", variant))
            compiler.compile_top("top")
        assert metrics.counter("compile.cache_evicted") == evicted + 2
        # The in-memory bound is a RAM bound; durable artifacts stay,
        # so a generation that left memory comes back from disk.
        assert len(store) == 3 + len(variants)
        compiler.update_source(COUNTER_SRC)
        hits = metrics.counter("compile.store_hits")
        assert compiler.compile_top("top").report.recompiled_keys == []
        assert metrics.counter("compile.store_hits") == hits + 1
