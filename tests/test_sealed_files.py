"""Sealed files: every file the program persists is checked against its
header before a byte of it is unpickled or decoded.

The damage differential runs each kind (checkpoint store, compile
artifact, session journal) through the same damage: 200 truncations,
bit 0 and bit 7 flipped in every byte, a header of another schema, a
header of another kind, and a store file written before files had a
header.  The oracle is the refusal each reader owes: ``ldch`` is a
``CommandError`` naming the file and both formats, and the pipe, its
store and its history are as they were; ``rehydrate`` fails with the
structured error before any session is opened; the artifact store
counts a miss and an error.  The good file passes every reader, so the
oracle decides both ways.
"""

from pathlib import Path

import pytest

from repro import obs
from repro.codegen.build import STORE_FORMAT
from repro.hdl.errors import SimulationError
from repro.live.checkpoint import read_sealed, write_sealed
from repro.live.commands import CommandError, CommandInterpreter
from repro.live.compiler_live import LiveCompiler
from repro.live.session import LiveSession
from repro.server.shard import SessionJournal, SessionWorker, WorkerConfig
from repro.sim.testbench import hold_inputs
from tests.conftest import COUNTER_SRC, damaged_copies

BEFORE_HEADERS = (
    Path(__file__).resolve().parent / "data" / "store_before_records.ckpt"
)
OTHER_SCHEMA = "repro.store/v14"


class _Conn:
    def send(self, message):
        pass


def _worker(tmp_path):
    return SessionWorker(_Conn(), WorkerConfig(
        worker_id=0, state_root=str(tmp_path / "state"),
        store_root=str(tmp_path / "store"), checkpoint_interval=10,
    ))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One file of each kind, as a server session leaves them: the
    journal, the pipe's checkpoint store and the design's artifacts."""
    tmp_path = tmp_path_factory.mktemp("sealed")
    worker = _worker(tmp_path)
    worker._cmd_open(0, {"session": "s", "source": COUNTER_SRC})
    for line in ("instPipe p0, stage2", "run tb0, p0, 25"):
        worker._cmd_cmd(0, {"session": "s", "line": line})
    journal = SessionJournal(str(tmp_path / "state"), "s")
    return {
        "journal": Path(journal.path),
        "checkpoint": Path(journal.checkpoints()["p0"]),
        "artifact": sorted((tmp_path / "store").rglob("*.pkl"))[0],
        "root": tmp_path,
    }


def other_schema(good: bytes) -> bytes:
    assert good.startswith(STORE_FORMAT.encode())
    return OTHER_SCHEMA.encode() + good[len(STORE_FORMAT):]


def wrong_headers(saved, kind, other_kind):
    """``(what it is, bytes, the header it shows)`` for each file in
    ``kind``'s place whose header is not ``kind``'s."""
    good = saved[kind].read_bytes()
    yield "other schema", other_schema(good), f"{OTHER_SCHEMA} {kind}"
    yield (f"{other_kind} file", saved[other_kind].read_bytes(),
           f"{STORE_FORMAT} {other_kind}")
    yield "before headers", BEFORE_HEADERS.read_bytes(), "no header"


def damage(saved, kind, other_kind):
    """:func:`wrong_headers`, after every damaged copy of ``kind``'s
    file (whose header shows None)."""
    for data in damaged_copies(saved[kind].read_bytes()):
        yield "damaged", data, None
    yield from wrong_headers(saved, kind, other_kind)


def test_a_sealed_file_reads_back_and_names_what_it_is(tmp_path):
    path = str(tmp_path / "f")
    write_sealed(path, "journal", b'{"x": 1}\n')
    assert read_sealed(path, "journal") == b'{"x": 1}\n'
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
    assert header[:3] == [STORE_FORMAT, "journal", "9"]
    with pytest.raises(SimulationError) as refused:
        read_sealed(path, "checkpoint")
    assert str(refused.value) == (
        f"{path!r} is not a {STORE_FORMAT} checkpoint file: "
        f"found {STORE_FORMAT} journal"
    )


def test_ldch_refuses_every_damaged_checkpoint_file(saved, tmp_path):
    session = LiveSession(COUNTER_SRC, checkpoint_interval=10)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(hold_inputs(rst=0))
    session.run(tb, "p0", 25)
    pipe, store = session.pipe("p0"), session.store("p0")
    held, state = store.all(), pipe.snapshot().state
    ops = session.ops("p0")
    interp = CommandInterpreter(session, read_file={}.__getitem__)

    path = tmp_path / "p0.ckpt"
    path.write_bytes(saved["checkpoint"].read_bytes())
    assert read_sealed(str(path), "checkpoint")
    refused = 0
    for what, data, shown in damage(saved, "checkpoint", "artifact"):
        path.write_bytes(data)
        with pytest.raises(CommandError) as error:
            interp.execute(f"ldch p0, {path}")
        message = str(error.value)
        assert str(path) in message, what
        assert f"not a {STORE_FORMAT} checkpoint file" in message, what
        if shown is not None:
            assert message.endswith(f"found {shown}"), what
        assert pipe.cycle == 25, what
        assert list(map(id, store.all())) == list(map(id, held)), what
        assert session.ops("p0") == ops, what
        refused += 1
    assert refused > 200
    assert pipe.snapshot().state == state


def test_rehydrate_refuses_every_damaged_journal(saved):
    journal = saved["journal"]
    good = journal.read_bytes()
    worker = _worker(saved["root"])
    try:
        for what, data, shown in damage(saved, "journal", "checkpoint"):
            journal.write_bytes(data)
            with pytest.raises(SimulationError) as error:
                worker._cmd_rehydrate(0, {"session": "s"})
            message = str(error.value)
            assert str(journal) in message, what
            assert f"not a {STORE_FORMAT} journal file" in message, what
            if shown is not None:
                assert message.endswith(f"found {shown}"), what
            assert not worker._sessions, what
    finally:
        journal.write_bytes(good)
    # The good journal rehydrates, to the newest checkpoint its run saved.
    assert worker._cmd_rehydrate(0, {"session": "s"})["pipes"] == {"p0": 20}


def test_the_artifact_store_counts_every_header_it_refuses(saved):
    # Truncations and bit flips: test_artifact_store's damaged-file test.
    store = _worker(saved["root"]).artifact_store
    path = saved["artifact"]
    good = path.read_bytes()
    compiler = LiveCompiler(COUNTER_SRC)
    compiler.compile_top("top")
    (cache_key,) = [
        key for key in compiler.cache.entries("compile")
        if store.path_for(key) == str(path)
    ]
    metrics = obs.get_metrics()
    try:
        for what, data, _ in wrong_headers(saved, "artifact", "journal"):
            path.write_bytes(data)
            errors = metrics.counter("compile.store_errors")
            misses = metrics.counter("compile.store_misses")
            assert store.load(cache_key) is None, what
            assert metrics.counter("compile.store_errors") == errors + 1
            assert metrics.counter("compile.store_misses") == misses + 1
    finally:
        path.write_bytes(good)
    assert store.load(cache_key) is not None
