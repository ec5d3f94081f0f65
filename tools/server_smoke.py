#!/usr/bin/env python
"""End-to-end smoke test for the LiveSim server over a real socket.

Starts ``python -m repro.server`` as a subprocess on an ephemeral port
with an on-disk artifact store, drives a scripted client session
(ldLib / instPipe / run / chkp / swapStage / lint / verify, plus a
reload refused by the static-analysis gate and forced with override),
asserts a clean shutdown, then restarts the server on the same store
and checks the warm path: the same design compiles entirely from disk
artifacts.  The cold leg also drives the live trace path with the
``watch`` / ``trace`` / ``replay`` Table I lines sent as ``cmd``:
value changes streamed for the watched signal match a post-hoc
``trace`` read and a bit-identical ``replay`` window.  The first two
legs run the default hosting (the worker on a thread of the server
process); a third boots the same server with ``--workers 2`` worker
processes, SIGKILLs one worker mid-session (after a reload the gate
refused, two reloads that rename the counter register and a ``chkp``
between them), checks the session rehydrates on the restarted worker
from its journal + checkpoint in the state it was killed in, then
resizes the pool 2->4->2 and checks a migrated session keeps its
simulated state through both moves.  After the rehydration and after
the resize, every session is resident on exactly one worker.  Each
moved session then takes a behavioural ``reload`` and a ``run``: it
replays what it ran since the move from the checkpoint it was handed
over at, exactly as an in-process session given the same commands
does.

Exit code 0 means every step passed.  Used by the ``server-smoke`` CI
job; also runnable by hand::

    PYTHONPATH=src python tools/server_smoke.py
"""

import os
import re
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.server.client import LiveSimClient, ServerError  # noqa: E402

DESIGN = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b;
endmodule

module counter #(parameter W = 8) (
  input clk,
  input rst,
  input [W-1:0] step,
  output [W-1:0] count
);
  reg [W-1:0] count_q;
  wire [W-1:0] next;
  adder #(.W(W)) u_add (.clk(clk), .a(count_q), .b(step), .sum(next));
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 0;
    else
      count_q <= next;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c0,
  output [7:0] c1
);
  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
endmodule
"""

# Same adder interface, +1 behaviour: loading this library is an edit
# (duplicate modules replace) and hot-reloads the pipe like a reload;
# swapStage then finds every stage on the latest compile.
PATCH = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b + 8'd1;
endmodule
"""

# DESIGN with the +1 adder: the behavioural edit a moved session takes.
EDITED = DESIGN.replace("assign sum = a + b;", "assign sum = a + b + 8'd1;")

# DESIGN with a combinational feedback loop added to top: the gate
# must refuse this reload (a *new* error finding) until overridden.
# The loop converges under fixpoint evaluation (fb is monotonically
# masked), so the forced swap still simulates.
LOOP_DESIGN = DESIGN.replace(
    "  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));",
    "  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));\n"
    "  wire [7:0] fb;\n"
    "  assign fb = fb & c0;",
)

# DESIGN with the counter register renamed, twice over: reloads whose
# register transform the guess pairs (count_q -> count_r -> count_s).
RENAMED_R = DESIGN.replace("count_q", "count_r")
RENAMED_S = DESIGN.replace("count_q", "count_s")

# Sanitizer leg: a read-only lookup memory addressed through a masked
# part-select.  The edit drops the mask, so the 3-bit counter indexes
# past the 4-word memory — the instrumented replay must report it.
SAN_DESIGN = """
module lut (
  input clk,
  input rst,
  output [7:0] out
);
  reg [7:0] mem [0:3];
  reg [2:0] idx_q;
  assign out = mem[idx_q[1:0]];
  always @(posedge clk) begin
    if (rst) idx_q <= 0;
    else idx_q <= idx_q + 3'd1;
  end
endmodule
"""
SAN_EDIT = SAN_DESIGN.replace("mem[idx_q[1:0]]", "mem[idx_q]")

LISTEN_RE = re.compile(r"livesim server listening on ([\d.]+):(\d+)")


def check(condition, label):
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {label}")
    if not condition:
        raise SystemExit(f"smoke step failed: {label}")


def start_server(store, workers=0, state_dir=None):
    argv = [sys.executable, "-m", "repro.server", "--port", "0",
            "--store", store]
    if workers:
        argv += ["--workers", str(workers)]
    if state_dir:
        argv += ["--state-dir", state_dir]
    proc = subprocess.Popen(
        argv,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"  server: {line}")
        match = LISTEN_RE.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise SystemExit("server never announced its port")


def stop_server(proc, client):
    client.shutdown_server()
    client.close()
    output = proc.stdout.read()
    for line in output.splitlines():
        sys.stdout.write(f"  server: {line}\n")
    code = proc.wait(timeout=30)
    check(code == 0, f"server exited cleanly (code {code})")
    check("livesim server stopped" in output, "server logged its stop")


def cold_session(host, port, patch_path):
    client = LiveSimClient(host, port, timeout=60.0, read_timeout=120.0)
    pong = client.ping()
    check(pong.get("sharded") is False and pong.get("workers") == 1,
          "ping: one worker, hosted in the server process")
    info = client.open_session("smoke", DESIGN)
    check(info["handles"].get("top") == "stage2", "open: top is stage2")
    client.command("smoke", "instPipe p0, stage2")
    result = client.command("smoke", "run tb0, p0, 200")
    check(result["c0"] == 198, f"run: c0={result['c0']} (want 198)")
    cp = client.command("smoke", "chkp p0")
    check(cp["cycle"] == 200, "chkp at cycle 200")
    client.command("smoke", "verify p0")
    event = client.wait_event(
        "verify_status",
        predicate=lambda e: e.data["state"] != "running",
        timeout=60.0,
    )
    check(event.data["state"] == "consistent"
          and event.data["completed_segments"] == 1,
          f"verify: state={event.data['state']}, "
          f"{event.data['completed_segments']} delta verified")
    report = client.command("smoke", "verifyWait p0")
    check(report["all_consistent"] is True and report["segments"] == 1,
          "verifyWait: all consistent")
    client.command("smoke", f"ldLib patch, {patch_path}")
    swap = client.command("smoke", "swapStage p0, u0.u_add")
    check(swap["swapped_instances"] == 0,
          "swapStage: ldLib already swapped every instance")
    # The patched adder adds +1 in both counters: c0 now steps by 2
    # per cycle and c1 by 4 (the edit resumed from the chkp at 200).
    result = client.command("smoke", "run tb0, p0, 10")
    check(result["c0"] == 198 + 20 and result["c1"] == (3 * 198 + 40) % 256,
          f"patched run: c0={result['c0']} c1={result['c1']} "
          "(want 218, 122)")

    # Static analysis over the socket: the design is clean.
    lint = client.command("smoke", "lint p0")
    check(lint["_type"] == "AnalysisReport" and lint["findings"] == [],
          "lint: clean design, no findings")
    check(lint["analyzed_keys"] or lint["reused_keys"],
          "lint: analyzer covered the netlist")

    # A reload introducing a comb loop is refused by the gate...
    try:
        client.reload("smoke", LOOP_DESIGN)
        check(False, "gate: comb-loop reload was refused")
    except ServerError as exc:
        check(exc.kind == "gate" and "comb-loop" in exc.message,
              f"gate: comb-loop reload refused ([{exc.kind}])")
    outputs = client.command("smoke", "peek p0")
    check(outputs["c0"] == 218, "gate: blocked reload rolled back")
    # ...and lands when forced with override.
    forced = client.reload("smoke", LOOP_DESIGN, override=True)
    check(forced["gate_overridden"] is True, "gate: override accepted")
    check(any(f["kind"] == "comb-loop" for f in forced["new_findings"]),
          "gate: override reports the comb-loop finding")
    event = client.wait_event("lint_findings", timeout=30.0)
    check(any(f["kind"] == "comb-loop" for f in event.data["findings"]),
          "lint_findings event streams the comb-loop")
    stats = client.stats()
    check(stats["store"]["artifacts"] >= 3,
          f"store holds {stats['store']['artifacts']} artifacts")
    return client


def sanitize_session(client):
    """Sanitized session over the socket: ``san report``, then an edit
    that introduces an out-of-bounds memory index; the finding must
    stream back as a ``lint_findings`` event."""
    info = client.open_session("san", SAN_DESIGN)
    handle = info["handles"]["lut"]
    status = client.command("san", "san")
    check(status["mode"] == "off" and status["instrumented"] is False,
          "san: sessions start uninstrumented")
    toggled = client.command("san", "san report")
    check(toggled["mode"] == "report", "san report: mode toggled")
    client.command("san", f"instPipe p0, {handle}")
    client.command("san", "run tb0, p0, 30")
    status = client.command("san", "san")
    check(status["instrumented"] is True and status["findings"] == 0,
          "san: clean design simulates with zero findings")
    client.reload("san", SAN_EDIT)
    event = client.wait_event("lint_findings", timeout=30.0)
    oob = [f for f in event.data["new_findings"]
           if f["kind"] == "san-oob-index"]
    check(oob and oob[0]["module"] == "lut",
          "san: oob finding streamed as lint_findings event")
    check("memory index" in oob[0]["message"],
          f"san: finding names the index ({oob[0]['message']!r})")
    status = client.command("san", "san")
    check(status["hits"]["san-oob-index"] > 0,
          f"san: hit counters dumped ({status['hits']})")
    client.close_session("san")


def trace_session(client):
    """Live-trace leg: the watch / trace / replay Table I lines sent as
    ``cmd``.  The value changes streamed for a watched signal must match
    a post-hoc ``trace`` read and a time-travel ``replay`` window."""
    client.open_session("trace", DESIGN)
    client.command("trace", "instPipe p0, stage2")
    watched = client.command("trace", "watch p0, c0")
    check(watched["signal"] == "c0" and not watched["missing"],
          "trace: watch armed a live probe")
    client.command("trace", "run tb0, p0, 40")

    # Drain value_change events (change-only: reset-held values emit
    # once), then read the full window post-hoc.
    streamed = {}
    deadline = time.monotonic() + 10.0
    while len(streamed) < 38:
        try:
            event = client.wait_event(
                "value_change",
                timeout=max(deadline - time.monotonic(), 0.01),
            )
        except TimeoutError:
            break
        for item in event.data["events"]:
            if "value" in item:
                streamed[item["cycle"]] = item["value"]
    check(len(streamed) >= 38,
          f"trace: {len(streamed)} value changes streamed")

    window = client.command("trace", "trace p0, c0, 0, 40")
    post = {cycle: value for cycle, value in window["samples"]}
    check(all(post.get(cycle) == value
              for cycle, value in streamed.items()),
          "trace: streamed events match the post-hoc trace")
    replay = client.command("trace", "replay p0, 10, 30, c0")
    replayed = {cycle: value for cycle, value in replay["signals"]["c0"]}
    check(all(replayed.get(c) == post.get(c) for c in range(10, 30)),
          "trace: replay window bit-identical to live trace")
    removed = client.command("trace", "unwatch p0, c0")
    check(removed["removed"] is True, "trace: unwatch dropped probe")
    client.close_session("trace")


def warm_session(host, port):
    client = LiveSimClient(host, port, timeout=60.0, read_timeout=120.0)
    client.open_session("warm", DESIGN)
    client.command("warm", "instPipe p0, stage2")
    result = client.command("warm", "run tb0, p0, 50")
    check(result["c0"] == 48, "warm run: rehydrated modules simulate")
    hits = client.stats()["metrics"]["counters"].get(
        "compile.store_hits", 0
    )
    check(hits >= 3, f"warm restart: compile.store_hits={hits} (want >=3)")
    return client


def reload_after_move(client, name, steps):
    """A session that was rehydrated on another worker (its checkpoints
    moved with it, its run history did not) takes a behavioural reload
    and runs on.  ``steps`` is everything it was told since reset; the
    counter must match an in-process session told the same."""
    from repro.live.session import LiveSession
    from repro.sim.testbench import reset_sequence

    before = next(s["version"] for s in client.sessions()
                  if s["session"] == name)
    report = client.reload(name, EDITED)
    check(report["behavioral"] and report["version"] != before,
          f"moved session: reload ok, version {before} -> "
          f"{report['version']} (replayed {report['cycles_replayed']} "
          f"from checkpoint @ {report['checkpoint_cycle']})")
    result = client.command(name, "run tb0, p0, 10")

    session = LiveSession(DESIGN)
    session.inst_pipe("p0", session.stage_handle_for("top"))
    tb = session.load_testbench(reset_sequence("rst", cycles=2))
    for step in steps + ["reload", 10]:
        if step == "chkp":
            session.chkp("p0")
        elif step == "reload":
            reference = session.apply_change(EDITED)
        else:
            session.run(tb, "p0", step)
    check(report["cycles_replayed"] == reference.cycles_replayed
          and report["checkpoint_cycle"] == reference.checkpoint_cycle,
          "moved session: same base and replay as in-process")
    check(result["c0"] == session.peek("p0")["c0"],
          "moved session: run after reload matches in-process "
          f"(c0={result['c0']})")


def check_one_owner(client, when):
    """Every session lives on exactly one worker: the workers'
    ``session_names`` are disjoint, and together they are the names
    ``sessions`` lists, each listed once."""
    owned = [
        name
        for entry in client.request("stats", deep=True)["worker_stats"]
        for name in entry["session_names"]
    ]
    listed = [entry["session"] for entry in client.sessions()]
    check(len(owned) == len(set(owned))
          and len(listed) == len(set(listed))
          and sorted(owned) == sorted(listed),
          f"{when}: each session on exactly one worker ({sorted(owned)})")


def sharded_session(host, port):
    """Sharded leg: two sessions on different workers, one worker
    SIGKILLed mid-session; its session must come back on the restarted
    worker with journal+checkpoint state intact, while the other
    worker's session is untouched.  Before the kill the session takes
    a reload the gate refuses (the journal does not hold it, so it must
    number no version) and two renaming reloads with a ``chkp`` between
    them: the saved checkpoint is read back through the second rename."""
    from repro.server.shard import HashRing

    # Pick names the frontend's consistent-hash ring places on worker
    # 0 and worker 1 respectively (same ring construction: 2 workers).
    ring = HashRing(range(2))
    names, i = {}, 0
    while len(names) < 2:
        name = f"shard-{i}"
        names.setdefault(ring.lookup(name), name)
        i += 1
    victim, survivor = names[0], names[1]

    client = LiveSimClient(host, port, timeout=60.0, read_timeout=120.0)
    pong = client.ping()
    check(pong.get("sharded") is True and pong.get("workers") == 2,
          "sharded: ping reports 2 worker processes")
    client.open_session(victim, DESIGN)
    client.open_session(survivor, DESIGN)
    client.command(victim, "instPipe p0, stage2")
    client.command(survivor, "instPipe p0, stage2")
    result = client.command(victim, "run tb0, p0, 200")
    check(result["c0"] == 198, f"sharded run: c0={result['c0']} (want 198)")
    cp = client.command(victim, "chkp p0")
    check(cp["cycle"] == 200, "sharded chkp at cycle 200")
    try:
        client.reload(victim, LOOP_DESIGN)
        check(False, "sharded: comb-loop reload was refused")
    except ServerError as exc:
        check(exc.kind == "gate",
              f"sharded: gate refused a reload ([{exc.kind}])")
    versions = [client.reload(victim, RENAMED_R)["version"]]
    client.command(victim, "chkp p0")
    versions.append(client.reload(victim, RENAMED_S)["version"])
    check(versions == ["1.1", "1.2"],
          f"sharded: renaming reloads are versions {versions}")
    before_kill = client.command(victim, "peek p0")
    check(before_kill["c0"] == 198,
          f"sharded: renames carried the counter (c0={before_kill['c0']})")
    client.command(survivor, "run tb0, p0, 50")

    stats = client.stats()
    by_id = {w["id"]: w for w in stats["workers"]}
    check(by_id[0]["sessions"] == 1 and by_id[1]["sessions"] == 1,
          "sharded: one session per worker")
    os.kill(by_id[0]["pid"], 9)

    # The next command to the dead worker waits for restart +
    # rehydration (journal replay + checkpoint restore), then runs.
    outputs = client.command(victim, "peek p0")
    check(outputs == before_kill,
          f"rehydrate: checkpointed state intact ({outputs})")
    result = client.command(victim, "run tb0, p0, 10")
    check(result["c0"] == 208,
          f"rehydrate: simulation continues (c0={result['c0']})")
    outputs = client.command(survivor, "peek p0")
    check(outputs["c0"] == 48,
          "rehydrate: other worker's session untouched")
    check_one_owner(client, "rehydrate")

    # Event streams still reach this client after the session moved to
    # the restarted worker process.  The verdict covers the ten cycles
    # run since; the 200 before died with the worker's run history.
    client.command(victim, "chkp p0")
    client.command(victim, "verify p0")
    event = client.wait_event(
        "verify_status",
        predicate=lambda e: e.data["state"] != "running",
        timeout=60.0,
    )
    check(event.session == victim
          and event.data["state"] == "consistent",
          "rehydrate: verify events route to the client")
    check(event.data["completed_segments"] == 1
          and event.data["unverifiable_segments"] == 1,
          "rehydrate: one delta verified, one unverifiable")
    reload_after_move(client, victim, [200, "chkp", 10, "chkp"])

    stats = client.stats()
    by_id = {w["id"]: w for w in stats["workers"]}
    check(by_id[0]["alive"] and by_id[0]["restarts"] == 1,
          "sharded: worker 0 restarted exactly once")
    client.close_session(victim)
    client.close_session(survivor)
    return client


def resize_step(client):
    """Resize 2->4->2: a session whose ring owner changes must migrate
    with its simulated state intact — the persist step checkpoints at
    the *current* cycle, so a migration loses nothing even without an
    explicit chkp."""
    from repro.server.shard import HashRing

    ring2, ring4 = HashRing(range(2)), HashRing(range(4))
    i = 0
    while ring4.lookup(f"mig-{i}") == ring2.lookup(f"mig-{i}"):
        i += 1
    name = f"mig-{i}"

    client.open_session(name, DESIGN)
    client.command(name, "instPipe p0, stage2")
    result = client.command(name, "run tb0, p0, 120")
    check(result["c0"] == 118, f"resize prep: c0={result['c0']} (want 118)")

    value = client.resize(4)
    check(value["workers"] == 4 and value["previous"] == 2,
          "resize: pool grew 2 -> 4")
    check(name in value["migrated"],
          f"resize: session {name} migrated to a new worker")
    placed = next(s["worker"] for s in client.sessions()
                  if s["session"] == name)
    check(placed == ring4.lookup(name),
          f"resize: session landed on ring-assigned worker {placed}")
    outputs = client.command(name, "peek p0")
    check(outputs["c0"] == 118,
          "resize: checkpointed state survived the migration")

    value = client.resize(2)
    check(value["workers"] == 2 and value["retired"] == [2, 3],
          "resize: pool shrank 4 -> 2, high workers retired")
    result = client.command(name, "run tb0, p0, 10")
    check(result["c0"] == 128,
          "resize: session simulates after moving back")
    check_one_owner(client, "resize")
    # Each migration checkpointed the pipe where it stood (cycle 120).
    reload_after_move(client, name, [120, "chkp", 10])
    stats = client.stats()
    check(sorted(w["id"] for w in stats["workers"]) == [0, 1],
          "resize: stats shows the shrunk pool")
    client.close_session(name)


def main():
    with tempfile.TemporaryDirectory(prefix="livesim-smoke-") as tmp:
        store = os.path.join(tmp, "artifacts")
        patch_path = os.path.join(tmp, "patch.v")
        with open(patch_path, "w") as fh:
            fh.write(PATCH)

        print("[1/3] cold server: scripted session")
        proc, host, port = start_server(store)
        try:
            client = cold_session(host, port, patch_path)
            print("      sanitized session: san report + oob edit")
            sanitize_session(client)
            print("      live trace: watch / trace / replay lines")
            trace_session(client)
        except BaseException:
            proc.kill()
            raise
        stop_server(proc, client)

        print("[2/3] warm restart: same store, zero recompiles")
        proc, host, port = start_server(store)
        try:
            client = warm_session(host, port)
        except BaseException:
            proc.kill()
            raise
        stop_server(proc, client)

        print("[3/3] sharded mode: worker kill + rehydration + resize")
        proc, host, port = start_server(
            store, workers=2, state_dir=os.path.join(tmp, "state")
        )
        try:
            client = sharded_session(host, port)
            print("      live resize: 2 -> 4 -> 2 with migration")
            resize_step(client)
        except BaseException:
            proc.kill()
            raise
        stop_server(proc, client)

    print("server smoke: all steps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
