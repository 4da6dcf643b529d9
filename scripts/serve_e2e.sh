#!/usr/bin/env bash
# End-to-end exercise of the v2d-serve daemon over its Unix socket.
#
# Starts the daemon single-worker (so queue order is deterministic),
# occupies the worker with a slow deck, and then — while that job runs —
# submits the scripted mix the service must multiplex correctly:
#
#   * a duplicate pair (same deck modulo comments/whitespace): both
#     responses must carry byte-identical "result" members, exactly one
#     computed and one deduped, and the daemon's dedup counter must be
#     nonzero;
#   * a priority pair: the high-priority submission queued later must
#     complete before the earlier default-priority one;
#   * a cancellation: answered `cancelled` immediately, with a
#     `cancelled` cancel-ack;
#   * a rank-kill spec: 2 ranks, rank 0 killed mid-run — the response
#     must carry a RecoveryLedger showing the supervised recovery;
#   * a registry scenario by name: `[problem] family = sedov` runs the
#     Sedov blast (hydro enabled) through the same queue.  A duplicate
#     sedov pair must dedupe (the canonical deck hashes the problem.*
#     keys), while the byte-wise twin *without* the family line runs
#     the legacy pulse and must hash apart;
#   * once that batch is answered, on the same connection: a noisy
#     respelling of the completed duplicate deck (reordered sections,
#     upper-cased names, comments, padding) must come back
#     `result-cache` with a "result" member byte-identical to the
#     computed one, a line that is not UTF-8 must be answered with an
#     `error`, and so must a submit with an unknown fault kind (the
#     error lists the five a client may request), and so must a sedov
#     deck with `hydro.cfl = 0.95` (the error names the key: the run
#     would panic), while the request after them is still answered;
#   * a status probe and a shutdown handshake (drain + bye).
#
# Exits non-zero (with the offending line) on any violated assertion.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f Cargo.toml || ! -d crates/serve ]]; then
    echo "error: serve_e2e.sh must run against the v2d repo root, but landed in $PWD" >&2
    exit 2
fi

echo "building v2d-serve …"
cargo build --release -p v2d --bin v2d-serve

SOCK="${SOCK:-$(mktemp -u /tmp/v2d_serve_e2e_XXXXXX.sock)}"
./target/release/v2d-serve --socket "$SOCK" --workers 1 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; rm -f "$SOCK"' EXIT

for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.1
done
[[ -S "$SOCK" ]] || { echo "daemon never bound $SOCK" >&2; exit 1; }

python3 - "$SOCK" <<'EOF'
import json, socket, sys

sock_path = sys.argv[1]

def deck(n1, n2, steps, np1=1, np2=1, every=0, ks2="2.0", comment=""):
    return (
        f"{comment}[grid]\nn1 = {n1}\nn2 = {n2}\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n"
        f"[run]\ndt = 0.01\nn_steps = {steps}\nnprx1 = {np1}\nnprx2 = {np2}\n"
        f"checkpoint_every = {every}\n"
        f"[radiation]\nlimiter = none\nkappa_a = 0.0 0.0\nkappa_s = 2.0 {ks2}\n"
    )

def sedov_deck(comment="", family="[problem]\nfamily = sedov\n\n", cfl="0.4"):
    # Mirrors problems::Scenario::deck for the Sedov family; dropping
    # `family` (empty string) yields the byte-wise legacy twin that must
    # hash apart from the named scenario.
    return (
        f"{comment}{family}[grid]\nn1 = 16\nn2 = 16\nx1 = 0.0 1.0\nx2 = 0.0 1.0\n"
        "[run]\ndt = 0.005\nn_steps = 3\nnprx1 = 1\nnprx2 = 1\n"
        "[radiation]\nlimiter = none\nkappa_a = 0.0 0.0\nkappa_s = 2.0 2.0\n"
        f"[hydro]\nenabled = true\ngamma = 1.4\ncfl = {cfl}\n"
        "bc_west = reflecting\nbc_east = reflecting\n"
        "bc_south = reflecting\nbc_north = reflecting\n"
    )

def submit(id, d, priority=0, faults=None):
    r = {"req": "submit", "id": id, "deck": d, "priority": priority}
    if faults:
        r["faults"] = faults
    return r

# One batch, written before reading anything: the slow job pins the
# single worker, so everything after it is admitted while queued and the
# dedupe / priority / cancel decisions are deterministic.
requests = [
    submit("slow", deck(64, 32, 6)),
    submit("dup-a", deck(16, 8, 3)),
    submit("dup-b", deck(16, 8, 3, comment="# same physics, different text\n")),
    submit("lo", deck(20, 10, 3, ks2="2.000000001")),
    submit("hi", deck(20, 10, 3, ks2="2.000000002"), priority=5),
    submit("cxl", deck(24, 12, 3, ks2="2.000000003")),
    {"req": "cancel", "id": "cxl-c", "target": "cxl"},
    submit("kill", deck(16, 8, 4, np1=2, np2=1, every=1),
           faults=[{"step": 2, "rank": 0, "kind": "rank-kill"}]),
    submit("sed-a", sedov_deck()),
    submit("sed-b", sedov_deck(comment="# same blast, different text\n")),
    submit("sed-plain", sedov_deck(family="")),
]

# The dup pair's deck respelled: sections reversed and re-cased, keys
# reordered and re-cased, comments and padding.  Same canonical deck.
respelled = (
    "# the dup pair again, spelled differently\n"
    "[ RADIATION ]\n  KAPPA_S =   2.0 2.0   # trailing comment\nkappa_a=0.0 0.0\nLimiter = none\n\n"
    "[Run]\ncheckpoint_every = 0\nNPRX2 = 1\nnprx1 = 1\nN_Steps = 3\ndt = 0.01\n"
    "[grid]\nx2 = 0.0 1.0\nx1 = 0.0 2.0\nn2 = 8\nN1 = 16\n"
)
# Sent after the first batch is answered, so the dup pair has completed
# and the respelling must be a result-cache hit.
second = [
    json.dumps(submit("respelled", respelled)).encode() + b"\n",
    b"\xff\xfe not utf-8 {\"req\":\"status\"}\n",
    json.dumps(submit("warp", deck(16, 8, 3), faults=[{"step": 1, "kind": "warp"}])).encode()
    + b"\n",
    json.dumps(submit("cfl", sedov_deck(cfl="0.95"))).encode() + b"\n",
    json.dumps({"req": "status", "id": "st"}).encode() + b"\n",
    json.dumps({"req": "shutdown", "id": "bye"}).encode() + b"\n",
]

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sock_path)
s.settimeout(120)
buf = b""

def read_lines(n):
    global buf
    got = []
    while len(got) < n:
        while b"\n" in buf and len(got) < n:
            line, buf = buf.split(b"\n", 1)
            if line.strip():
                got.append(line.decode())
        if len(got) == n:
            break
        chunk = s.recv(65536)
        if not chunk:
            break
        buf += chunk
    assert len(got) == n, f"expected {n} responses, got {len(got)}:\n" + "\n".join(got)
    return got

s.sendall(("".join(json.dumps(r) + "\n" for r in requests)).encode())
lines = read_lines(len(requests))  # one response per request
s.sendall(b"".join(second))
tail = read_lines(len(second))
s.close()
lines += tail

by_id = {}
order = []
for line in lines:
    obj = json.loads(line)
    by_id[obj["id"]] = (obj, line)
    order.append(obj["id"])
print("response order:", " ".join(order))

def result_member(line):
    # Raw bytes of the trailing "result" member — byte identity, not
    # merely parsed equality.
    return line.split('"result":', 1)[1]

# 1. Duplicate pair: identical bytes, one computed + one deduped.
da, la = by_id["dup-a"]
db, lb = by_id["dup-b"]
assert result_member(la) == result_member(lb), f"duplicate results differ:\n{la}\n{lb}"
sources = {da["source"], db["source"]}
assert sources == {"computed", "dedup"}, f"duplicate pair sources {sources}"
assert da["result"]["outcome"] == "done", la

# 2. Priority pair: "hi" (queued later, priority 5) completes first.
assert order.index("hi") < order.index("lo"), \
    f"priority inversion: hi answered after lo ({order})"

# 3. Cancellation: immediate cancelled result + cancelled ack.
cxl, lc = by_id["cxl"]
assert cxl["result"]["outcome"] == "cancelled", lc
ack, lk = by_id["cxl-c"]
assert ack["outcome"] == "cancelled", lk

# 4. Rank-kill spec: recovered, with a ledger proving the recovery.
kill, lkill = by_id["kill"]
assert kill["result"]["outcome"] == "done", lkill
ledger = kill["result"].get("ledger")
assert ledger and ledger["kills"] >= 1 and ledger["attempts"] >= 2, lkill
print(f"kill recovered: {ledger['kills']} kill(s), {ledger['attempts']} attempts, "
      f"{ledger['rollbacks']} rollback(s)")

# 5. Registry scenario by name: the sedov pair dedupes byte-identically,
#    and the family-less twin runs the legacy pulse under a different
#    content hash (the canonical deck carries the problem.* keys).
sa, lsa = by_id["sed-a"]
sb, lsb = by_id["sed-b"]
assert sa["result"]["outcome"] == "done", lsa
assert result_member(lsa) == result_member(lsb), f"sedov duplicates differ:\n{lsa}\n{lsb}"
sed_sources = {sa["source"], sb["source"]}
assert sed_sources == {"computed", "dedup"}, f"sedov pair sources {sed_sources}"
sp, lsp = by_id["sed-plain"]
assert sp["result"]["outcome"] == "done", lsp
assert sp["source"] == "computed", f"family-less twin deduped against the scenario: {lsp}"
assert sp["result"]["bits_fnv32"] != sa["result"]["bits_fnv32"], \
    f"sedov and legacy twin agree bit-for-bit: {lsa}\n{lsp}"
print(f"sedov by name: checksum {sa['result']['bits_fnv32']:#010x}, "
      f"legacy twin {sp['result']['bits_fnv32']:#010x}")

# 6. Live telemetry: the dedup counter is visible and nonzero.
st, _ = by_id["st"]
deduped = st["metrics"]["serve.deduped"]["value"]
assert deduped >= 1, f"serve.deduped = {deduped}"
print(f"serve.deduped = {deduped}")

# 7. A noisy respelling of the completed duplicate deck is a result-cache
#    hit carrying the computed bytes.
rs, lrs = by_id["respelled"]
assert rs["source"] == "result-cache", f"respelled deck was not a cache hit: {lrs}"
assert result_member(lrs) == result_member(la), f"cached result differs:\n{la}\n{lrs}"

# 8. A line that is not UTF-8 is answered with an error, in order, and
#    the session goes on: the status request after it is answered.
bad = json.loads(tail[1])
assert bad["resp"] == "error" and bad["id"] == "", f"non-UTF-8 line: {tail[1]}"
print(f"non-UTF-8 line answered: {bad['error']}")

# 9. An unknown fault kind is an error naming the five kinds a client
#    may request, in order, and the session goes on: the status request
#    after it is answered.
warp = json.loads(tail[2])
kinds = "rank-kill, rank-stall-forever, field-nan, field-inf, solver-breakdown"
assert warp["resp"] == "error" and warp["error"].endswith(f"(valid: {kinds})"), \
    f"unknown fault kind: {tail[2]}"
print(f"unknown fault kind answered: {warp['error']}")

# 10. A CFL number the hydro stepper cannot run is an error naming
#     `hydro.cfl`, not a run that panics unanswered, and the session goes
#     on: the status request after it is answered.
cfl = json.loads(tail[3])
assert cfl["resp"] == "error" and cfl["id"] == "cfl" and "hydro.cfl" in cfl["error"], \
    f"cfl 0.95: {tail[3]}"
assert json.loads(tail[4])["id"] == "st", f"request after the bad lines: {tail[4]}"
print(f"cfl 0.95 answered: {cfl['error']}")

# 11. Shutdown handshake.
assert by_id["bye"][0]["resp"] == "bye"
print("serve e2e: all assertions passed")
EOF

wait "$DAEMON"
echo "daemon exited cleanly"
