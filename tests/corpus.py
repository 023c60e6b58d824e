"""Parity corpus: seeded ``gatebound`` runs whose output bytes are pinned.

Each record is one ``cli.main`` run in a fresh directory on input files made
here from fixed seeds.  Its sha256 covers the exit code, stdout, stderr
and every file the run wrote.  Only bytes that do not depend on the platform
go in: ``bound``, ``depth``, ``synth``, the error paths, and ``verify``'s
verdict and exit code; ``verify``'s error floats and all of ``grape`` come
from dense linear algebra and stay out.  ``test_corpus.py`` recomputes every
hash against ``corpus_manifest.json``.  After an output change made by
design, rewrite the manifest with

    PYTHONPATH=src python tests/corpus.py --write

which prints the ids of the records whose hash it changed; name each, and
why it moved, in CHANGES.md.

Inputs draw only on ``random.Random.random``, whose stream Python keeps
fixed across versions for an integer seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from gatebound.bounds import spec_from_list
from gatebound.cli import main
from gatebound.network import network_from_dict
from gatebound.synthesis import schedule_to_dict, synth_generator

from helpers import vu_listing

SEED = 2017
NETWORKS = 40
WIDE_SEED = 2018  # a stream of its own, so adding these moved no other input
WIDE = (("chain", 7), ("random", 8), ("chain", 9), ("random", 9), ("chain", 10),
        ("random", 10))
MANIFEST = Path(__file__).with_name("corpus_manifest.json")


@dataclass(frozen=True)
class Record:
    files: dict  # input file name -> text
    argv: tuple
    verdict_only: bool = False  # keep only verify's "pass" of stdout


def _below(rng, k: int) -> int:
    return int(rng.random() * k)


def _shuffled(rng, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = _below(rng, i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _tensor(rng, coarse: bool) -> list:
    """1 to 4 nonzero entries; coarse values tie often, fine ones seldom do."""
    g = [[0.0] * 3 for _ in range(3)]
    for slot in _shuffled(rng, range(9))[:1 + _below(rng, 4)]:
        size = (0.5, 0.75, 1.0, 1.25, 1.5)[_below(rng, 5)] if coarse else \
            round(0.5 + rng.random(), 3)
        g[slot // 3][slot % 3] = size if rng.random() < 0.5 else -size
    return g


def _listed(rng, i: int, j: int, g: list) -> dict:
    """The edge (i, j) listed either way round, its tensor transposed with it."""
    if rng.random() < 0.5:
        return {"i": i, "j": j, "g": g}
    return {"i": j, "j": i, "g": [list(col) for col in zip(*g)]}


def _random_network(rng, n: int) -> dict:
    """A random spanning tree plus up to two chords, edges in random order."""
    order = _shuffled(rng, range(n))
    pairs = {tuple(sorted((order[k], order[_below(rng, k)]))) for k in range(1, n)}
    for _ in range(_below(rng, 3)):
        u, v = _below(rng, n), _below(rng, n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    coarse = rng.random() < 0.5
    edges = [_listed(rng, i, j, _tensor(rng, coarse)) for i, j in sorted(pairs)]
    return {"n": n, "edges": _shuffled(rng, edges)}


def _word(rng, n: int, min_weight: int) -> str:
    while True:
        word = "".join("IXYZ"[_below(rng, 4)] for _ in range(n))
        if n - word.count("I") >= min_weight:
            return word


def _coeff(rng) -> float:
    a = round(0.1 + 0.9 * rng.random(), 6)
    return a if rng.random() < 0.5 else -a


def _target(rng, n: int, terms: int) -> list:
    words = [_word(rng, n, 2)]
    while len(words) < terms:
        word = _word(rng, n, 1)
        if word not in words:
            words.append(word)
    return [{"coeff": _coeff(rng), "pauli": w} for w in words]


def _text(data) -> str:
    return json.dumps(data) + "\n"


def _schedule(net: dict, target: list, epsilon: float) -> dict:
    schedule, _ = synth_generator(network_from_dict(net), spec_from_list(target), epsilon)
    return schedule_to_dict(schedule)


def _one_fault(schedule: dict, fault: int) -> dict:
    """The schedule with its first evolution given the wrong sign, a coupling
    no entry has, or its axes swapped on the same edge."""
    prims = list(schedule["primitives"])
    k = next(i for i, p in enumerate(prims) if p["kind"] == "two_body")
    p = prims[k]
    prims[k] = [dict(p, sign="+" if p["sign"] == "-" else "-"),
                dict(p, g_used=2 * p["g_used"]),
                dict(p, alpha=p["beta"], beta=p["alpha"])][fault]
    return dict(schedule, primitives=prims)


def _network_records(rng, idx: int) -> dict:
    n = 2 + idx % 5
    net = _random_network(rng, n)
    one, multi = _target(rng, n, 1), _target(rng, n, 2 + _below(rng, 2))
    s_one, s_multi = _schedule(net, one, 0.05), _schedule(net, multi, 0.05)
    fault = idx % 3
    files = {"net.json": _text(net), "one.json": _text(one), "multi.json": _text(multi)}

    def with_schedule(schedule):
        return dict(files, **{"s.json": _text(schedule)})

    verify_multi = ("verify", "net.json", "multi.json", "--epsilon", "0.05",
                    "--schedule", "s.json")
    return {
        "bound-one": Record(files, ("bound", "net.json", "one.json", "--epsilon", "0.05")),
        "bound-multi": Record(files, ("bound", "net.json", "multi.json", "--epsilon", "0.05")),
        "bound-multi-exact": Record(files, ("bound", "net.json", "multi.json", "--epsilon",
                                            "0.05", "--exact-depths", "-o", "b.json")),
        "synth-one": Record(files, ("synth", "net.json", "one.json", "--epsilon", "0.05",
                                    "-o", "s.json")),
        "synth-multi": Record(files, ("synth", "net.json", "multi.json", "--epsilon", "0.05")),
        "verify-one": Record(files, ("verify", "net.json", "one.json", "--epsilon", "0.05"),
                             True),
        "verify-multi-schedule": Record(with_schedule(s_multi), verify_multi, True),
        "verify-multi-schedule-vu": Record(with_schedule(vu_listing(s_multi)),
                                           verify_multi, True),
        "verify-one-schedule-vu": Record(
            with_schedule(vu_listing(s_one)),
            ("verify", "net.json", "one.json", "--epsilon", "0.05", "--schedule", "s.json"),
            True),
        "verify-other-schedule": Record(
            with_schedule(s_one),
            ("verify", "net.json", "multi.json", "--epsilon", "0.05", "--schedule", "s.json"),
            True),
        f"refused-fault{fault}-uv": Record(with_schedule(_one_fault(s_multi, fault)),
                                           verify_multi, True),
        f"refused-fault{fault}-vu": Record(
            with_schedule(vu_listing(_one_fault(s_multi, fault))), verify_multi, True),
        "depth-word": Record(files, ("depth", "net.json", _word(rng, n, 2), "-o", "d.json")),
        "depth-any-word": Record(files, ("depth", "net.json", _word(rng, n, 1))),
        "depth-table": Record(files, ("depth", "net.json", "--table", "-o", "t.json")),
    }


def _grid(rng, rows: int, cols: int) -> dict:
    g = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    edges = []
    for v in range(rows * cols):
        if v % cols + 1 < cols:
            edges.append(_listed(rng, v, v + 1, g))
        if v + cols < rows * cols:
            edges.append(_listed(rng, v, v + cols, g))
    return {"n": rows * cols, "edges": _shuffled(rng, edges)}


def _grid_records(rng, rows: int, cols: int) -> dict:
    n = rows * cols
    corners = ["I"] * n
    for q in (0, cols - 1, n - cols, n - 1):
        corners[q] = "Z"
    corners = "".join(corners)
    files = {"net.json": _text(_grid(rng, rows, cols)),
             "one.json": _text([{"coeff": 0.5, "pauli": corners}]),
             "multi.json": _text(_target(rng, n, 3))}
    return {
        "depth-corners": Record(files, ("depth", "net.json", corners)),
        "depth-table": Record(files, ("depth", "net.json", "--table")),
        "bound-multi-exact": Record(files, ("bound", "net.json", "multi.json", "--epsilon",
                                            "0.1", "--exact-depths")),
        "synth-one": Record(files, ("synth", "net.json", "one.json", "--epsilon", "0.1",
                                    "-o", "s.json")),
        "synth-multi": Record(files, ("synth", "net.json", "multi.json", "--epsilon", "0.1")),
    }


def _wide_records(rng) -> dict:
    """``verify --schedule`` of one full-support word on 7 to 10 qubits, more
    than any other record simulates; every other schedule is listed (v, u),
    and the 8-qubit target has a second term that anticommutes with it."""
    out = {}
    for idx, (kind, n) in enumerate(WIDE):
        if kind == "chain":
            coarse = rng.random() < 0.5
            net = {"n": n, "edges": [_listed(rng, k, k + 1, _tensor(rng, coarse))
                                     for k in range(n - 1)]}
        else:
            net = _random_network(rng, n)
        target = [{"coeff": _coeff(rng), "pauli": "".join("XYZ"[_below(rng, 3)]
                                                          for _ in range(n))}]
        while n == 8 and len(target) == 1:  # a second term that anticommutes
            word = _word(rng, n, 1)
            if sum("I" != a != b != "I" for a, b in zip(word, target[0]["pauli"])) % 2:
                target.append({"coeff": _coeff(rng), "pauli": word})
        schedule = _schedule(net, target, 0.05)
        files = {"net.json": _text(net), "one.json": _text(target),
                 "s.json": _text(vu_listing(schedule) if idx % 2 else schedule)}
        out[f"{kind}{n}/verify-schedule"] = Record(
            files, ("verify", "net.json", "one.json", "--epsilon", "0.05",
                    "--schedule", "s.json"), True)
    return out


def _preset_records() -> dict:
    out = {}
    for kind in ("ising_chain", "heisenberg_chain", "star"):
        for n in (-1, 0, 1, 2, 3):
            word = "Z" * max(n, 2)
            files = {"net.json": _text({"preset": kind, "n": n, "J": 1.0}),
                     "one.json": _text([{"coeff": 0.7853981633974483, "pauli": word}])}
            out[f"{kind}{n}/bound"] = Record(files, ("bound", "net.json", "one.json",
                                                     "--epsilon", "0.05"))
            out[f"{kind}{n}/synth"] = Record(files, ("synth", "net.json", "one.json",
                                                     "--epsilon", "0.05", "-o", "s.json"))
            out[f"{kind}{n}/verify"] = Record(files, ("verify", "net.json", "one.json",
                                                      "--epsilon", "0.05"), True)
            out[f"{kind}{n}/depth-table"] = Record(files, ("depth", "net.json", "--table"))
    return out


PATH3 = {"n": 3, "edges": [{"i": 0, "j": 1, "g": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
                           {"i": 2, "j": 1, "g": [[0, 0, 0], [0, 0.5, 0], [0, 0, 1.0]]}]}
ZZZ = [{"coeff": 0.7853981633974483, "pauli": "ZZZ"}]


def _error_records() -> dict:
    """One fault each: bad files, refused networks, targets and schedules."""
    net, zzz = _text(PATH3), _text(ZZZ)
    good = _schedule(PATH3, ZZZ, 0.05)
    evo = next(p for p in good["primitives"] if p["kind"] == "two_body")
    rot = next(p for p in good["primitives"] if p["kind"] == "local")

    def network(data):
        return {"net.json": data if isinstance(data, str) else _text(data), "one.json": zzz}

    def edge(i, j, g):
        return {"n": 3, "edges": [{"i": 0, "j": 1, "g": [[0, 0, 1.0]] * 3},
                                  {"i": i, "j": j, "g": g}]}

    def target(data):
        return {"net.json": net, "one.json": data if isinstance(data, str) else _text(data)}

    def schedule(prims, **fields):
        return {"net.json": net, "one.json": zzz,
                "s.json": _text(dict(good, primitives=prims, **fields))}

    zz = [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]
    bound = ("bound", "net.json", "one.json", "--epsilon", "0.05")
    verify = ("verify", "net.json", "one.json", "--epsilon", "0.05", "--schedule", "s.json")
    cases = {
        "edgeless2": (network({"n": 2, "edges": []}), bound),
        "edgeless3": (network({"n": 3, "edges": []}), bound),
        "disconnected": (network({"n": 4, "edges": [{"i": 0, "j": 1, "g": zz},
                                                    {"i": 2, "j": 1, "g": zz},
                                                    {"i": 0, "j": 2, "g": zz}]}), bound),
        "edge-twice": (network({"n": 3, "edges": [{"i": 0, "j": 1, "g": zz},
                                                  {"i": 1, "j": 2, "g": zz},
                                                  {"i": 2, "j": 1, "g": zz}]}), bound),
        "self-loop": (network(edge(2, 2, zz)), bound),
        "edge-outside": (network(edge(1, 3, zz)), bound),
        "tensor-not-3x3": (network(edge(1, 2, [[1.0, 0.0]] * 3)), bound),
        "tensor-zero": (network(edge(2, 1, [[0.0] * 3] * 3)), bound),
        "tensor-bool": (network(edge(1, 2, [[True, 0, 0]] * 3)), bound),
        "control-model": (network(dict(PATH3, control_model="none")), bound),
        "omega-shape": (network(dict(PATH3, omega=[[0, 0, 0]])), bound),
        "network-list": (network("[1, 2]\n"), bound),
        "network-empty-file": (network(""), bound),
        "network-non-finite": (network('{"n": 3, "edges": [], "omega": 1e999}\n'), bound),
        "preset-unknown": (network({"preset": "ring", "n": 3}), bound),
        "preset-too-large": (network({"preset": "ising_chain", "n": 10001}), bound),
        "preset-float-n": (network({"preset": "ising_chain", "n": 3.0}), bound),
        "preset-zero-coupling": (network({"preset": "ising_chain", "n": 3, "J": 0}), bound),
        "missing-file": ({"one.json": zzz}, bound),
        "target-object": (target({"coeff": 1.0}), bound),
        "target-empty": (target([]), bound),
        "target-bool-coeff": (target([{"coeff": True, "pauli": "ZZZ"}]), bound),
        "target-string-coeff": (target([{"coeff": "1", "pauli": "ZZZ"}]), bound),
        "target-bad-char": (target([{"coeff": 1.0, "pauli": "ZQZ"}]), bound),
        "target-size": (target([{"coeff": 1.0, "pauli": "ZZZZ"}]), bound),
        "target-identity": (target([{"coeff": 1.0, "pauli": "III"}]), bound),
        "epsilon-zero": (network(PATH3), bound[:-1] + ("0",)),
        "epsilon-negative": (network(PATH3), bound[:-1] + ("-1",)),
        "epsilon-nan": (network(PATH3), bound[:-1] + ("nan",)),
        "depth-word-and-table": (network(PATH3), ("depth", "net.json", "ZZZ", "--table")),
        "depth-neither": (network(PATH3), ("depth", "net.json")),
        "depth-wrong-size": (network(PATH3), ("depth", "net.json", "ZZ")),
        "depth-weight0": (network(PATH3), ("depth", "net.json", "III")),
        "depth-bad-char": (network(PATH3), ("depth", "net.json", "ZQZ")),
        "verify-past-cap": (
            {"net.json": _text({"preset": "ising_chain", "n": 11}),
             "one.json": _text([{"coeff": 0.5, "pauli": "Z" * 11}])},
            ("verify", "net.json", "one.json", "--epsilon", "0.05")),
        "schedule-label-Z": (schedule([dict(evo, alpha="Z")]), verify),
        "schedule-missing-edge": (schedule([dict(evo, edge=[0, 2], angle=0.0)]), verify),
        "schedule-missing-edge-vu": (schedule([dict(evo, edge=[2, 0], angle=0.0)]), verify),
        "schedule-sign-symbol": (schedule([dict(evo, sign="*")]), verify),
        "schedule-negative-angle": (schedule([dict(evo, angle=-0.5)]), verify),
        "schedule-zero-coupling": (schedule([dict(evo, g_used=0.0)]), verify),
        "schedule-edge-self": (schedule([dict(evo, edge=[1, 1])]), verify),
        "schedule-unknown-kind": (schedule([dict(evo, kind="three_body")]), verify),
        "schedule-axis-not-unit": (schedule([dict(rot, axis=[1.0, 1.0, 0.0])]), verify),
        "schedule-qubit-outside": (schedule([dict(rot, qubit=3)]), verify),
        "schedule-repeat-zero": (schedule(good["primitives"], repeat=0), verify),
        "schedule-size": (schedule(good["primitives"], n=4), verify),
        "schedule-no-primitives": ({"net.json": net, "one.json": zzz,
                                    "s.json": _text({"n": 3})}, verify),
        "schedule-wrong-target": (
            {"net.json": net, "one.json": _text([{"coeff": 0.5, "pauli": "XZX"}]),
             "s.json": _text(good)}, verify),
    }
    return {key: Record(files, argv, argv[0] == "verify")
            for key, (files, argv) in cases.items()}


def records() -> dict[str, Record]:
    """Every record by id, built from ``SEED`` in a fixed order."""
    rng = random.Random(SEED)
    out = {}
    for idx in range(NETWORKS):
        for key, record in _network_records(rng, idx).items():
            out[f"net{idx:02d}/{key}"] = record
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        for key, record in _grid_records(rng, rows, cols).items():
            out[f"grid{rows}x{cols}/{key}"] = record
    out.update((f"wide/{key}", record)
               for key, record in _wide_records(random.Random(WIDE_SEED)).items())
    out.update(_preset_records())
    out.update((f"error/{key}", record) for key, record in _error_records().items())
    return out


def run(record: Record) -> str:
    """sha256 of one run: exit code, stdout, stderr and every file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in record.files.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(record.argv))
        finally:
            os.chdir(cwd)
        written = {p.name: p.read_text() for p in sorted(Path(tmp).iterdir())
                   if p.name not in record.files}
    stdout = out.getvalue()
    if record.verdict_only and stdout:
        stdout = json.loads(stdout)["pass"]
    blob = json.dumps({"exit": code, "stdout": stdout, "stderr": err.getvalue(),
                       "files": written}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def hashes() -> dict[str, str]:
    return {key: run(record) for key, record in records().items()}


def moved(got: dict[str, str]) -> list[str]:
    """Ids of the records whose hash in ``got`` differs from the manifest's,
    or that only one of the two has, sorted."""
    expected = json.loads(MANIFEST.read_text())
    return sorted(key for key in expected.keys() | got.keys()
                  if expected.get(key) != got.get(key))


def write_manifest() -> list[str]:
    """Rewrite the manifest from this tree's runs; the ids whose hash it changed."""
    got = hashes()
    changed = moved(got)
    MANIFEST.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
    return changed


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/corpus.py --write")
    changed = write_manifest()
    print(f"{len(changed)} records moved", *changed, sep="\n")
