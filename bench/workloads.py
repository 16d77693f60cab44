"""Workloads of the hypermono benchmark: seeded op lists drawn from the
recorded references, the code that runs one op through the public API, and
the correctness oracle that compares each output with its reference.

Nothing here imports hypermono at module level, so the oracle is plain
arithmetic on the recorded data and cannot share a defect with the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "references")
WORKLOADS = ("census", "n31", "growth", "rank3")

# The census draws a quarter of each dimension stratum: instances are sorted
# by their recorded time and one is taken from each block of four
# neighbours, so every seed gets the same cost profile. The six costliest
# instances (the deep NoPathFound searches, 40% of the total time) are always
# taken: drawing them would swing a run's time by seconds from seed to seed.
CENSUS_BLOCK = 4
CENSUS_TAKE_ALL = 6

GROWTH_SLOPE_TOL = 1e-9


def load_references(workload: str) -> list[dict]:
    with open(os.path.join(REF_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def census_sample(refs: list[dict], rng: random.Random) -> list[dict]:
    by_cost = sorted(refs, key=lambda r: (-r["ref_s"], r["id"]))
    out = by_cost[:CENSUS_TAKE_ALL]
    rest = by_cost[CENSUS_TAKE_ALL:]
    for n in sorted({r["n"] for r in rest}):
        stratum = [r for r in rest if r["n"] == n]
        for i in range(0, len(stratum), CENSUS_BLOCK):
            out.append(rng.choice(stratum[i:i + CENSUS_BLOCK]))
    return out


def make_ops(workload: str, seed: int, refs: list[dict]) -> list[dict]:
    """The op set for a seed: a census sample, or every reference op."""
    rng = random.Random(f"{workload}:{seed}")
    ops = census_sample(refs, rng) if workload == "census" else list(refs)
    return sorted(ops, key=lambda r: r["id"])


def pass_order(ops: list[dict], seed: int, pass_index: int) -> list[dict]:
    """Op order of one pass. It changes from pass to pass, so a one-time cost
    paid by whichever op comes first (a lazy import, a cache fill) does not
    land on the same op in every pass."""
    order = list(ops)
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def run_op(op: dict, cli, spin, examples):
    """Run one op through the public API; returns (exit code, output).

    Module attributes are looked up at call time so that the tracer's
    wrappers, when installed, see the call."""
    if op["kind"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(op["argv"])
        return code, buf.getvalue()
    ex = examples[op["example"]]
    target = ex.congruence_targets[op["target"]]
    return 0, spin.word_search([ex.X, ex.Y], target, op["max_len"])


def digest(code: int, out) -> str:
    return hashlib.sha256(repr((code, out)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def check(op: dict, ref: dict, code: int, out) -> str | None:
    """None when the output matches the reference, else the reason."""
    if code != ref["code"]:
        return f"exit code {code}, expected {ref['code']}"
    command = op["argv"][0] if op["kind"] == "cli" else "word_search"
    if command == "certify":
        if out != ref["stdout"]:
            return "certify JSON differs from the reference"
        return check_certificate_path(json.loads(out), ref["gram"])
    if command == "growth":
        return _check_growth(out, ref["stdout"])
    if command == "appendix":
        return _check_appendix(json.loads(out), json.loads(ref["stdout"]))
    if command == "word_search":
        return _check_word(out, ref)
    raise ValueError(f"no oracle for op {op['id']!r}")


def _check_growth(out: str, ref_out: str) -> str | None:
    *csv, meta = out.rstrip("\n").split("\n")
    *ref_csv, ref_meta = ref_out.rstrip("\n").split("\n")
    if csv != ref_csv:
        return "growth CSV differs from the reference"
    meta, ref_meta = json.loads(meta), json.loads(ref_meta)
    if meta["word_limit"] != ref_meta["word_limit"]:
        return f"word_limit {meta['word_limit']}, expected {ref_meta['word_limit']}"
    if abs(meta["slope"] - ref_meta["slope"]) > GROWTH_SLOPE_TOL:
        return f"slope {meta['slope']!r}, expected {ref_meta['slope']!r}"
    return None


def _check_appendix(out: dict, ref: dict) -> str | None:
    if out["checks"] != ref["checks"]:
        return "appendix checks differ from the reference"
    got, want = out["dirichlet"], ref["dirichlet"]
    if got["bounded"] != want["bounded"]:
        return f"bounded {got['bounded']}, expected {want['bounded']}"
    if len(got["vertices"]) != len(want["vertices"]):
        return (f"{len(got['vertices'])} Dirichlet vertices, "
                f"expected {len(want['vertices'])}")
    return None


def _mul2(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _inv2(a):
    (p, q), (r, s) = a
    det = p * s - q * r
    return [[s / det, -q / det], [-r / det, p / det]]


def _check_word(word, ref: dict) -> str | None:
    if word is None:
        return "no word found"
    if len(word) != ref["length"]:
        return f"word length {len(word)}, expected {ref['length']}"
    gens = [[[Fraction(x) for x in row] for row in g] for g in ref["generators"]]
    prod = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for index, sign in word:
        g = gens[index]
        prod = _mul2(prod, g if sign == 1 else _inv2(g))
    target = [[Fraction(x) for x in row] for row in ref["target_matrix"]]
    if prod != target and prod != [[-x for x in row] for row in target]:
        return "word does not multiply to +-target"
    return None


def check_certificate_path(report: dict, gram_report: dict) -> str | None:
    """Re-check a certificate's path from its own JSON against the Gram
    matrix: norm -2 vertices, consecutive pairings equal to the edge value,
    endpoints e0 and +-e1."""
    path = [[int(x) for x in v] for v in report["path"]]
    if not path:
        return None if report["status"] == "NoPathFound" else "path missing"
    gram = [[int(x) for x in row] for row in gram_report["gram"]]
    n = len(gram)
    edge = -3 if gram_report["parity"] == "EvenType" else -4

    def pair(u, w):
        return sum(u[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))

    e0 = [int(i == 0) for i in range(n)]
    e1 = [int(i == 1) for i in range(n)]
    if path[0] != e0 or path[-1] not in (e1, [-x for x in e1]):
        return "path endpoints are not e0 and +-e1"
    if any(pair(v, v) != -2 for v in path):
        return "path vertex without norm -2"
    if any(pair(u, w) != edge for u, w in zip(path, path[1:])):
        return f"consecutive path vertices do not pair to {edge}"
    return None
