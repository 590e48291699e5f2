"""Independent checkers for k3walls outputs.

Nothing here imports k3walls.  Each checker recomputes what it judges from
the closed formulas (rho, rho_k, the balanced decomposition identities), from
plain-integer Mukai pairings, or from the definitions (tableau validity, wall
slopes from Z at b = 0), and raises ``Wrong`` on a wrong answer.

``self_test`` feeds every checker one right and one known-wrong output, so a
checker that stopped looking shows up before any timing starts:

    python3 bench/oracles.py
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction


class Wrong(Exception):
    """An operation answered, and the answer is wrong."""


class Failed(Exception):
    """An operation gave no answer: a traceback, or no JSON document."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# --------------------------------------------------------------- formulas

def rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def rho_k(g: int, k: int, r: int, d: int) -> tuple[int, list[int]]:
    values = [rho(g, r - ell, d) - ell * k for ell in range(r + 1)]
    best = max(values)
    return best, [ell for ell, value in enumerate(values) if value == best]


def balanced_split(r: int, ell: int) -> tuple[int, int, int]:
    """(e, m1, m2) with r+1 = m1(e+2) + m2(e+1), ell = e(r+1-ell) + m1, 0 <= m1 < m1+m2."""
    width = r + 1 - ell
    return ell // width, ell % width, width - ell % width


def balanced_pairs(r: int, ell: int) -> list[list[int]]:
    e, m1, m2 = balanced_split(r, ell)
    return ([[e + 1, m1]] if m1 else []) + [[e, m2]]


def pairing(g: int, k: int, a: tuple, b: tuple) -> int:
    """Mukai pairing of (r, x, y, s) classes on Z.H + Z.E, H^2 = 2g-2, H.E = k, E^2 = 0."""
    ra, xa, ya, sa = a
    rb, xb, yb, sb = b
    return xa * xb * (2 * g - 2) + (xa * yb + xb * ya) * k - ra * sb - rb * sa


def minus(a: tuple, b: tuple, m: int = 1) -> tuple:
    return tuple(x - m * y for x, y in zip(a, b))


def pencil(e: int) -> tuple:
    return (1, 0, e, 1)


def axis_slope(g: int, k: int, eps: Fraction, v: tuple, w: Fraction):
    """-Re Z / Im Z at (b, w) = (0, w) for H_eps = E + eps*H; None when Im Z = 0."""
    r, x, y, s = v
    h_eps_sq = 2 * eps * k + eps * eps * (2 * g - 2)
    im = x * (k + eps * (2 * g - 2)) + y * eps * k
    re = -(s - r) + w * r * h_eps_sq
    return None if im == 0 else -re / im


def parse_vector(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


# ------------------------------------------------------- report envelopes

def parse_document(stdout: bytes, stderr: bytes) -> dict:
    """The one JSON document a call prints; ``Failed`` when there is none."""
    text = stdout.decode("utf-8", "replace")
    if not text.strip():
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or ["no output"]
        raise Failed(f"no JSON document on stdout ({tail[0]})")
    expect(text.endswith("\n") and text.count("\n") == 1, "stdout is not one JSON line")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Wrong(f"stdout is not JSON: {exc}") from exc


def check_report(doc: dict, command: str) -> dict:
    expect(set(doc) == {"schema_version", "command", "inputs", "result", "warnings"},
           f"report keys {sorted(doc)}")
    expect(doc["schema_version"] == "1" and doc["command"] == command, "report header")
    expect(isinstance(doc["warnings"], list), "warnings is not a list")
    return doc["result"]


def check_error(doc: dict, code: str) -> None:
    expect(set(doc) == {"schema_version", "error"}, f"error document keys {sorted(doc)}")
    err = doc["error"]
    expect(isinstance(err, dict) and isinstance(err.get("message"), str), "error body")
    expect(isinstance(err.get("code"), str), "error code is not a string")
    expect(code == "*" or err["code"] == code, f"error code {err['code']!r}, expected {code!r}")


# ------------------------------------------------------------- per command

def check_rho(p: dict, res: dict) -> None:
    expect(res == {"rho": rho(p["g"], p["r"], p["d"])}, f"rho {res}")


def check_rho_k(p: dict, res: dict) -> None:
    value, argmax = rho_k(p["g"], p["k"], p["r"], p["d"])
    expect(res == {"rho_k": value, "argmax_ell": argmax}, f"rho_k {res}")


def check_decompose(p: dict, res: dict) -> None:
    r, ell = p["r"], p["ell"]
    e, m1, m2 = res["e"], res["m1"], res["m2"]
    expect(res["ell"] == ell, "ell echoed wrong")
    expect(r + 1 == m1 * (e + 2) + m2 * (e + 1), f"r+1 != m1(e+2)+m2(e+1) for {res}")
    expect(ell == e * (r + 1 - ell) + m1, f"ell != e(r+1-ell)+m1 for {res}")
    expect(e >= 0 and 0 <= m1 < m1 + m2 and m2 >= 1, f"split out of range {res}")
    if "g" in p:
        deg = res["degeneracy"]
        want = rho(p["g"], r - ell, p["d"]) - ell * p["k"]
        expect(deg["expected_dim"] == want, f"expected_dim {deg['expected_dim']} != {want}")
        expect(f"e+2 = {e + 2}" in deg["h0_conditions"] and f"m1 = {m1}" in deg["h0_conditions"],
               "h0_conditions disagree with (e, m1)")
    else:
        expect("degeneracy" not in res, "degeneracy block without --g/--k/--d")


def valid_type(pairs, r: int, refined: bool) -> bool:
    """Section-count constraints of a destabilization type, from their statement."""
    total = sum(m for _, m in pairs)
    sections = sum(m * (e + 1) for e, m in pairs)
    e1, m1 = pairs[0]
    if not total <= r + 1 <= sections or m1 * (e1 + 1) > r + 1:
        return False
    if refined:
        if len(pairs) == 1 and e1 >= 1:
            return 2 * m1 <= r + 1
        return 2 * sum(m for _, m in pairs[:-1]) + pairs[-1][1] <= r + 1
    return True


def all_types(r: int, refined: bool) -> list[list[tuple[int, int]]]:
    """Every valid type for r, in canonical order (length, then e1, m1, e2, ...)."""
    found = []
    stack = [((), r, r + 1)]
    while stack:
        prefix, e_max, left = stack.pop()
        if prefix and valid_type(prefix, r, refined):
            found.append(list(prefix))
        for e in range(e_max + 1):
            for m in range(1, left + 1):
                stack.append((prefix + ((e, m),), e - 1, left - m))
    return sorted(found, key=lambda t: (len(t), [x for pair in t for x in pair]))


def type_dimension(g: int, k: int, v: tuple, pairs) -> tuple[int, int]:
    """(stratum dimension, residual square) from the defining formula."""
    running, correction = v, 0
    for e, m in pairs:
        running = minus(running, pencil(e), m)
        correction += m * (pairing(g, k, running, pencil(e)) - m)
    square = pairing(g, k, running, running)
    return square + 2 + correction, square


def type_verdict(k: int, v: tuple, pairs, square: int) -> str:
    """Emptiness verdict: a residual square below -2 empties the stratum; a balanced
    type on a rank <= 0 class is non-empty within the multiplicity bound."""
    if square < -2:
        return "empty_by_necessity"
    r0, x, y, s = v
    balanced = len(pairs) == 1 or (len(pairs) == 2 and pairs[0][0] == pairs[1][0] + 1)
    if not (balanced and r0 <= 0 and x == 1 and y <= 0):
        return "unknown"
    total = sum(m for _, m in pairs)
    if s - r0 < 0:
        return "non_empty" if total <= k + r0 else "unknown"
    if s - r0 == 0 and r0 == 0:
        return "non_empty" if total < k else "unknown"
    return "unknown"


def check_types(p: dict, res: dict) -> None:
    g, k, r = p["g"], p["k"], p["r"]
    v = parse_vector(p["v"])
    expect(v[:3] == (0, 1, 0), "checker covers v = (0, H, 1+d-g) only")
    d = v[3] + g - 1
    want = all_types(r, p["refined"])
    rows = []
    for pairs in want:
        dim, square = type_dimension(g, k, v, pairs)
        if p["square_filter"] and square < -2:
            continue
        rows.append((pairs, dim, square))
    items = res["items"]
    expect(res["r"] == r and res["refined"] == p["refined"]
           and res["square_filtered"] == p["square_filter"], "types header")
    expect(len(items) == len(rows), f"{len(items)} types, expected {len(rows)}")
    for item, (pairs, dim, square) in zip(items, rows):
        expect(item["type"] == [list(pair) for pair in pairs], f"type {item['type']} != {pairs}")
        ell = r + 1 - sum(m for _, m in pairs)
        bound = g + rho(g, r - ell, d) - ell * k
        expect(item["ell"] == ell, f"ell {item['ell']} != {ell} for {pairs}")
        expect(item["dim"] == dim, f"dim {item['dim']} != {dim} for {pairs}")
        expect(dim <= bound, f"dim {dim} above the bound {bound} for {pairs}")
        if sum(m * (e + 1) for e, m in pairs) == r + 1:
            expect(dim == bound, f"saturated type {pairs} has dim {dim} != bound {bound}")
        expect(item["verdict"] == type_verdict(k, v, pairs, square),
               f"verdict {item['verdict']} for {pairs}")


def check_walls(p: dict, res: dict) -> None:
    g, k = p["g"], p["k"]
    eps = Fraction(res["eps"])
    expect(eps > 0, "eps must be positive")
    pairs = json.loads(p["type"])
    walls = res["walls"]
    expect(len(walls) == len(pairs), f"{len(walls)} walls for {len(pairs)} pairs")
    running = parse_vector(p["v"])
    ws = []
    for wall, (e, m) in zip(walls, pairs):
        w = Fraction(wall["w"])
        ws.append(w)
        d = wall["destabilizer"]
        expect((d["r"], d["x"], d["y"], d["s"]) == pencil(e), f"destabilizer {d} for e={e}")
        left, right = axis_slope(g, k, eps, running, w), axis_slope(g, k, eps, pencil(e), w)
        if left is None or right is None:
            expect(wall["kind"] == "origin_ray" and w == 0 and "e" not in wall,
                   f"vanishing Im needs the origin ray, got {wall}")
        else:
            expect(wall["kind"] == "line_bundle" and wall.get("e") == e, f"wall kind {wall}")
            expect(left == right, f"slopes {left} != {right} at w = {w}")
        running = minus(running, pencil(e), m)
    expect(all(a > b for a, b in zip(ws, ws[1:])), f"walls not strictly decreasing: {ws}")


def check_tableau(p: dict, res: dict) -> None:
    """The k-uniform displacement conditions, checked cell by cell on the witness."""
    g, k, r, d = p["g"], p["k"], p["r"], p["d"]
    value, argmax = rho_k(g, k, r, d)
    expect(res["rho_k"] == value and res["argmax_ell"] == argmax, f"rho_k {res['rho_k']}")
    expect(res["feasible"] == (value >= 0), f"feasible {res['feasible']} with rho_k {value}")
    if not res["feasible"]:
        expect(res["omitted"] is None and res["witness"] is None and res["equality"] is False,
               "an infeasible report carries a tableau")
        return
    grid = res["witness"]
    rows, cols = r + 1, g - d + r
    expect(len(grid) == rows and all(len(row) == cols for row in grid), "witness shape")
    residue = {}
    for x in range(rows):
        for y in range(cols):
            label = grid[x][y]
            expect(1 <= label <= g, f"label {label} outside [1, {g}]")
            expect(y == 0 or grid[x][y - 1] < label, f"row {x} not increasing")
            expect(x == 0 or grid[x - 1][y] < label, f"column {y} not increasing")
            expect(residue.setdefault(label, (x - y) % k) == (x - y) % k,
                   f"label {label} repeats on diagonals of different residue mod {k}")
    expect(g - len(residue) == res["omitted"], f"omitted {res['omitted']} != g - #labels")
    expect(res["omitted"] == value and res["equality"] is True,
           f"omitted {res['omitted']} != rho_k {value}")


def check_chain(p: dict, res: dict) -> None:
    g, r, d = p["g"], p["r"], p["d"]
    comps = res["components"]
    expect([c["a"] for c in comps] == list(range(1, g + 1)), "components are not 1..g")
    expect(comps[0]["in"] == [0] * (r + 1), "first incoming sequence is not zero")
    zero_range = (r + 1) * (g - d + r)
    for c in comps:
        for seq in (c["in"], c["out"]):
            expect(len(seq) == r + 1 and seq == sorted(seq) and 0 <= seq[0] and seq[-1] <= d - r,
                   f"component {c['a']}: ill-formed sequence {seq}")
        adj = rho(1, r, d) - sum(c["in"]) - sum(c["out"])
        expect(c["adj_rho"] == adj, f"component {c['a']}: adj_rho {c['adj_rho']} != {adj}")
        expect(adj == (0 if c["a"] <= zero_range else 1), f"component {c['a']}: 0/1 pattern")
    for left, right in zip(comps, comps[1:]):
        expect(all(left["out"][j] + right["in"][r - j] == d - r for j in range(r + 1)),
               f"complementarity fails at node {left['a']}")
    report = res["report"]
    expect(report["total_adjusted"] == sum(c["adj_rho"] for c in comps) == rho(g, r, d),
           f"total_adjusted {report['total_adjusted']} != rho {rho(g, r, d)}")
    expect(report["ok"] is True and report["failures"] == [], "chain report not ok")


def check_plot(p: dict, res: dict, svg_text: str) -> None:
    pairs = json.loads(p["type"]) if p.get("type") else []
    expect(res["wall_count"] == len(pairs) and res["out"] == p["out"], f"plot result {res}")
    expect(svg_text is not None, f"no SVG written to {p['out']}")
    root = ET.fromstring(svg_text)
    lines = [el for el in root.iter("{http://www.w3.org/2000/svg}line") if el.get("class") == "wall"]
    circles = [el for el in root.iter("{http://www.w3.org/2000/svg}circle")]
    expect(len(lines) == len(pairs), f"{len(lines)} wall lines for {len(pairs)} pairs")
    expect(len(circles) == (parse_vector(p["v"])[0] != 0), "projection point")


def check_verify(res: dict, checks: int) -> None:
    names = [c["name"] for c in res["checks"]]
    expect(res["failed"] == 0 and all(c["ok"] for c in res["checks"]), "a verify check failed")
    expect(res["passed"] == checks == len(names), f"passed {res['passed']}, expected {checks}")
    expect(names == sorted(names), "checks not in name order")


# --------------------------------------------------------------- self test

def _must_reject(check, *args) -> None:
    try:
        check(*args)
    except Wrong:
        return
    raise AssertionError(f"{check.__name__} accepted a known-wrong output")


def self_test() -> None:
    """Each checker passes one right output and rejects a known-wrong one."""
    check_rho({"g": 5, "r": 1, "d": 3}, {"rho": -1})
    _must_reject(check_rho, {"g": 5, "r": 1, "d": 3}, {"rho": 0})
    check_rho_k({"g": 5, "k": 2, "r": 1, "d": 3}, {"rho_k": 1, "argmax_ell": [1]})
    _must_reject(check_rho_k, {"g": 5, "k": 2, "r": 1, "d": 3}, {"rho_k": 1, "argmax_ell": [0]})

    dec = {"r": 7, "ell": 5}
    check_decompose(dec, {"ell": 5, "e": 1, "m1": 2, "m2": 1})
    _must_reject(check_decompose, dec, {"ell": 5, "e": 1, "m1": 1, "m2": 2})

    tab = {"g": 4, "k": 2, "r": 1, "d": 3}  # rho_2 = 1: two rows, two columns
    good = {"feasible": True, "omitted": 1, "rho_k": 1, "argmax_ell": [1],
            "equality": True, "witness": [[1, 2], [2, 3]]}
    check_tableau(tab, good)
    _must_reject(check_tableau, tab, dict(good, witness=[[1, 2], [3, 4]]))  # omits 0, says 1
    bad_diag = {"g": 3, "k": 3, "r": 1, "d": 2}  # 1 repeats on residues 0 and 1 mod 3
    _must_reject(check_tableau, bad_diag, {"feasible": True, "omitted": 1, "rho_k": 1,
                                           "argmax_ell": [1], "equality": True,
                                           "witness": [[1, 2], [2, 1]]})

    types = {"g": 5, "k": 2, "r": 1, "v": "0,1,0,-1", "refined": False, "square_filter": False}
    items = []
    for pairs in all_types(1, False):
        dim, square = type_dimension(5, 2, (0, 1, 0, -1), pairs)
        items.append({"type": [list(x) for x in pairs], "dim": dim, "ell": 2 - sum(m for _, m in pairs),
                      "verdict": type_verdict(2, (0, 1, 0, -1), pairs, square)})
    res = {"r": 1, "refined": False, "square_filtered": False, "items": items}
    check_types(types, res)
    _must_reject(check_types, types, dict(res, items=items[:-1]))
    _must_reject(check_types, types, dict(res, items=[dict(items[0], dim=items[0]["dim"] + 1)] + items[1:]))

    walls = {"g": 3, "k": 2, "v": "0,1,0,-1", "type": "[[1,1]]"}
    wall = {"w": "25/132", "destabilizer": {"r": 1, "x": 0, "y": 1, "s": 1}, "kind": "line_bundle", "e": 1}
    check_walls(walls, {"eps": "1/10", "walls": [wall]})
    _must_reject(check_walls, walls, {"eps": "1/10", "walls": [dict(wall, w="25/66")]})

    chain = {"g": 2, "k": 2, "r": 0, "d": 1}  # rho = 1: one zero component, then one unit
    comps = [{"a": 1, "in": [0], "out": [1], "adj_rho": 0}, {"a": 2, "in": [0], "out": [0], "adj_rho": 1}]
    report = {"ok": True, "failures": [], "total_adjusted": 1}
    check_chain(chain, {"components": comps, "report": report})
    swapped = [dict(comps[0], adj_rho=1, out=[0]), dict(comps[1], adj_rho=0, out=[1])]
    _must_reject(check_chain, chain, {"components": swapped, "report": report})

    plot = {"v": "0,1,0,-1", "type": "[[2,1],[1,1]]", "out": "x.svg"}
    svg = ('<svg xmlns="http://www.w3.org/2000/svg"><line class="wall"/>'
           '<line class="wall"/><line class="axis"/></svg>')
    check_plot(plot, {"wall_count": 2, "out": "x.svg"}, svg)
    _must_reject(check_plot, plot, {"wall_count": 2, "out": "x.svg"}, svg.replace('"wall"/><line class="axis"', '"axis"'))

    verify = {"checks": [{"name": "a.x", "ok": True}, {"name": "b.y", "ok": True}], "passed": 2, "failed": 0}
    check_verify(verify, 2)
    _must_reject(check_verify, dict(verify, checks=[{"name": "a.x", "ok": True}, {"name": "b.y", "ok": False}]), 2)

    check_error({"schema_version": "1", "error": {"code": "bad_usage", "message": "m"}}, "bad_usage")
    _must_reject(check_error, {"schema_version": "1", "error": {"code": "bad_rank", "message": "m"}}, "bad_usage")


if __name__ == "__main__":
    self_test()
    print("all checkers reject their known-wrong outputs")
