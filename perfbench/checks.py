"""Output checks behind the benchmark's failure count.

Every expected value here comes from ``math.comb``/``math.factorial`` or from
an independent re-implementation (colex edge enumeration, text and graph6
parsers), never from the setincl code path that produced the output.  Each
check returns True when the output is right; a check that raises counts as a
failure too.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from itertools import combinations
from math import comb, factorial, fsum, isqrt

from setincl.spectra import ExactEigenvalue, Spectrum, SurdEigenvalue


# ---------------------------------------------------------------------------
# Graph-level expectations


def sizes(n: int, k: int, l: int) -> tuple[int, int, int, int]:
    """(n1, n2, r1, r2) of G(n,k,l): side sizes and side degrees."""
    return comb(n, k), comb(n, l), comb(n - k, l - k), comb(l, k)


def expected_orbits(n: int, k: int, l: int, on: str) -> int:
    """Orbit counts of Sym(n) (x Z2 when k+l=n) on vertices, edges, arcs."""
    if k + l == n:
        return 1
    return {"vertices": 2, "edges": 1, "arcs": 2}[on]


def expected_aut_order(n: int, k: int, l: int) -> int:
    return factorial(n) * (2 if k + l == n else 1)


def edge_digest(edges) -> str:
    """Order-independent digest of an undirected edge set."""
    flat = array("q")
    for u, v in sorted((u, v) if u < v else (v, u) for u, v in edges):
        flat.append(u)
        flat.append(v)
    return hashlib.sha256(flat.tobytes()).hexdigest()


def inclusion_edge_digest(n: int, k: int, l: int) -> str:
    """Digest of G(n,k,l)'s edges under the documented vertex order
    (k-subsets first, colex order within each size class), built from
    tuples rather than setincl's bitmasks."""
    colex = lambda c: c[::-1]  # noqa: E731
    small = sorted(combinations(range(n), k), key=colex)
    index = {c: i for i, c in enumerate(small)}
    n1 = len(small)
    big = sorted(combinations(range(n), l), key=colex)
    return edge_digest(
        (index[sub], n1 + j) for j, c in enumerate(big) for sub in combinations(c, k)
    )


def parse_edgelist(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    lines = data.decode("utf-8").splitlines()
    tag, nv, ne = lines[0].split()
    if tag != "p":
        raise ValueError("missing edgelist header")
    edges = [tuple(map(int, line.split())) for line in lines[1:]]
    if len(edges) != int(ne):
        raise ValueError("edge count differs from header")
    return int(nv), edges


def parse_dot(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    lines = data.decode("utf-8").splitlines()
    if lines[0] != "graph g {" or lines[-1] != "}":
        raise ValueError("not a dot graph")
    nv, edges = 0, []
    for line in lines[1:-1]:
        body = line.strip().rstrip(";")
        if "--" in body:
            u, v = body.split("--")
            edges.append((int(u), int(v)))
        else:
            nv += 1
    return nv, edges


def parse_graph6_bytes(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    """Minimal graph6 decoder (vertex counts below 258048)."""
    buf = data.rstrip(b"\n")
    if buf[0] == 126:
        nv = ((buf[1] - 63) << 12) | ((buf[2] - 63) << 6) | (buf[3] - 63)
        body = buf[4:]
    else:
        nv, body = buf[0] - 63, buf[1:]
    nbits = nv * (nv - 1) // 2
    if len(body) != (nbits + 5) // 6 or not all(63 <= b <= 126 for b in body):
        raise ValueError("malformed graph6 body")
    bits = "".join(format(b - 63, "06b") for b in body)
    if "1" in bits[nbits:]:
        raise ValueError("graph6 padding bits set")
    # bit pos belongs to column j of the upper triangle when
    # j(j-1)/2 <= pos < j(j+1)/2
    edges = []
    pos = bits.find("1")
    while pos != -1:
        j = (1 + isqrt(1 + 8 * pos)) // 2
        edges.append((pos - j * (j - 1) // 2, j))
        pos = bits.find("1", pos + 1)
    return nv, edges


_PARSERS = {"edgelist": parse_edgelist, "dot": parse_dot, "graph6": parse_graph6_bytes}


def export_ok(data: bytes, fmt: str, n: int, k: int, l: int, digest: str) -> bool:
    nv, edges = _PARSERS[fmt](data)
    n1, n2, _, _ = sizes(n, k, l)
    return nv == n1 + n2 and edge_digest(edges) == digest


def graph_ok(graph, n: int, k: int, l: int, digest: str) -> bool:
    """A parsed setincl Graph has exactly G(n,k,l)'s vertices and edges."""
    n1, n2, _, _ = sizes(n, k, l)
    return graph.num_vertices == n1 + n2 and edge_digest(graph.edges()) == digest


# ---------------------------------------------------------------------------
# CLI text outputs


def verify_ok(rc: int, text: str, expect_pass: bool) -> bool:
    """verify prints '-> PASS' and exits 0, or '-> FAIL' and exits 1."""
    if expect_pass:
        return rc == 0 and text.rstrip().endswith("-> PASS")
    return rc == 1 and text.rstrip().endswith("-> FAIL")


def scheme_check_ok(rc: int, text: str) -> bool:
    return rc == 0 and text.rstrip().endswith("identities: PASS")


def orbits_ok(rc: int, text: str, n: int, k: int, l: int, on: str) -> bool:
    return rc == 0 and text.strip() == f"orbits on {on}: {expected_orbits(n, k, l, on)}"


def brute_force_ok(rc: int, text: str, n: int, k: int, l: int) -> bool:
    expect = expected_aut_order(n, k, l)
    lines = text.strip().splitlines()
    return (
        rc == 0
        and f"order: {expect}" in lines
        and lines[-1] == f"brute-force order: {expect} (agree)"
    )


_P_LINE = re.compile(r"p\^s_\((\d+),(\d+)\) for s=0\.\.(\d+): \[([\d, ]*)\]")


def scheme_numbers_ok(rc: int, text: str, n: int, k: int) -> bool:
    """Intersection numbers p^s_ij (i < j printed) of the scheme on
    k-subsets.  The missing p^s_ii follow from the row sums
    sum_j p^s_ij = k_i, and then every p^s_ij must be nonnegative and
    satisfy k_s p^s_ij = k_i p^i_sj (counting triples two ways), with
    valencies k_i = C(k,i) C(n-k,k-i)."""
    if rc != 0:
        return False
    valency = [comb(k, i) * comb(n - k, k - i) for i in range(k + 1)]
    p = [[[0] * (k + 1) for _ in range(k + 1)] for _ in range(k + 1)]
    lines = text.strip().splitlines()
    if len(lines) != k * (k + 1) // 2:
        return False
    for line in lines:
        m = _P_LINE.fullmatch(line)
        if not m or int(m.group(3)) != k:
            return False
        i, j = int(m.group(1)), int(m.group(2))
        values = [int(x) for x in m.group(4).split(",")]
        if len(values) != k + 1:
            return False
        for s, value in enumerate(values):
            p[s][i][j] = p[s][j][i] = value
    for s in range(k + 1):
        for i in range(k + 1):
            p[s][i][i] = valency[i] - sum(p[s][i][j] for j in range(k + 1) if j != i)
    return all(
        p[s][i][j] >= 0 and valency[s] * p[s][i][j] == valency[i] * p[i][s][j]
        for s in range(k + 1)
        for i in range(k + 1)
        for j in range(k + 1)
    )


# ---------------------------------------------------------------------------
# Spectra


def spectrum_targets(n: int, k: int, l: int, line: bool) -> tuple[int, int]:
    """(total multiplicity, sum of squared eigenvalues) that any correct
    spectrum must have: the vertex count and twice the edge count of G(n,k,l)
    or of its line graph.  The sum of eigenvalues is 0 in both cases."""
    n1, n2, r1, r2 = sizes(n, k, l)
    edges = n1 * r1
    if line:
        return edges, 2 * (n1 * comb(r1, 2) + n2 * comb(r2, 2))
    return n1 + n2, 2 * edges


def spectrum_ok(spec: Spectrum, n: int, k: int, l: int, line: bool) -> bool:
    """Exact identities through Spectrum.power_sum."""
    total, sum_sq = spectrum_targets(n, k, l, line)
    return (
        spec.total_multiplicity == total
        and spec.power_sum(1) == (0, {})
        and spec.power_sum(2) == (sum_sq, {})
    )


_SURD = re.compile(r"\((-?\d+)([+-])√(\d+)\)/2")
_ROOT = re.compile(r"(-?)(\d*)√(\d+)")


def parse_eigenvalue(token: str):
    """Inverse of the table rendering: m, a/2, [-][f]√d, (p±√d)/2."""
    if m := _SURD.fullmatch(token):
        return SurdEigenvalue(int(m.group(1)), int(m.group(3)), 1 if m.group(2) == "+" else -1)
    if m := _ROOT.fullmatch(token):
        f = int(m.group(2) or 1)
        return ExactEigenvalue(-1 if m.group(1) else 1, f * f * int(m.group(3)))
    if token.endswith("/2"):
        return SurdEigenvalue(int(token[:-2]), 0, 1)
    x = int(token)
    return ExactEigenvalue((x > 0) - (x < 0), x * x)


def _json_eigenvalue(value: dict):
    if value["kind"] == "int":
        x = int(value["value"])
        return ExactEigenvalue((x > 0) - (x < 0), x * x)
    if value["kind"] == "sqrt":
        return ExactEigenvalue(int(value["sign"]), int(value["radicand"]))
    return SurdEigenvalue(int(value["p"]), int(value["d"]), 1 if value["branch"] == "+" else -1)


def spectrum_text_ok(rc: int, text: str, fmt: str, n: int, k: int, l: int, line: bool) -> bool:
    """Check a printed spectrum.  Table and JSON outputs are exact and go
    through spectrum_ok; CSV carries floats, so its sums are checked to a
    relative 1e-9 and its multiplicity total exactly."""
    if rc != 0:
        return False
    if fmt == "table":
        rows = [row.split() for row in text.strip().splitlines()]
        return spectrum_ok(Spectrum((parse_eigenvalue(v), int(m)) for v, m in rows), n, k, l, line)
    if fmt == "json":
        pairs = [(_json_eigenvalue(e["value"]), int(e["multiplicity"])) for e in json.loads(text)]
        return spectrum_ok(Spectrum(pairs), n, k, l, line)
    lines = text.strip().splitlines()
    if lines[0] != "value,multiplicity":
        return False
    rows = [(float(v), int(m)) for v, m in (row.split(",") for row in lines[1:])]
    total, sum_sq = spectrum_targets(n, k, l, line)
    s1 = fsum(m * x for x, m in rows)
    scale = fsum(m * abs(x) for x, m in rows)
    s2 = fsum(m * x * x for x, m in rows)
    return (
        sum(m for _, m in rows) == total
        and abs(s1) <= 1e-9 * scale
        and abs(s2 - sum_sq) <= 1e-9 * sum_sq
    )
