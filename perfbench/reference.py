"""Answers the benchmark checks hatcheck against, computed without it.

Nothing here imports hatcheck.  Values come from the literature or from
how an input was built, and every checker reads only plain data (edge
sets, budget sizes, guess tables, report text).  The checks run outside
the timed spans.
"""

from __future__ import annotations

import math
import re

import mpmath

BUTLER = "Butler, Hajiaghayi, Kleinberg, Leighton, Hat guessing games, SIAM J. Discrete Math. 2008"
CLIQUE_S = "counting bound n*s/q >= 1 with the sum-mod-q strategy (Butler et al. 2008, s guesses)"

# (vertex count, sorted degrees) separates the ten connected graphs with
# at most four vertices, so it serves as the isomorphism-class key.
HG = {
    (1, (0,)): (1, "K1: clique value n, " + BUTLER),
    (2, (1, 1)): (2, "K2: clique value n, " + BUTLER),
    (3, (1, 1, 2)): (2, "P3: every tree with an edge has HG 2, " + BUTLER),
    (3, (2, 2, 2)): (3, "K3: clique value n, " + BUTLER),
    (4, (1, 1, 2, 2)): (2, "P4: tree, " + BUTLER),
    (4, (1, 1, 1, 3)): (2, "K1,3: tree, " + BUTLER),
    (4, (2, 2, 2, 2)): (3, "C4: Szczechla, The three-colour hat guessing game on the cycle graphs, EJC 2017"),
    (4, (1, 2, 2, 3)): (3, "paw: >= 3 from its K3, value for 4-vertex graphs in the literature"),
    (4, (2, 2, 3, 3)): (3, "diamond: >= 3 from its K3, value for 4-vertex graphs in the literature"),
    (4, (3, 3, 3, 3)): (4, "K4: clique value n, " + BUTLER),
}
HG2 = {
    (1, (0,)): (2, "K1: two-guess clique value 2n, " + CLIQUE_S),
    (2, (1, 1)): (4, "K2: two-guess clique value 2n, " + CLIQUE_S),
    (3, (1, 1, 2)): (5, "P3: the adversary has q(q-2)^2 dodging triples, the centre covers 2q^2, so q <= 5; 5 is attained"),
    (3, (2, 2, 2)): (6, "K3: two-guess clique value 2n, " + CLIQUE_S),
    (4, (3, 3, 3, 3)): (8, "K4: two-guess clique value 2n, " + CLIQUE_S),
}


def iso_key(n: int, edges) -> tuple:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return n, tuple(sorted(deg))


def relabel(edges, perm) -> list:
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


# ---------------------------------------------------------------------------
# defeats
# ---------------------------------------------------------------------------

def defeats(n, edges, sizes, tables, assignment) -> bool:
    """True if the assignment is within budget and every player misses.

    Tables are indexed by the neighbourhood colouring, neighbours in
    ascending order, the last one varying fastest.
    """
    if len(assignment) != n or any(not 0 <= c < q for c, q in zip(assignment, sizes)):
        return False
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        idx = 0
        for u in sorted(nbrs[v]):
            idx = idx * sizes[u] + assignment[u]
        if assignment[v] in tables[v][idx]:
            return False
    return True


# ---------------------------------------------------------------------------
# graphs with structure known by construction
# ---------------------------------------------------------------------------

def complete_bipartite(a: int, b: int, perm) -> dict:
    """K_{a,b}: one block, no cut vertex, longest cycle 2*min(a, b)."""
    n = a + b
    edges = relabel([(i, a + j) for i in range(a) for j in range(b)], perm)
    return {
        "n": n,
        "edges": edges,
        "blocks": {frozenset(range(n))},
        "cuts": frozenset(),
        "circumference": 2 * min(a, b),
    }


def cactus_chain(rng, max_n: int = 20) -> dict:
    """Cycles (length 3-5) and bridges glued end to end at single vertices.

    Each cycle and each bridge is a block, a vertex in two blocks is a
    cut vertex, and the longest cycle is the longest glued-in cycle.
    """
    edges, blocks = [], []
    cur, n = 0, 1
    while True:
        kind = rng.choice(("cycle", "cycle", "bridge"))
        size = rng.randint(3, 5) if kind == "cycle" else 2
        if n + size - 1 > max_n:
            break
        ring = [cur] + list(range(n, n + size - 1))
        n += size - 1
        if kind == "cycle":
            edges += [(ring[i], ring[(i + 1) % size]) for i in range(size)]
        else:
            edges.append((ring[0], ring[1]))
        blocks.append(ring)
        cur = rng.choice(ring[1:])
    if not any(len(b) > 2 for b in blocks):
        return cactus_chain(rng, max_n)
    perm = list(range(n))
    rng.shuffle(perm)
    count = {}
    for b in blocks:
        for v in b:
            count[v] = count.get(v, 0) + 1
    return {
        "n": n,
        "edges": relabel(edges, perm),
        "blocks": {frozenset(perm[v] for v in b) for b in blocks},
        "cuts": frozenset(perm[v] for v, c in count.items() if c > 1),
        "circumference": max(len(b) for b in blocks if len(b) > 2),
    }


def check_analyze(spec: dict, report: str) -> list:
    """Problems found in an `analyze` report of a graph built above."""
    problems = []
    fields = dict(_lines(report))
    blocks = {
        frozenset(int(x) for x in val.split())
        for key, val in _lines(report)
        if re.fullmatch(r"block \d+", key)
    }
    cuts_text = fields.get("cut-vertices", "")
    cuts = frozenset() if cuts_text == "-" else frozenset(int(x) for x in cuts_text.split())
    if fields.get("vertices") != str(spec["n"]) or fields.get("edges") != str(len(spec["edges"])):
        problems.append("vertex or edge count")
    if blocks != spec["blocks"]:
        problems.append("blocks")
    if cuts != spec["cuts"]:
        problems.append("cut vertices")
    if fields.get("circumference") != str(spec["circumference"]):
        problems.append(f"circumference {fields.get('circumference')} != {spec['circumference']}")
    classes = [
        [int(x) for x in val.split()]
        for key, val in _lines(report)
        if re.fullmatch(r"color_class \d+", key)
    ]
    colour = {v: j for j, cls in enumerate(classes) for v in cls}
    if sorted(colour) != list(range(spec["n"])) or any(colour[u] == colour[v] for u, v in spec["edges"]):
        problems.append("colouring")
    return problems


def _lines(report: str):
    for line in report.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            yield key, val.strip()


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

PRIMES = (2**61 - 1, 2**89 - 1, 1_000_000_007)
REL_TOL = mpmath.mpf(10) ** -12


def seq_exact(kind: str, n: int) -> int:
    """x(0) = 1, x(1) = 2 (Sylvester) or 3 (two-guess), then x -> x^2 - x + 1."""
    x = 1 if n == 0 else (2 if kind == "sylvester" else 3)
    for _ in range(max(0, n - 1)):
        x = x * x - x + 1
    return x


def seq_log2(kind: str, n: int):
    """log2 of the n-th term by the same recurrence, in log form past n = 12."""
    if n <= 12:
        return mpmath.log(seq_exact(kind, n), 2)
    with mpmath.workprec(200):
        x = mpmath.mpf(seq_exact(kind, 12))
        lg = mpmath.log(x, 2)
        for _ in range(n - 12):
            lg = 2 * lg + mpmath.log(1 - mpmath.power(2, -lg) + mpmath.power(2, -2 * lg), 2)
        return lg


def circ_exact(c: int):
    """(64/25)^e + 1/2 with e = 2^(floor(c*c/2) - 1) as (numerator, denominator).

    The fraction is in lowest terms: the numerator is odd and prime to 5.
    Only small c are materialised; larger ones must print in log form.
    """
    if c > 6:
        return None
    e = 2 ** ((c * c) // 2 - 1)
    return 2 * 64**e + 25**e, 2 * 25**e


def circ_log2(c: int):
    with mpmath.workprec(200):
        return 2 ** ((c * c) // 2 - 1) * mpmath.log(mpmath.mpf(64) / 25, 2)


def tary_log2(h: int, t: int):
    """log2 of the recursive and closed forbidden-subtree thresholds."""
    with mpmath.workprec(200):
        rec = mpmath.log(math.ceil(math.e * t), 2)
        for j in range(2, h + 1):
            k = 2 * t**j
            rec *= mpmath.mpf(k) ** k
        th = t**h
        log2_exp = 4 * th + 4 * h * th * mpmath.log(t, 2)
        closed = mpmath.power(2, log2_exp) * mpmath.log(mpmath.e * t, 2)
        return rec, closed


def digits_match(text: str, value: int) -> bool:
    """Decimal text equals value, checked by length and residues.

    Full conversion of a 400k-digit integer takes seconds, so the text is
    reduced modulo a few primes chunk by chunk instead.
    """
    if not text.isdigit():
        return False
    est = int(value.bit_length() * math.log10(2)) + 1
    for d in (est - 1, est, est + 1):
        if 10 ** (d - 1) <= value < 10**d:
            break
    if len(text) != d:
        return False
    for p in PRIMES:
        acc = 0
        for i in range(0, len(text), 4000):
            chunk = text[i : i + 4000]
            acc = (acc * pow(10, len(chunk), p) + int(chunk)) % p
        if acc != value % p:
            return False
    return True


def exact_matches(text: str, expected) -> bool:
    if isinstance(expected, tuple):
        num, _, den = text.partition("/")
        return digits_match(num, expected[0]) and digits_match(den, expected[1])
    return digits_match(text, expected)


def log2_matches(text: str, expected) -> bool:
    if not text.startswith("2^"):
        return False
    got = mpmath.mpf(text[2:])
    return abs(got - expected) <= REL_TOL * abs(expected)


def check_bound(argv: list, report: str) -> list:
    """Problems found in a `bound` report, against the values above.

    Values print either exact or as 2^<log2>; each form is checked
    against the matching reference, so a change of the exact-range
    guard alone does not fail the check.
    """
    fields = dict(_lines(report))
    kind = argv[1]
    if kind == "--lll":
        got = fields.get("value", "nan")
        return [] if abs(float(got) - math.e * int(argv[2])) < 1e-6 else [f"lll value {got}"]
    if kind == "--seq":
        seq, n = argv[2], int(argv[4])
        want = {"value": (lambda: seq_exact(seq, n), lambda: seq_log2(seq, n))}
    elif kind == "--circ":
        c = int(argv[2])
        want = {"value": (lambda: circ_exact(c), lambda: circ_log2(c))}
    else:
        h, t = int(argv[2]), int(argv[3])
        want = {
            "recursive": (lambda: math.ceil(math.e * t) if h == 1 else None, lambda: tary_log2(h, t)[0]),
            "closed": (lambda: None, lambda: tary_log2(h, t)[1]),
        }
    problems = []
    for key, (exact, log2) in want.items():
        text = fields.get(key, "")
        if text.startswith("2^"):
            ok = log2_matches(text, log2())
        else:
            expected = exact()
            ok = expected is not None and exact_matches(text, expected)
        if not ok:
            problems.append(f"{key} of {' '.join(argv)}")
    return problems
