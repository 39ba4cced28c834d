"""Command line surface: subcommands, formats, exit codes, determinism."""

import hashlib
import shlex
import sys
from pathlib import Path

import pytest

from hatcheck import construct
from hatcheck.bounds import two_guess_seq
from hatcheck.cli import _DERIVERS, _load_graph, build_parser, entry
from hatcheck.construct import AdversaryOracle
from hatcheck.game import ColorBudget, is_defeating, random_strategy, strategy_from_text
from hatcheck.graphs import Graph, graph_to_text
from hatcheck.guards import DEFAULT_GUARDS
from hatcheck.rng import SplitMix64
from hatcheck.solver import find_defeating_assignment

from conftest import complete, cycle

GRAPHS = Path(__file__).resolve().parent.parent / "scripts" / "graphs"


def graph_path(name: str) -> str:
    return str(GRAPHS / f"{name}.graph")


def run(capsys, *argv):
    code = entry(list(argv))
    return code, capsys.readouterr().out


def unlimited_str(x: int) -> str:
    """str(x) with CPython's int-to-str digit limit lifted."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        return str(x)
    finally:
        sys.set_int_max_str_digits(saved)


def strip_timing(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("wall_time_s:")
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_bowtie(capsys):
    code, out = run(capsys, "analyze", graph_path("bowtie"))
    assert code == 0
    assert "vertices: 5" in out
    assert "block 0: 0 1 2" in out
    assert "block 1: 2 3 4" in out
    assert "cut-vertices: 2" in out
    assert "circumference: 3" in out
    assert "block 0 treedepth_certificate: depth=3" in out


def test_analyze_single_edge(capsys):
    code, out = run(capsys, "analyze", graph_path("k2"))
    assert code == 0
    assert "block 0: 0 1" in out
    assert "cut-vertices: -" in out
    assert "circumference: 0" in out


def test_analyze_reports_hash(capsys):
    code, out = run(capsys, "analyze", graph_path("p3"))
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("input_sha256:"))
    assert len(line.split()[1]) == 64


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_sweep_triangle(capsys):
    code, out = run(capsys, "solve", graph_path("k3"), "--sweep")
    assert code == 0
    assert "hg: 3" in out


def test_solve_players_certificate(capsys):
    code, out = run(capsys, "solve", graph_path("k2"), "--budget", "2")
    assert code == 0
    assert "winner: players" in out
    assert "certificate:" in out
    assert "guesses 1" in out


def test_solve_adversary_with_dump(capsys):
    code, out = run(
        capsys, "solve", graph_path("k1"), "--guesses", "2", "--budget", "3", "--dump"
    )
    assert code == 0
    assert "winner: adversary" in out
    assert "refuted_branches:" in out


def test_solve_dump_counts_every_refuted_branch(capsys, tmp_path):
    # the transcript is capped at 1000 entries; the count is not.  P5 at
    # three colors refutes more branches than that, the P4 in p4.graph not
    p5 = tmp_path / "p5.graph"
    p5.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out = run(capsys, "solve", str(p5), "--budget", "3", "--dump")
    assert code == 0
    assert "refuted_branches: 5572" in out
    assert "  transcript truncated" in out
    assert sum(1 for line in out.splitlines() if "defeated-by" in line) == 1000
    assert hashlib.sha256(strip_timing(out).encode()).hexdigest() == (
        "9d36219049643792b321ef18185eaa05f528bd6174ab266a9fb8adc242c83d14"
    )


def test_solve_reports_witnesses_in_the_files_labels(capsys, tmp_path):
    # p4.graph is the path 0-1-2-3; this file is the path 3-0-2-1
    relabelled = tmp_path / "p4-relabelled.graph"
    relabelled.write_text("4 3\n0 2\n0 3\n1 2\n")
    counts, witnesses = [], []
    for path in (graph_path("p4"), str(relabelled)):
        code, out = run(capsys, "solve", path, "--budget", "3", "--dump")
        assert code == 0
        lines = out.splitlines()
        counts.extend(line for line in lines if line.startswith("refuted_branches:"))
        witnesses.append([tuple(map(int, line.split("defeated-by")[1].split())) for line in lines if "defeated-by" in line])
    assert counts == ["refuted_branches: 198"] * 2
    assert witnesses[0] != witnesses[1]

    def carried(sigma):
        """p4.graph's witnesses with vertex v renamed sigma[v]."""
        moved = []
        for w in witnesses[0]:
            m = [0] * 4
            for v, c in enumerate(w):
                m[sigma[v]] = c
            moved.append(tuple(m))
        return moved

    # the two isomorphisms from p4.graph onto the file
    assert witnesses[1] in (carried((3, 0, 2, 1)), carried((1, 2, 0, 3)))


def test_solve_per_vertex_budget(capsys):
    code, out = run(capsys, "solve", graph_path("p3"), "--budget", "2,3,2")
    assert code == 0
    assert "budget: 2 3 2" in out
    assert "winner:" in out


# pinned reports: both verdict sides, a two-guess clique win and a
# per-vertex budget, so a change to how outcomes are found or rendered must
# keep every byte; test_solve_dump_counts_every_refuted_branch pins a
# truncated transcript
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("p4", "--budget", "3", "--dump"), "e79720804a5946cde9eafa73864d0eb648218759539731e4f180982e8c6428b7"),
        (("k1", "--guesses", "2", "--budget", "3", "--dump"), "8884bcbb98dd48c2c4378ff2106ed0630bf383b47162977c21ef0feb4751808b"),
        (("k2", "--budget", "2"), "d1a8f4814e38afcd0de84b67346d5387426b109e1c920658ac7608ecb59be327"),
        (("k3", "--guesses", "2", "--budget", "6"), "a2e8e08f22493fefc56f2d5fdc0e47cc70a5e4a78cf342576c3291a81799a4fc"),
        (("p3", "--budget", "2,3,2"), "fa6b39eb2b9057e6df42b69712acaa624382930015c1c942dc32eb2616814c0b"),
    ],
    ids=["p4-dump", "k1-two-guess-dump", "k2", "k3-two-guess", "p3-per-vertex"],
)
def test_pinned_solve_reports(capsys, argv, digest):
    code, out = run(capsys, "solve", graph_path(argv[0]), *argv[1:])
    assert code == 0
    assert hashlib.sha256(strip_timing(out).encode()).hexdigest() == digest
    lines = strip_timing(out).splitlines()
    if "winner: players" in lines:
        # a pinned certificate must win
        g, _ = _load_graph(graph_path(argv[0]))
        budget_line = next(line for line in lines if line.startswith("budget:"))
        budget = ColorBudget(tuple(int(q) for q in budget_line.split()[1:]))
        certificate = strategy_from_text("\n".join(lines[lines.index("certificate:") + 1:]), g, budget)
        assert find_defeating_assignment(g, certificate) is None


def test_solve_budget_length_mismatch(capsys):
    code, out = run(capsys, "solve", graph_path("p3"), "--budget", "2,3")
    assert code == 2
    assert "error:" in out


def test_solve_needs_budget_or_sweep(capsys):
    code, out = run(capsys, "solve", graph_path("p3"))
    assert code == 2
    assert "error:" in out


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_sequence(capsys):
    code, out = run(capsys, "bound", "--seq", "a", "--n", "4")
    assert code == 0
    assert "value: 1807" in out


def test_bound_circ_exact_rational(capsys):
    code, out = run(capsys, "bound", "--circ", "3")
    assert code == 0
    assert "value: 563102541311937/305175781250" in out
    assert "value_approx: 1845.17440737" in out


def test_bound_tary_intervals(capsys):
    code, out = run(capsys, "bound", "--tary", "2", "2")
    assert code == 0
    assert "recursive: 2^43368474.226498993" in out
    assert "closed: 2^687557529745455.88" in out
    assert "recursive_log2_interval:" in out


def test_bound_lll(capsys):
    code, out = run(capsys, "bound", "--lll", "6")
    assert code == 0
    assert "value: 16.309691" in out


def test_bound_requires_one_selector(capsys):
    code, _ = run(capsys, "bound")
    assert code == 2
    code, _ = run(capsys, "bound", "--circ", "3", "--lll", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--seq", "a"), "error: --seq needs --n"),
        (("--tary", "70", "2"), "error: t**h for t=2, h=70 exceeds the nested-log range"),
        (("--tary", "54", "2"), "error: t**h for t=2, h=54 exceeds the nested-log range"),
    ],
    ids=["seq-without-n", "tary-past-nested-range", "tary-one-past-nested-cap"],
)
def test_bound_rejects_bad_arguments(capsys, argv, message):
    code, out = run(capsys, "bound", *argv)
    assert code == 2
    assert message in out


# pinned reports: the largest exact terms and fractions the bound command
# prints (up to 427k digits), log-form terms on both sides of the
# exact/log switch up to the index cap, and the largest cycle and t-ary
# bounds (h log2 t = 53 is the nested-log cap), so a change to how values are
# computed or rendered must keep every byte
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--seq", "a", "--n", "19"), "aa45ba8b21bc22997b278d00b0ddae148377c827df007855d3b99d80827a54f7"),
        (("--seq", "a", "--n", "21"), "027cb4ccc554073677aa0f74e92e24cae8a82e1cce8607a3d99a81cd70dd9675"),
        (("--seq", "sylvester", "--n", "20"), "5a335d41b4e9e954254f86533725e1a02d75150cf6ee0d45d01f126fdd458bad"),
        (("--seq", "sylvester", "--n", "21"), "2f8ec4dfb30658a1b6aacb244604874235805a4b379b16a52409601db2788b2d"),
        (("--seq", "a", "--n", "23"), "82285608bb8620fe483acc971899e561c538d0ba149eea25d683f53416beab67"),
        (("--seq", "a", "--n", "24"), "2a25b968327aa3eb0b7d2614d5d5844de66af5e63fd4092266a3ffedbc0e3191"),
        (("--seq", "a", "--n", "40"), "dd26862b184747a93c783e3fa2585a0cf4352ef51419ea57f00fd75afa684a16"),
        (("--seq", "a", "--n", "64"), "d4a5e432a27dd73d269b2d9910cfefc3a2efedb4fb4446bb7cb0af9c0201ce6f"),
        (("--seq", "sylvester", "--n", "24"), "e0a3cbd8085e2318ddcc75afc24cfdf4cb777cd56bcfaf0d496dfe6faa2dd622"),
        (("--seq", "sylvester", "--n", "25"), "1beb48b0dfb82d1b226dca7a646955da4ff19bfec29bf650a99a7b7ff6ac7ca3"),
        (("--seq", "sylvester", "--n", "46"), "a91f081821ba2d25e4774a99de371b8ff2d70f390f3cc36f2f16f22cb6d1aca1"),
        (("--seq", "sylvester", "--n", "64"), "93828747e906a4989a7d86b2d612184647b9fe96d8f0a4ecc0eb69bbfce10b8e"),
        (("--circ", "3"), "55a11b8b8dd9f212fd2ca673b2dc8b1c128e19e090000a39e9e1029854fc150b"),
        (("--circ", "4"), "3bd34b6856393660fd6b8bbc92a88ab3166af6a3feb936cd4a0c7900730a244e"),
        (("--circ", "5"), "8caf47503f7be65110c1d7466acd7fe251878c97998c6c1e4f90287756ee8d88"),
        (("--circ", "6"), "57b9f05fe8455f0963dae33fa855a21e6d82433c3c7285d9a7474655198b4224"),
        (("--circ", "7"), "66da732c4c223564ae956dc4a275445c1ba88646d86b272aa889ac076a02e16b"),
        (("--circ", "8"), "03003840a9d383a00e741399312a1f4091a3faea33efe3c24d02966027f6d72f"),
        (("--circ", "65536"), "fd5053b8a87b570e2d81e505b835a34aa74fda8544d917f983d1c275e85c1324"),
        (("--tary", "53", "2"), "08d0dcfcb64d0e481ec960d63efbb78a3d372d99d571887113181e4b864a6e6f"),
    ],
    ids=[
        "a19", "a21", "sylvester20", "sylvester21",
        "a23", "a24", "a40", "a64", "sylvester24", "sylvester25", "sylvester46", "sylvester64",
        "circ3", "circ4", "circ5", "circ6", "circ7", "circ8", "circ65536", "tary53-2",
    ],
)
def test_pinned_bound_reports(capsys, argv, digest):
    code, out = run(capsys, "bound", *argv)
    assert code == 0
    assert hashlib.sha256(strip_timing(out).encode()).hexdigest() == digest


def test_bound_reports_ignore_int_str_limit(capsys):
    # 640 is the lowest int-to-str limit CPython accepts; a(15) has 6,672
    # digits and the --circ 6 fraction about 210k per part
    queries = (("--seq", "a", "--n", "15"), ("--circ", "6"))
    expected = [strip_timing(run(capsys, "bound", *q)[1]) for q in queries]
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        got = [strip_timing(run(capsys, "bound", *q)[1]) for q in queries]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(saved)
    assert got == expected


# ---------------------------------------------------------------------------
# verify: one happy path per construction
# ---------------------------------------------------------------------------

def test_verify_is_path4(capsys):
    code, out = run(
        capsys, "verify", graph_path("p4"), "--lemma", "is", "--trials", "100"
    )
    assert code == 0
    assert "defeated: 100/100" in out


def test_verify_is_single_vertex(capsys):
    # nothing is left after the peel, so ell takes its floor of 2
    code, out = run(capsys, "verify", graph_path("k1"), "--lemma", "is", "--trials", "5")
    assert code == 0
    assert "\nell: 2\nbudget: 3\ndefeated: 5/5\n" in out


def test_verify_two_endpoint(capsys):
    code, out = run(
        capsys, "verify", graph_path("p3"), "--lemma", "two", "--trials", "100"
    )
    assert code == 0
    assert "defeated: 100/100" in out


def test_verify_rus_derives_cut(capsys):
    code, out = run(
        capsys, "verify", graph_path("p3"), "--lemma", "rus", "--trials", "50",
        "--seed", "9",
    )
    assert code == 0
    assert "v: 1" in out
    assert "ell: 2" in out
    assert "defeated: 50/50" in out


def test_verify_blocks_bowtie(capsys):
    code, out = run(
        capsys, "verify", graph_path("bowtie"), "--lemma", "blocks", "--trials", "100"
    )
    assert code == 0
    assert "ell: 6" in out
    assert "budget: 7 7 7 7 7" in out
    assert "defeated: 100/100" in out


def test_verify_closure_exhaustive(capsys):
    code, out = run(
        capsys, "verify", graph_path("tree1"), "--lemma", "closure",
        "--trials", "exhaustive",
    )
    assert code == 0
    assert "defeated: 6/6" in out


def test_verify_closure_path_tree(capsys):
    code, out = run(
        capsys, "verify", graph_path("tree_path2"), "--lemma", "closure",
        "--trials", "200",
    )
    assert code == 0
    assert "budget: 3 7" in out
    assert "defeated: 200/200" in out


def test_verify_circ_small(capsys):
    code, out = run(
        capsys, "verify", graph_path("p4"), "--lemma", "circ", "--trials", "100"
    )
    assert code == 0
    assert "bound: 7" in out
    assert "defeated: 100/100" in out


def test_verify_circ_triangle_desk_scale(capsys):
    code, out = run(
        capsys, "verify", graph_path("k3"), "--lemma", "circ", "--trials", "20"
    )
    assert code == 0
    assert "bound: 1807" in out
    assert "ell: 42" in out
    assert "defeated: 20/20" in out


def test_verify_tary_square(capsys):
    code, out = run(
        capsys, "verify", graph_path("c4"), "--lemma", "tary", "--trials", "100"
    )
    assert code == 0
    assert "branching: 3" in out
    assert "budget: 9 9 9 9" in out
    assert "bound: 9" in out
    assert "defeated: 100/100" in out


def test_verify_tary_chain_past_guard_bits_is_a_guard_refusal(capsys, tmp_path):
    path = tmp_path / "k5.graph"
    path.write_text(graph_to_text(complete(5)))
    code, out = run(capsys, "verify", str(path), "--lemma", "tary", "--branching", "3", "--height", "2")
    assert code == 3
    assert "bound: 2^1.2472516267483419e+23\n" in out
    assert "bound_log2_interval: [1.2472516267483419e+23, 1.2472516267483419e+23]\n" in out
    assert "error: guard 'assignment' exceeded: needed subtree-pipeline budget" in out


def test_verify_tary_budget_past_the_int_str_limit_is_a_guard_refusal(capsys, tmp_path):
    # the K5 oracle at t=2, h=2 builds; its budget prints past the
    # int-to-str limit, and the first defeat's enumeration guard refuses
    # with the needed size in short form
    path = tmp_path / "k5.graph"
    path.write_text(graph_to_text(complete(5)))
    code, out = run(
        capsys, "verify", str(path), "--lemma", "tary", "--branching", "2", "--height", "2",
        "--trials", "3",
    )
    assert code == 3
    oracle, _ = construct.oracle_theorem_tary(complete(5), 2, 2)
    (q,) = set(oracle.budget.sizes)
    assert q.bit_length() == 43446
    digits = unlimited_str(q)
    assert len(digits) == 13079
    assert f"\nbudget: {' '.join([digits] * 5)}\n" in out
    assert "\nerror: guard 'enumeration' exceeded: needed ~2^24825, limit 10000000\n" in out


def test_verify_dump_shows_construction(capsys):
    code, out = run(
        capsys, "verify", graph_path("bowtie"), "--lemma", "rus", "--trials", "5",
        "--dump",
    )
    assert code == 0
    assert "construction:" in out
    assert "first_defeat_trace:" in out


def test_verify_two_dump_shows_construction(capsys):
    code, out = run(
        capsys, "verify", graph_path("p3"), "--lemma", "two", "--trials", "5",
        "--dump",
    )
    assert code == 0
    assert "construction:\n  two-colors v=0 colors=(0, 1) ell=4" in out
    assert "first_defeat_trace:" in out
    assert "defeated: 5/5" in out


# ---------------------------------------------------------------------------
# oracle scope: checked at defeat and defeat_traced, for every construction
# ---------------------------------------------------------------------------

REFERENCE_GRAPHS = {
    "is": "p4", "two": "p3", "rus": "p3", "blocks": "bowtie",
    "closure": "tree_path2", "circ": "k3", "tary": "c4",
}


def reference_oracle(lemma: str):
    """The oracle `hatcheck verify --lemma <lemma>` builds on its reference graph."""
    path = graph_path(REFERENCE_GRAPHS[lemma])
    args = build_parser().parse_args(["verify", path, "--lemma", lemma])
    g, _ = _load_graph(path)
    oracle, _ = _DERIVERS[lemma](g, args, DEFAULT_GUARDS, [])
    return oracle


@pytest.mark.parametrize("lemma", sorted(REFERENCE_GRAPHS))
def test_defeat_checks_scope(lemma):
    orc = reference_oracle(lemma)
    n, k = orc.graph.vertex_count, orc.guess_count
    rng = SplitMix64(61)
    in_scope = random_strategy(orc.graph, orc.budget, k, rng)
    assert is_defeating(in_scope, orc.defeat(in_scope))
    wider_at_0 = ColorBudget((orc.budget[0] + 1,) + orc.budget.sizes[1:])
    out_of_scope = (
        ("different graph", random_strategy(Graph(n, frozenset()), orc.budget, k, rng)),
        ("budget must be", random_strategy(orc.graph, wider_at_0, k, rng)),
        ("must play the", random_strategy(orc.graph, orc.budget, 3 - k, rng)),
    )
    for message, strategy in out_of_scope:
        with pytest.raises(ValueError, match=message):
            orc.defeat(strategy)
        with pytest.raises(ValueError, match=message):
            orc.defeat_traced(strategy)


@pytest.mark.parametrize(
    "lemma, digest",
    [
        ("is", "23b898b8264c399c9575fa9b9d99a53f5618452e61860520d434c608f6359f2e"),
        ("two", "a7dda80dbe0809b9d245ae5c727298a4eedc63b8d2dbe5654248002263dd5546"),
        ("rus", "73ffcbac5127ce635ab7c68db5b624b9d67719673badfa2b6b4e5a6e22669d6d"),
        ("blocks", "9aa382c5ba984cf6ce02980200b30629d4a8c6691aafccd942b16df2ce324936"),
        ("closure", "bfb329e985d04e5ee63b4ff8f7da2bd204ae0aa38736effb6d4a36989c0e485c"),
        ("circ", "6a60438233e34a969686c807328f2cb8959fe8e6535791be3e548ccca86cfefb"),
        ("tary", "3cd88dadb504dd8663a779277eba4bfde4867f5a2012bb8cb928afa38d1fdc4f"),
    ],
)
def test_pinned_verify_reports(capsys, lemma, digest):
    # first_defeat_trace reads the first sampled strategy, so these
    # digests also pin the sampled stream
    code, out = run(
        capsys, "verify", graph_path(REFERENCE_GRAPHS[lemma]), "--lemma", lemma,
        "--trials", "30", "--seed", "17", "--dump",
    )
    assert code == 0
    assert "defeated: 30/30" in out
    assert hashlib.sha256(strip_timing(out).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# failure exits
# ---------------------------------------------------------------------------

def test_exit_parse_missing_file(capsys):
    code, out = run(capsys, "analyze", "no_such_file.graph")
    assert code == 2
    assert "error:" in out


def test_exit_parse_closure_on_nontree(capsys):
    code, out = run(
        capsys, "verify", graph_path("k3"), "--lemma", "closure", "--trials", "5"
    )
    assert code == 2
    assert "error:" in out


def test_exit_internal_closure_invariant(capsys, monkeypatch):
    # a closure leaf that finds no free color is a bug, not bad input;
    # it must surface as exit 6 even under python -O
    monkeypatch.setattr(construct, "_smallest_missing", lambda taken: 10**6)
    code, out = run(
        capsys, "verify", graph_path("tree_path2"), "--lemma", "closure", "--trials", "5"
    )
    assert code == 6
    assert "internal_error: closure leaf" in out


def test_exit_guard_small_limits(capsys, monkeypatch):
    monkeypatch.setenv("HATCHECK_GUARDS", "10,10,10")
    code, out = run(capsys, "solve", graph_path("k3"), "--sweep")
    assert code == 3
    assert "error:" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "p3", "--budget", "2,x"), "error: budget must be integers, got '2,x'"),
        (("verify", "k2", "--lemma", "rus", "--trials", "0"), "error: --trials must be positive"),
        (("verify", "k2", "--lemma", "rus", "--trials", "many"), "error: --trials must be an integer or 'exhaustive'"),
        (("verify", "p3", "--lemma", "two", "--vertex", "9"), "error: --vertex 9 out of range"),
        (
            ("verify", "c4", "--lemma", "tary", "--height", "70"),
            "error: t**h for t=3, h=70 exceeds the nested-log range",
        ),
    ],
    ids=["budget-not-integer", "trials-zero", "trials-not-integer", "vertex-out-of-range", "tary-past-nested-range"],
)
def test_exit_parse_bad_arguments(capsys, argv, message):
    command, name, *rest = argv
    code, out = run(capsys, command, graph_path(name), *rest)
    assert code == 2
    assert message in out


def test_circumference_beyond_guard_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("HATCHECK_GUARDS", ",,,3")
    code, out = run(capsys, "analyze", graph_path("bowtie"))
    assert code == 0
    assert "circumference: beyond-guard\n" in out


def test_exit_parse_too_many_guard_fields(capsys, monkeypatch):
    monkeypatch.setenv("HATCHECK_GUARDS", "1,2,3,4,5,6")
    code, out = run(capsys, "analyze", graph_path("bowtie"))
    assert code == 2
    assert "error: HATCHECK_GUARDS has 6 fields, expected <= 5" in out


def test_exit_verify_on_bogus_defeat(capsys, monkeypatch):
    import hatcheck.cli as cli_mod

    def bogus(g, args, guards, lines):
        budget = ColorBudget.uniform(g.vertex_count, 2)

        def engine(strategy, log):
            return tuple([0] * g.vertex_count)

        return AdversaryOracle(g, budget, 1, (), engine), ()

    monkeypatch.setitem(cli_mod._DERIVERS, "rus", bogus)
    code, out = run(
        capsys, "verify", graph_path("k2"), "--lemma", "rus", "--trials", "50"
    )
    assert code == 4
    assert "verification_failure:" in out
    assert "counterexample_strategy:" in out
    assert "claimed_assignment: 0 0" in out
    # the report prints the whole sampled counterexample strategy
    digest = hashlib.sha256(strip_timing(out).encode()).hexdigest()
    assert digest == "12454077e655363957a9e2a9bd0dacbb0aed8d75d865715181ef5fa354e6eebd"


def test_verify_circ_guard_refusal_at_the_derived_budget(capsys):
    # C4 needs a(4) = 1807 colors; the pipeline at that budget is refused
    # by the assignment guard, exactly as with --ell 1806 given
    derived = run(capsys, "verify", graph_path("c4"), "--lemma", "circ", "--trials", "3")
    given = run(capsys, "verify", graph_path("c4"), "--lemma", "circ", "--trials", "3", "--ell", "1806")
    assert derived[0] == given[0] == 3
    assert strip_timing(derived[1]) == strip_timing(given[1])
    assert "ell: 1806" in derived[1]


def test_verify_circ_past_the_sequence_cap_is_a_guard_refusal(capsys, tmp_path):
    # a 12-cycle's depth cap floor(144 / 2) = 72 is past the sequence cap
    # of 64, an index the user never gave: the pipeline builds nothing and
    # is refused as a guard refuses it, with the closed-form bound
    c12 = tmp_path / "c12.graph"
    c12.write_text(graph_to_text(Graph(12, frozenset((min(i, (i + 1) % 12), max(i, (i + 1) % 12)) for i in range(12)))))
    code, out = run(capsys, "verify", str(c12), "--lemma", "circ", "--trials", "3")
    assert code == 3
    assert "sequence index" not in out
    assert "error: guard 'assignment' exceeded: needed circumference-pipeline budget" in out
    assert "bound: 2^3.2021040376794865e+21\n" in out
    _, value = run(capsys, "bound", "--circ", "12")
    assert "value: 2^3.2021040376794865e+21\n" in value


def test_verify_closure_past_the_sequence_cap_is_a_guard_refusal(capsys, tmp_path):
    # a 70-vertex path rooted at an end has height 69: its root needs
    # a(70) colors, past the sequence cap of 64, so the closure is refused
    # as the assignment guard refuses a(30) on a 30-vertex path
    p70 = tmp_path / "p70.graph"
    p70.write_text(graph_to_text(Graph.from_edges(70, [(i, i + 1) for i in range(69)])))
    code, out = run(capsys, "verify", str(p70), "--lemma", "closure", "--trials", "3")
    assert code == 3
    assert "sequence index" not in out
    assert "error: guard 'assignment' exceeded: needed a(70), limit " in out


def test_verify_circ_prints_a_derived_ell_past_the_int_str_limit(capsys, tmp_path):
    # a 15-cycle's block certificate has depth 15, so the derived ell is
    # a(15) - 1, 6,671 digits; the report prints it before the refusal
    c15 = tmp_path / "c15.graph"
    c15.write_text(graph_to_text(cycle(15)))
    code, out = run(capsys, "verify", str(c15), "--lemma", "circ", "--trials", "3")
    assert code == 3
    digits = unlimited_str(int(two_guess_seq(15).exact) - 1)
    assert len(digits) == 6671
    assert f"\nell: {digits}\n" in out
    assert "error: guard 'assignment' exceeded: needed circumference-pipeline budget" in out


def test_verify_circ_does_not_retry_other_value_errors(capsys, monkeypatch):
    import hatcheck.cli as cli_mod

    calls = []

    def broken(g, guards, ell=None):
        calls.append(ell)
        raise ValueError("mis-shaped sub-oracle")

    monkeypatch.setattr(cli_mod, "oracle_theorem_circ", broken)
    code, out = run(capsys, "verify", graph_path("k3"), "--lemma", "circ", "--trials", "3")
    assert code == 2
    assert "error: mis-shaped sub-oracle" in out
    assert calls == [42]


@pytest.mark.parametrize(
    "lemma, ell, budget",
    [
        ("is", "3", "10 10 10 10"), ("two", "6", "2 7 7 7"), ("rus", "3", "4 4 4 4"),
        ("blocks", "3", "4 4 4 4"),
    ],
)
def test_verify_takes_a_given_ell(capsys, monkeypatch, lemma, ell, budget):
    # an ell at or above the derived one is used as given, and the hat
    # guessing numbers that would derive it are not computed
    import hatcheck.cli as cli_mod

    def no_derivation(*args, **kwargs):
        raise AssertionError("ell derived although --ell was given")

    monkeypatch.setattr(cli_mod, "hg_exact", no_derivation)
    monkeypatch.setattr(cli_mod, "hg2_exact", no_derivation)
    code, out = run(capsys, "verify", graph_path("p4"), "--lemma", lemma, "--ell", ell, "--trials", "20")
    assert code == 0
    assert f"ell: {ell}\nbudget: {budget}\ndefeated: 20/20\n" in out


def test_exit_premise_violation_with_witness(capsys):
    code, out = run(
        capsys, "verify", graph_path("k2"), "--lemma", "rus", "--ell", "1",
        "--trials", "20",
    )
    assert code == 5
    # the part-1 game is played at ell + 1 = 2 colors, the witness budget
    assert "premise_violation: adversary wins the one-guess game on part 1 at 2 colors\n" in out
    assert "witness_budget: 2 2" in out
    assert "witness_strategy:" in out


def test_exit_premise_violation_embedding(capsys):
    code, out = run(
        capsys, "verify", graph_path("p3"), "--lemma", "tary", "--branching", "2",
        "--trials", "5",
    )
    assert code == 5
    assert "witness_embedding: 1 0 2" in out


def test_exit_premise_violation_without_witness(capsys, monkeypatch, tmp_path):
    # K9 has minimum degree 8 = 2 * 2^2; with the subtree search over the
    # tree_size guard the violation carries no embedding
    monkeypatch.setenv("HATCHECK_GUARDS", ",,,,6")
    path = tmp_path / "k9.graph"
    path.write_text(graph_to_text(complete(9)))
    code, out = run(capsys, "verify", str(path), "--lemma", "tary", "--branching", "2", "--height", "2")
    assert code == 5
    assert "premise_violation: minimum degree 8 forces a 2-ary subtree of height 2\n" in out
    assert "witness_" not in out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_verify_reports_are_reproducible(capsys):
    argv = [
        "verify", graph_path("bowtie"), "--lemma", "blocks", "--trials", "60",
        "--seed", "7",
    ]
    outputs = set()
    for _ in range(3):
        code = entry(list(argv))
        assert code == 0
        outputs.add(strip_timing(capsys.readouterr().out))
    assert len(outputs) == 1


def test_seed_changes_sampled_strategies(capsys):
    base = [
        "verify", graph_path("p3"), "--lemma", "rus", "--trials", "30", "--dump"
    ]
    _, out_a = run(capsys, *base, "--seed", "1")
    _, out_b = run(capsys, *base, "--seed", "2")
    assert strip_timing(out_a) != strip_timing(out_b)


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

def test_readme_cli_examples_run(capsys, monkeypatch):
    # every `hatcheck ...` line of the sh block under README "CLI", run
    # from the repository root as the README shows, exits 0
    root = GRAPHS.parent.parent
    section = (root / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) == 8
    monkeypatch.chdir(root)
    for argv in commands:
        assert argv[0] == "hatcheck"
        code, out = run(capsys, *argv[1:])
        assert code == 0, (argv, out)
