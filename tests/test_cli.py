"""Command line surface: subcommands, formats, exit codes, determinism."""

from pathlib import Path

import pytest

from hatcheck.cli import entry
from hatcheck.game import ColorBudget

GRAPHS = Path(__file__).resolve().parent.parent / "scripts" / "graphs"


def graph_path(name: str) -> str:
    return str(GRAPHS / f"{name}.graph")


def run(capsys, *argv):
    code = entry(list(argv))
    return code, capsys.readouterr().out


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


def test_solve_dump_counts_every_refuted_branch(capsys):
    # the transcript is capped at 1000 entries; the count is not
    code, out = run(capsys, "solve", graph_path("p4"), "--budget", "3", "--dump")
    assert code == 0
    assert "refuted_branches: 8977" in out
    assert "  transcript truncated" in out
    assert sum(1 for line in out.splitlines() if "defeated-by" in line) == 1000


def test_solve_per_vertex_budget(capsys):
    code, out = run(capsys, "solve", graph_path("p3"), "--budget", "2,3,2")
    assert code == 0
    assert "budget: 2 3 2" in out
    assert "winner:" in out


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


# ---------------------------------------------------------------------------
# verify: one happy path per construction
# ---------------------------------------------------------------------------

def test_verify_is_path4(capsys):
    code, out = run(
        capsys, "verify", graph_path("p4"), "--lemma", "is", "--trials", "100"
    )
    assert code == 0
    assert "defeated: 100/100" in out


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


def test_verify_dump_shows_construction(capsys):
    code, out = run(
        capsys, "verify", graph_path("bowtie"), "--lemma", "rus", "--trials", "5",
        "--dump",
    )
    assert code == 0
    assert "construction:" in out
    assert "first_defeat_trace:" in out


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


def test_exit_guard_small_limits(capsys, monkeypatch):
    monkeypatch.setenv("HATCHECK_GUARDS", "10,10,10")
    code, out = run(capsys, "solve", graph_path("k3"), "--sweep")
    assert code == 3
    assert "error:" in out


def test_exit_verify_on_bogus_defeat(capsys, monkeypatch):
    import hatcheck.cli as cli_mod

    def bogus(g, args, guards, lines):
        budget = ColorBudget.uniform(g.vertex_count, 2)
        return (lambda s: tuple([0] * g.vertex_count)), budget, 1, None, ()

    monkeypatch.setitem(cli_mod._DERIVERS, "rus", bogus)
    code, out = run(
        capsys, "verify", graph_path("k2"), "--lemma", "rus", "--trials", "50"
    )
    assert code == 4
    assert "verification_failure:" in out
    assert "counterexample_strategy:" in out
    assert "claimed_assignment: 0 0" in out


def test_exit_premise_violation_with_witness(capsys):
    code, out = run(
        capsys, "verify", graph_path("k2"), "--lemma", "rus", "--ell", "1",
        "--trials", "20",
    )
    assert code == 5
    assert "premise_violation:" in out
    assert "witness_budget: 2 2" in out
    assert "witness_strategy:" in out


def test_exit_premise_violation_embedding(capsys):
    code, out = run(
        capsys, "verify", graph_path("p3"), "--lemma", "tary", "--branching", "2",
        "--trials", "5",
    )
    assert code == 5
    assert "witness_embedding: 1 0 2" in out


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
