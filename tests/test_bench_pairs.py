import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher"},
]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("211-214") == [211, 212, 213, 214]
    assert bench_pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("5-4")


def test_pairs_run_in_abba_order():
    calls = []

    def fake_run(side, seed):
        calls.append((side, seed))
        return {"wall_s": float(len(calls))}

    results = bench_pairs.run_pairs([3, 4, 5, 6], fake_run)
    assert calls == [
        ("parent", 3), ("change", 3),
        ("change", 4), ("parent", 4),
        ("parent", 5), ("change", 5),
        ("change", 6), ("parent", 6),
    ]
    # each run's metrics land under its side and seed
    assert results["parent"] == {3: {"wall_s": 1.0}, 4: {"wall_s": 4.0},
                                 5: {"wall_s": 5.0}, 6: {"wall_s": 8.0}}
    assert results["change"][4] == {"wall_s": 3.0}


def test_summary_medians_quartiles_and_wins():
    wall = {"parent": [0.40, 0.30, 0.50, 0.20], "change": [0.35, 0.31, 0.45, 0.10]}
    ok = {"parent": [1.0, 1.0, 0.9, 1.0], "change": [1.0, 1.0, 1.0, 1.0]}

    def fake_run(side, seed):
        return {"wall_s": wall[side][seed], "ok_ratio": ok[side][seed]}

    results = bench_pairs.run_pairs([0, 1, 2, 3], fake_run)
    assert bench_pairs.summary_lines(results, METRICS) == [
        # parent 0.2 0.3 0.4 0.5; change 0.1 0.31 0.35 0.45; lower in 3 of 4 seeds
        "wall_s [s, lower]: parent 0.35 (0.275-0.425)  change 0.33 (0.2575-0.375)"
        "  change better in 3/4",
        # equal is not better: only seed 2 counts
        "ok_ratio [ratio, higher]: parent 1 (0.975-1)  change 1 (1-1)  change better in 1/4",
    ]


def test_runs_keep_correct_and_failed_counts():
    # one perfbench summary line per run; seed 2 fails on both sides, seed 3 on the change
    def fake_run(side, seed):
        wrong = seed == 2 or (side, seed) == ("change", 3)
        return bench_pairs.run_record({
            "correct": not wrong, "attempted": 30, "failed": int(wrong),
            "metrics": {"wall_s": {"value": 0.2 + seed / 100, "unit": "s"}},
        })

    results = bench_pairs.run_pairs([1, 2, 3], fake_run)
    assert results["change"][3] == {"wall_s": 0.23, "correct": False, "failed": 1, "attempted": 30}
    assert bench_pairs.summary_lines(results, METRICS[:1]) == [
        "wall_s [s, lower]: parent 0.22 (0.215-0.225)  change 0.22 (0.215-0.225)"
        "  change better in 0/3",
    ]
    assert bench_pairs.correctness_lines(results) == [
        "parent: correct: false at 1 of 3 seeds: 2",
        "change: correct: false at 2 of 3 seeds: 2, 3",
    ]
    every_seed_correct = {side: {1: {"correct": True}} for side in bench_pairs.SIDES}
    assert bench_pairs.correctness_lines(every_seed_correct) == [
        "parent: correct: false at 0 of 1 seeds", "change: correct: false at 0 of 1 seeds",
    ]


def test_verdicts_by_wins_spread_and_bound():
    parent = [1.0 + 0.01 * k for k in range(10)]  # median 1.045, q1-q3 1.0225-1.0675
    wide = [1.0] * 7 + [100.0] * 3  # median 1, q1-q3 1-75.25
    spread = [0.17, 0.175, 0.18, 0.19, 0.2, 0.2114, 0.23, 0.24, 0.25, 0.26]  # q1-q3 0.1825-0.2375
    cases = {
        # name: (better, bound, parent runs, change runs, verdict)
        "won_9": ("lower", 0.25, parent,
                  [p - 0.1 for p in parent[:9]] + [parent[9] + 0.01], "gain"),
        "won_8": ("lower", 0.25, parent,
                  [p - 0.1 for p in parent[:8]] + [p + 0.01 for p in parent[8:]], "no regression"),
        "worse_beyond_bound": ("lower", 0.1, [50.0] * 10, [55.5] * 10, "regression"),
        "worse_within_bound": ("lower", 0.1, [50.0] * 10, [54.5] * 10, "no regression"),
        "higher_is_better": ("higher", 0.25, parent, [p + 0.1 for p in parent], "gain"),
        "ties": ("higher", 0.01, [1.0] * 10, [1.0] * 10, "no regression"),
        "spread_beyond_bound": ("lower", 0.1, wide, wide[::-1], "unresolved"),
        # medians 0.2057 -> 0.2675, worse by more than the 0.0514 bound, but
        # the parent's q3-q1 of 0.055 is wider than the bound too
        "spread_beyond_bound_and_worse": ("lower", 0.25, spread, [p + 0.0618 for p in spread],
                                          "unresolved"),
        # every change run beats every parent run: resolved without a gain
        "spread_but_all_better": ("lower", 0.1, wide, [0.5] * 10, "no regression"),
    }
    metrics = [{"name": name, "unit": "s", "better": better, "bound": bound}
               for name, (better, bound, *_) in cases.items()]
    results = {side: {seed: {name: case[2 + n][seed] for name, case in cases.items()}
                      for seed in range(10)} for n, side in enumerate(bench_pairs.SIDES)}
    lines = bench_pairs.verdict_lines(results, metrics)
    assert [line.split(" (")[0] for line in lines] == [
        f"{name} verdict: {case[-1]}" for name, case in cases.items()
    ]
    assert lines[0] == ("won_9 verdict: gain (median better by 0.1 s; parent q3-q1 0.045 s, "
                        "bound 0.2612 s; change better in 9/10)")


def test_header_says_whether_bytecode_is_written(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.header_line("assess", [301, 302, 310], 25) == (
        "assess, seeds 301-310, 25 s per run, PYTHONDONTWRITEBYTECODE set")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.header_line("maps", [7], 8).endswith("PYTHONDONTWRITEBYTECODE not set")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git command")
def test_worktree_export_carries_uncommitted_and_untracked_files(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "pkg" / "gone.py").write_text("committed, then deleted\n")
    (repo / ".gitignore").write_text("out/\n*.log\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org"]
    subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], cwd=repo, check=True)
    (repo / "pkg" / "kept.py").write_text("edited, not committed\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "out").mkdir()
    (repo / "out" / "record.json").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()
    bench_pairs.export(bench_pairs.worktree_tree(repo), dest, repo)
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited, not committed\n"
    assert not (dest / ".git").exists()
    assert (repo / ".git" / "index").read_bytes() == index
