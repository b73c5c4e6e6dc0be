import csv
from fractions import Fraction

import numpy as np
import pytest

from insiderank.clustering import ClusterParams
from insiderank.evaluation import (
    GroundTruth,
    RocCurve,
    load_ground_truth,
    roc_auc,
    score_distribution,
    write_auc_summary_csv,
    write_distribution_csv,
    write_ground_truth,
    write_roc_csv,
)
from insiderank.ranking import OutlierScoreTable


def mw_oracle(scores, truth):
    """Exact rank-statistic AUC as a Fraction, by explicit pair counting."""
    pos = [v for u, v in scores.items() if u in truth.users]
    neg = [v for u, v in scores.items() if u not in truth.users]
    total = Fraction(0)
    for p in pos:
        for q in neg:
            if p < q:
                total += 1
            elif p == q:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


def check_curve(curve):
    assert curve.points[0] == (0.0, 0.0)
    assert curve.points[-1] == (1.0, 1.0)
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))
    area = sum(
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:])
    )
    assert abs(area - curve.auc) < 1e-12
    assert 0.0 <= curve.auc <= 1.0


def test_perfect_separation_is_exactly_one():
    scores = {"U1": 0.1, "U2": 0.15, "U3": 0.2, "U4": 0.9}
    truth = GroundTruth(frozenset({"U1", "U2"}))
    curve = roc_auc(scores, truth)
    assert curve.auc == 1.0
    check_curve(curve)


def test_all_tied_scores_are_exactly_half():
    scores = {f"U{i}": 0.7 for i in range(10)}
    truth = GroundTruth(frozenset({"U0", "U3", "U4"}))
    curve = roc_auc(scores, truth)
    assert curve.auc == 0.5
    # single threshold: everything predicted positive at once
    assert curve.points == ((0.0, 0.0), (1.0, 1.0))


def test_three_quarters_example():
    scores = {"U1": 0.1, "U2": 0.5, "U3": 0.2, "U4": 0.9}
    truth = GroundTruth(frozenset({"U1", "U2"}))
    curve = roc_auc(scores, truth)
    # pairs: (0.1,0.2) ok, (0.1,0.9) ok, (0.5,0.2) wrong, (0.5,0.9) ok
    assert curve.auc == 0.75
    assert curve.auc == float(mw_oracle(scores, truth))
    check_curve(curve)


def test_curve_points_follow_threshold_sweep():
    scores = {"U1": 0.1, "U2": 0.5, "U3": 0.2, "U4": 0.9}
    truth = GroundTruth(frozenset({"U1", "U2"}))
    curve = roc_auc(scores, truth)
    assert curve.points == (
        (0.0, 0.0),
        (0.0, 0.5),
        (0.5, 0.5),
        (0.5, 1.0),
        (1.0, 1.0),
    )


def test_matches_pair_counting_oracle_on_random_inputs():
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        if seed % 3 == 0:
            values = rng.integers(0, 5, size=n) / 4.0  # force ties
        else:
            values = rng.random(n)
        scores = {f"U{i:04d}": float(values[i]) for i in range(n)}
        n_pos = int(rng.integers(1, n))
        members = rng.permutation(n)[:n_pos]
        truth = GroundTruth(frozenset(f"U{i:04d}" for i in members))
        curve = roc_auc(scores, truth)
        assert curve.auc == float(mw_oracle(scores, truth))
        check_curve(curve)


def test_monotone_transform_leaves_curve_unchanged():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(6, 40))
        values = rng.integers(0, 8, size=n) / 7.0
        scores = {f"U{i}": float(values[i]) for i in range(n)}
        truth = GroundTruth(frozenset(f"U{i}" for i in range(n) if rng.random() < 0.4))
        if not truth.users or len(truth.users) == n:
            continue
        base = roc_auc(scores, truth)
        for transform in (lambda x: 2.0 * x + 3.0, lambda x: x**3, np.tanh):
            mapped = {u: float(transform(v)) for u, v in scores.items()}
            curve = roc_auc(mapped, truth)
            assert curve.auc == base.auc
            assert curve.points == base.points


def test_negated_scores_complement_auc_when_tie_free():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(5, 50))
        values = rng.permutation(n).astype(float)  # distinct, tie-free
        scores = {f"U{i}": float(values[i]) for i in range(n)}
        k = int(rng.integers(1, n))
        truth = GroundTruth(frozenset(f"U{i}" for i in rng.permutation(n)[:k]))
        auc = roc_auc(scores, truth).auc
        flipped = roc_auc({u: -v for u, v in scores.items()}, truth).auc
        assert abs(auc + flipped - 1.0) < 1e-12


def test_degenerate_label_sets_raise():
    scores = {"U1": 0.1, "U2": 0.2}
    with pytest.raises(ValueError):
        roc_auc(scores, GroundTruth(frozenset()))
    with pytest.raises(ValueError):
        roc_auc(scores, GroundTruth(frozenset({"U1", "U2"})))
    # labels that match nothing scored are the same as no positives
    with pytest.raises(ValueError):
        roc_auc(scores, GroundTruth(frozenset({"U9"})))


def test_unscored_labels_are_ignored_but_reportable():
    scores = {"U1": 0.1, "U2": 0.5, "U3": 0.2, "U4": 0.9}
    with_extra = GroundTruth(frozenset({"U1", "U2", "ZZZ"}))
    plain = GroundTruth(frozenset({"U1", "U2"}))
    assert roc_auc(scores, with_extra).auc == roc_auc(scores, plain).auc
    assert with_extra.missing_from(scores) == {"ZZZ"}
    assert plain.missing_from(scores) == set()


def test_ground_truth_file_roundtrip(tmp_path):
    path = tmp_path / "ground_truth.txt"
    path.write_text("U0003\n\nU0001\nU0003\n  \nU0002\n")
    truth = load_ground_truth(path)
    assert truth.users == {"U0001", "U0002", "U0003"}
    assert len(truth) == 3
    assert "U0001" in truth

    out = tmp_path / "copy.txt"
    write_ground_truth(out, truth)
    assert out.read_text() == "U0001\nU0002\nU0003\n"
    assert load_ground_truth(out).users == truth.users


def make_table(column):
    n = len(column)
    scores = np.tile(np.asarray(column, dtype=float)[:, None], (1, 6))
    return OutlierScoreTable(
        user_ids=tuple(f"U{i}" for i in range(n)),
        scores=scores,
        memberships=np.zeros(n, dtype=np.int64),
    )


def test_score_distribution_orders_descending():
    table = make_table([1.45, 0.0, 0.3])
    assert score_distribution(table, 1) == [(1, 1.45), (2, 0.3), (3, 0.0)]
    assert score_distribution(make_table([0.0, 0.0, 0.0]), 2) == [
        (1, 0.0),
        (2, 0.0),
        (3, 0.0),
    ]


def test_roc_csv_layout(tmp_path):
    curve = RocCurve(points=((0.0, 0.0), (0.5, 1.0), (1.0, 1.0)), auc=0.75)
    path = tmp_path / "roc.1.csv"
    write_roc_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fpr", "tpr"]
    parsed = tuple((float(a), float(b)) for a, b in rows[1:])
    assert parsed == curve.points


def test_distribution_csv_layout(tmp_path):
    series = [(1, 1.45), (2, 0.3), (3, 0.0)]
    path = tmp_path / "distribution.1.csv"
    write_distribution_csv(path, series)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "score"]
    assert [(int(r), float(s)) for r, s in rows[1:]] == series


def test_auc_summary_csv_layout(tmp_path):
    path = tmp_path / "auc_summary.csv"
    rows = [
        ("A", ClusterParams(n_min=3, s_min=2), [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
        ("B", ClusterParams(n_min=4, s_min=3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
    ]
    write_auc_summary_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == [
        "case", "n_min", "s_min",
        "score_1", "score_2", "score_3", "score_4", "score_5", "score_6",
    ]
    assert parsed[1][:3] == ["A", "3", "2"]
    assert [float(x) for x in parsed[1][3:]] == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert parsed[2][:3] == ["B", "4", "3"]

    with pytest.raises(ValueError):
        write_auc_summary_csv(path, [("C", ClusterParams(), [0.5])])


def test_auc_summary_csv_appends_the_parameters_that_vary(tmp_path):
    path = tmp_path / "auc_summary.csv"
    aucs = [0.5] * 6
    rows = [("A", ClusterParams(w=0.1, rcl_alpha=0.3, n_min=3), aucs),
            ("B", ClusterParams(w=0.2, rcl_alpha=0.3, n_min=3), aucs),
            ("C", ClusterParams(w=0.2, rcl_alpha=0.5, n_min=3), aucs)]
    write_auc_summary_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0][:9] == ["case", "n_min", "s_min", *(f"score_{k}" for k in range(1, 7))]
    assert parsed[0][9:] == ["w", "rcl_alpha"]
    assert [r[9:] for r in parsed[1:]] == [["0.1", "0.3"], ["0.2", "0.3"], ["0.2", "0.5"]]
