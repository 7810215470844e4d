"""Grid search, family selection, and the final voting gate.

The selection protocol: hold out a seeded 100-row validation split, grid
search every family with three seeds per setting, score settings by
downstream validation In-Accuracy (the correctness of the answer each
predicted decision would surface), rank families, retrain the top two on
the full training set, and soft-vote them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import answer_outcomes, in_accuracy
from .base import DegenerateData, EmptyGrid, InvalidHyperparameter, TabularDataset
from .grids import FAMILY_CLASSES, FAMILY_ORDER, canonical_key, construct, family_class
from .scaler import Scaler, fit_scaler, scaler_from_dict, scaler_to_dict, transform
from .voting import VotingModel

SELECTION_THRESHOLD = 0.5


def train(family: str, params: dict, seed: int, data: TabularDataset):
    """Fit one family member. An unknown family, a hyperparameter the family
    does not take and a value of the wrong type raise InvalidHyperparameter."""
    model = construct(family, params, seed)
    try:
        return model.fit(data.X, data.y)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidHyperparameter(f"{family} setting {canonical_key(params)} is invalid: {exc}") from None


@dataclass(frozen=True)
class EvalSplit:
    """Validation features plus the answer outcomes selection scoring needs."""

    data: TabularDataset
    correct_without: np.ndarray
    correct_with: np.ndarray

    @classmethod
    def from_records(cls, data: TabularDataset, records) -> "EvalSplit":
        if len(records) != data.n:
            raise ValueError(f"{len(records)} records for {data.n} feature rows")
        cwo, cw = answer_outcomes(records)
        return cls(data=data, correct_without=cwo, correct_with=cw)


def selection_in_accuracy(proba: np.ndarray, split: EvalSplit, threshold: float = SELECTION_THRESHOLD) -> float:
    return in_accuracy(np.asarray(proba) >= threshold, split.correct_without, split.correct_with)


@dataclass
class GridSearchResult:
    family: str
    best_params: dict
    best_score: float
    history: list = field(default_factory=list)
    # declared fits (points x seeds), fits run, trees grown, seconds
    timing: dict = field(default_factory=dict)


def fit_plan(family: str, grid_points: list[dict]) -> list[tuple[dict, bool, dict]]:
    """One fit per ``Family.fit_key`` (``PREFIX`` count left out), in order of
    first appearance: the setting to fit, at its largest count; whether the
    seed is read; {count, or None: indices of the points it scores}."""
    cls = family_class(family, ())
    groups: dict[str, tuple[dict, bool, dict]] = {}
    for i, params in enumerate(grid_points):
        key, seeded = cls.fit_key(construct(family, params).get_params())
        count = key.pop(cls.PREFIX) if cls.PREFIX else None
        groups.setdefault(canonical_key(key), (key, seeded, {}))[2].setdefault(count, []).append(i)
    return [
        ({**key, cls.PREFIX: max(by_count)} if cls.PREFIX else key, seeded, by_count)
        for key, seeded, by_count in groups.values()
    ]


def grid_search(family: str, grid_points: list[dict], train_data: TabularDataset, val: EvalSplit, seeds) -> GridSearchResult:
    """Mean downstream validation InAcc over seeds, per setting; argmax wins.

    Settings share fits as ``fit_plan`` groups them, a ``PREFIX`` count is
    scored on a ``truncated`` view, and a fit that reads no seed scores for
    every seed: each setting gets the per-seed scores, and mean, of its own fits.

    Exact score ties go to the setting with the smaller canonical key
    (sorted-JSON encoding of its hyperparameters).
    """
    if not grid_points:
        raise EmptyGrid(f"no grid points for family {family!r}")
    start = time.perf_counter()
    scores: list[list[float]] = [[] for _ in grid_points]
    fits = trees = 0
    for params, seeded, by_count in fit_plan(family, grid_points):
        fit_seeds, copies = (seeds, 1) if seeded else (seeds[:1], len(seeds))
        for seed in fit_seeds:
            model = train(family, params, int(seed), train_data)
            fits += 1
            trees += len(getattr(model, "trees", ())) + hasattr(model, "tree")  # ensembles, dtree
            for count, points in by_count.items():
                view = model if count is None else model.truncated(count)
                score = selection_in_accuracy(view.predict_proba(val.data.X), val)
                for i in points:
                    scores[i] += [score] * copies
    best: tuple[float, str, dict] | None = None
    history = []
    for params, per_seed in zip(grid_points, scores):
        mean_score = float(np.mean(per_seed))
        key = canonical_key(params)
        history.append({"params": params, "score": mean_score})
        if best is None or mean_score > best[0] or (mean_score == best[0] and key < best[1]):
            best = (mean_score, key, params)
    timing = {"declared_fits": len(grid_points) * len(seeds), "fits": fits, "trees": trees,
              "seconds": round(time.perf_counter() - start, 6)}
    return GridSearchResult(family=family, best_params=best[2], best_score=best[0], history=history, timing=timing)


@dataclass
class GateModel:
    """Scaler + voting pair + the feature layout they were trained on."""

    feature_names: tuple[str, ...]
    feature_groups: tuple[str, ...]
    scaler: Scaler
    voting: VotingModel
    provenance: dict = field(default_factory=dict)
    # per family grid_search timing; written beside the artifact, never in it
    timings: dict = field(default_factory=dict, compare=False)

    def predict_proba(self, X_raw: np.ndarray) -> np.ndarray:
        return self.voting.predict_proba(transform(self.scaler, X_raw))

    def permuted_proba(self, X_raw: np.ndarray, perms: np.ndarray) -> np.ndarray:
        # Scaling is element-wise, so it commutes with a column shuffle bit for bit.
        return self.voting.permuted_proba(transform(self.scaler, X_raw), perms)


def end_to_end_train(
    data: TabularDataset,
    records,
    grids_by_family: dict[str, list[dict]],
    master_seed: int = 0,
    val_size: int = 100,
    feature_groups: tuple[str, ...] | None = None,
) -> GateModel:
    """Run the full selection protocol and return the fitted gate.

    ``records`` align with ``data`` rows and provide the stored answers the
    validation metric scores against. Needs val_size >= 1, at least
    val_size + 20 rows and at least two families in the grids.
    """
    n = data.n
    if len(records) != n:
        raise ValueError(f"{len(records)} records for {n} feature rows")
    if val_size < 1:
        raise DegenerateData(f"val_size must be >= 1, got {val_size}")
    if n < val_size + 20:
        raise DegenerateData(f"need at least {val_size + 20} rows for a {val_size}-row validation split, got {n}")
    families = [f for f in FAMILY_ORDER if f in grids_by_family]
    if len(families) < 2:
        raise DegenerateData(f"voting needs at least 2 families, grids provide {families}")

    rng = np.random.default_rng(master_seed)
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:val_size], perm[val_size:]

    scaler = fit_scaler(data.X[train_idx])
    X_scaled = transform(scaler, data.X)
    train_data = TabularDataset(X_scaled[train_idx], data.y[train_idx], data.feature_names)
    val = EvalSplit.from_records(
        TabularDataset(X_scaled[val_idx], data.y[val_idx], data.feature_names),
        [records[i] for i in val_idx],
    )

    seeds = (master_seed, master_seed + 1, master_seed + 2)
    results = {f: grid_search(f, grids_by_family[f], train_data, val, seeds) for f in families}
    ranking = sorted(families, key=lambda f: (-results[f].best_score, FAMILY_ORDER.index(f)))
    selected = ranking[:2]

    full_data = TabularDataset(X_scaled, data.y, data.feature_names)
    members = tuple(train(f, results[f].best_params, master_seed, full_data) for f in selected)
    voting = VotingModel(families=tuple(selected), members=members)

    provenance = {
        "master_seed": master_seed,
        "seeds": list(seeds),
        "val_size": val_size,
        "val_indices": [int(i) for i in val_idx],
        "families": {
            f: {"best_params": r.best_params, "score": r.best_score, "history": r.history}
            for f, r in results.items()
        },
        "ranking": [[f, results[f].best_score] for f in ranking],
        "selected": list(selected),
    }
    groups = tuple(feature_groups) if feature_groups is not None else ("feature",) * len(data.feature_names)
    if len(groups) != len(data.feature_names):
        raise ValueError("feature_groups length does not match feature_names")
    return GateModel(
        feature_names=tuple(data.feature_names),
        feature_groups=groups,
        scaler=scaler,
        voting=voting,
        provenance=provenance,
        timings={f: r.timing for f, r in results.items()},
    )


def render_training_report(provenance: dict) -> str:
    """training_report.md: the selection, each family's best setting and its search history."""
    families = provenance["families"]
    lines = [
        "# Gate training report",
        "",
        f"- master seed: {provenance['master_seed']}",
        f"- per-setting seeds: {provenance['seeds']}",
        f"- validation rows: {provenance['val_size']}",
        f"- selected families: {' + '.join(provenance['selected'])}",
        "",
        "| Family | Validation InAcc | Best setting |",
        "| --- | --- | --- |",
    ]
    for family, score in provenance["ranking"]:
        lines.append(f"| {family} | {score:.4f} | `{canonical_key(families[family]['best_params'])}` |")
    lines += ["", "## Search history"]
    for family, _ in provenance["ranking"]:
        lines += ["", f"### {family}", "", "| Setting | Mean validation InAcc |", "| --- | --- |"]
        lines += [f"| `{canonical_key(e['params'])}` | {e['score']:.4f} |" for e in families[family]["history"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gate artifact I/O
# ---------------------------------------------------------------------------


def gate_to_dict(model: GateModel) -> dict:
    return {
        "kind": "retrieval-gate",
        "feature_names": list(model.feature_names),
        "feature_groups": list(model.feature_groups),
        "scaler": scaler_to_dict(model.scaler),
        "members": [
            {"family": family, "state": member.to_dict()}
            for family, member in zip(model.voting.families, model.voting.members)
        ],
        "provenance": model.provenance,
    }


def save_gate(model: GateModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gate_to_dict(model), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def write_training_files(model: GateModel, out_dir) -> list[str]:
    """model.json, training_report.md and train_timings.json in ``out_dir``; returns their paths."""
    paths = [os.path.join(out_dir, name) for name in ("model.json", "training_report.md", "train_timings.json")]
    save_gate(model, paths[0])
    Path(paths[1]).write_text(render_training_report(model.provenance), encoding="utf-8")
    Path(paths[2]).write_text(json.dumps(model.timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def _section(obj: dict, key: str, kind: type):
    if key not in obj:
        raise ValueError(f"gate artifact lacks {key!r}")
    if not isinstance(obj[key], kind):
        raise ValueError(f"gate artifact {key!r} must be a {kind.__name__}, got {type(obj[key]).__name__}")
    return obj[key]


def _strings(obj: dict, key: str) -> tuple[str, ...]:
    values = _section(obj, key, list)
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"gate artifact {key!r} must list strings")
    return tuple(values)


def gate_from_dict(obj: dict) -> GateModel:
    """Rebuild a gate from its artifact; anything malformed raises ValueError."""
    if not isinstance(obj, dict) or obj.get("kind") != "retrieval-gate":
        raise ValueError("not a retrieval-gate artifact")
    names = _strings(obj, "feature_names")
    groups = _strings(obj, "feature_groups")
    scaler = scaler_from_dict(_section(obj, "scaler", dict))
    if not len(names) == len(groups) == scaler.mean.size:
        raise ValueError("gate feature_names, feature_groups and scaler lengths disagree")
    entries = _section(obj, "members", list)
    members = []
    families = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError("each gate member must be an object")
        family = _section(entry, "family", str)
        if family not in FAMILY_CLASSES:
            raise ValueError(f"artifact names unknown family {family!r}")
        state = _section(entry, "state", dict)
        try:
            members.append(FAMILY_CLASSES[family].from_dict(state, n_features=len(names)))
        except (KeyError, TypeError, AttributeError, IndexError, OverflowError, InvalidHyperparameter) as exc:
            raise ValueError(f"invalid {family} member state: {type(exc).__name__}: {exc}") from None
        families.append(family)
    return GateModel(
        feature_names=names,
        feature_groups=groups,
        scaler=scaler,
        voting=VotingModel(families=tuple(families), members=tuple(members)),
        provenance=_section(obj, "provenance", dict) if "provenance" in obj else {},
    )


def load_gate(path) -> GateModel:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return gate_from_dict(obj)
