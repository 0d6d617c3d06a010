"""Bootstrap-aggregated Gini trees.

Member ``t`` is a full Gini-tree fit on the bootstrap sample (n rows drawn
with replacement) produced by the substream tagged ``"bag:t"`` of the model
seed, so any member can be reproduced in isolation from (data, seed, t).
The ensemble probability is the unweighted mean of the member tree
probabilities — exactly, not a rounded vote.
"""

from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ..rng import substream
from .trees import DecisionTreeModel, TreeParams, fit_cart, _labels


@dataclass(frozen=True)
class BagParams:
    members: int = 50
    tree: TreeParams = field(default_factory=TreeParams)
    bootstrap: bool = True  # False refits every member on the full sample

    def __post_init__(self):
        if self.members < 1:
            raise DomainError("members must be at least 1")


def bootstrap_indices(seed: int, member: int, n_rows: int) -> np.ndarray:
    """The bootstrap sample drawn by the given ensemble member."""
    return substream(seed, f"bag:{member}").integers(0, n_rows, n_rows)


class BaggingModel:
    algorithm = "bag"

    def __init__(self, trees, seed):
        self.trees = list(trees)
        self.seed = seed

    def predict_proba(self, data: Dataset) -> np.ndarray:
        member = np.vstack([tree.predict_proba(data) for tree in self.trees])
        return member.mean(axis=0)

    def to_state(self) -> dict:
        return {"seed": self.seed, "trees": [tree.to_state() for tree in self.trees]}

    @classmethod
    def from_state(cls, state) -> "BaggingModel":
        trees = [DecisionTreeModel.from_state("rpart", s) for s in state["trees"]]
        return cls(trees, state["seed"])


def fit_bagging(train: Dataset, params: BagParams, seed: int = 0) -> BaggingModel:
    _labels(train)  # zero-row / missing-label checks up front
    trees = []
    for t in range(params.members):
        if params.bootstrap:
            sample = train.take_rows(bootstrap_indices(seed, t, train.n_rows))
        else:
            sample = train
        trees.append(fit_cart(sample, params.tree))
    return BaggingModel(trees, seed)
