"""Bootstrap-aggregated Gini trees.

Member ``t`` is a full Gini-tree fit on the bootstrap sample (n rows drawn
with replacement) produced by the substream tagged ``"bag:t"`` of the model
seed, so any member can be reproduced in isolation from (data, seed, t).
The sample is never copied: the training set is encoded and presorted once,
and member ``t`` grows on it with row weights, the number of times the
sample draws each row (Breiman 1996).  The members grow together, breadth
first, in the frontier engine of `trees`, as many at a time as keep the
frontier within its bound; a member's tree does not depend on which others
grow beside it.  Its schema is the one the copied sample would give
(`FeatureSchema.weighted`), and its tree equals ``fit_cart`` on the copied
sample node for node, under the same parameters: `BagParams` is a
`TreeParams` with a member count.  The ensemble probability is the
unweighted mean of the member tree probabilities — exactly, not a rounded
vote.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ..rng import substream
from .trees import (DecisionTreeModel, TreeParams, _Encoded, _grow_greedy,
                    _trees_per_frontier)


@dataclass(frozen=True)
class BagParams(TreeParams):
    """Each member's stopping rules, and the number of members."""

    members: int = 50

    def __post_init__(self):
        super().__post_init__()
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
        # member by member, so that a row's sum does not depend on the batch
        total = self.trees[0].predict_proba(data)
        for tree in self.trees[1:]:
            total += tree.predict_proba(data)
        return total / len(self.trees)

    def to_state(self) -> dict:
        return {"seed": self.seed, "trees": [tree.to_state() for tree in self.trees]}

    @classmethod
    def from_state(cls, state) -> "BaggingModel":
        trees = [DecisionTreeModel.from_state("rpart", s) for s in state["trees"]]
        return cls(trees, state["seed"])


def fit_bagging(train: Dataset, params: BagParams, seed: int) -> BaggingModel:
    data = _Encoded(train)
    n = len(data.y)
    batch = _trees_per_frontier(data)
    trees = []
    for first in range(0, params.members, batch):
        members = range(first, min(first + batch, params.members))
        weights = np.array([np.bincount(bootstrap_indices(seed, t, n), minlength=n)
                            for t in members], dtype=float)
        grown = _grow_greedy(data, weights, "gini", params)
        trees += [DecisionTreeModel("rpart", data.schema.weighted(data.mapped, w), nodes)
                  for w, nodes in zip(weights, grown)]
    return BaggingModel(trees, seed)
