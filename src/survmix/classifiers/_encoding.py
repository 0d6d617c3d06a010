"""Feature-schema capture and dummy encoding shared by the classifiers.

A fitted model remembers the training feature columns (name, kind), each
categorical feature's observed levels and reference level, by the rule of
`dataset.observed_levels` that the Cox design shares.  A weighted
training sample (a bagging member) gets the schema of the sample it stands
for from `FeatureSchema.weighted`.  At prediction time columns are matched
by name, categorical cells by level string, and any level never observed in
training is mapped to the reference level with a warning.  Missing feature
cells are rejected — models require complete rows.
"""

import warnings

import numpy as np

from ..dataset import Dataset, observed_levels
from ..errors import DomainError


class FeatureSchema:
    """Training-time view of the feature columns of a dataset."""

    def __init__(self, features, levels, reference):
        self.features = tuple((str(n), str(k)) for n, k in features)
        self.levels = {n: tuple(v) for n, v in levels.items()}
        self.reference = dict(reference)

    @classmethod
    def fit(cls, data: Dataset) -> "FeatureSchema":
        """Capture the feature columns of `data`, which must have rows."""
        if data.n_rows == 0:
            raise DomainError("cannot fit a classifier on zero rows")
        names = data.feature_names()
        if not names:
            raise DomainError("dataset has no feature columns")
        features, levels, refs = [], {}, {}
        for name in names:
            spec = data.spec(name)
            features.append((name, spec.kind))
            if spec.kind == "categorical":
                codes = data.codes(name)
                counts = np.bincount(codes[codes >= 0], minlength=len(spec.vocabulary))
                observed, heaviest = observed_levels(spec.vocabulary, counts)
                if not observed:
                    raise DomainError(f"feature {name!r} has no observed levels")
                levels[name], refs[name] = observed, heaviest
        return cls(features, levels, refs)

    def weighted(self, mapped: dict, weights: np.ndarray) -> "FeatureSchema":
        """The schema `fit` gives on a sample that holds training row i
        `weights[i]` times, from the training columns `mapped` by this schema:
        each categorical feature keeps its levels of positive weight, and the
        heaviest of them is the reference."""
        levels, refs = {}, {}
        for name, train_levels in self.levels.items():
            counts = np.bincount(mapped[name], weights=weights,
                                 minlength=len(train_levels))
            levels[name], refs[name] = observed_levels(train_levels, counts)
        return FeatureSchema(self.features, levels, refs)

    def map_columns(self, data: Dataset) -> dict:
        """Feature columns of `data` aligned to this schema.

        Numeric features come back as float arrays, categorical ones as codes
        into the training level list (unseen levels mapped to the reference).
        """
        out = {}
        for name, kind in self.features:
            spec = data.spec(name)  # raises DomainError when absent
            if spec.kind != kind:
                raise DomainError(f"feature {name!r} is {spec.kind}, expected {kind}")
            if kind == "numeric":
                v = data.numeric(name)
                if np.isnan(v).any():
                    raise DomainError(f"feature {name!r} has missing values")
                out[name] = v
            else:
                codes = data.codes(name)
                if (codes < 0).any():
                    raise DomainError(f"feature {name!r} has missing values")
                train_levels = self.levels[name]
                index = {lv: i for i, lv in enumerate(train_levels)}
                ref_code = index[self.reference[name]]
                lut = np.empty(max(len(spec.vocabulary), 1), dtype=np.int64)
                unseen = []
                for j, lv in enumerate(spec.vocabulary):
                    mapped = index.get(lv)
                    if mapped is None:
                        lut[j] = ref_code
                        if (codes == j).any():
                            unseen.append(lv)
                    else:
                        lut[j] = mapped
                if unseen:
                    warnings.warn(
                        f"feature {name!r}: levels {unseen} were not seen in training; "
                        f"mapped to reference level {self.reference[name]!r}")
                out[name] = lut[codes] if len(codes) else codes.astype(np.int64)
        return out

    def to_state(self) -> dict:
        return {"features": [list(f) for f in self.features],
                "levels": {n: list(v) for n, v in self.levels.items()},
                "reference": dict(self.reference)}

    @classmethod
    def from_state(cls, state: dict) -> "FeatureSchema":
        return cls([tuple(f) for f in state["features"]],
                   {n: tuple(v) for n, v in state["levels"].items()},
                   state["reference"])


class DummyEncoder:
    """Design-matrix builder: numeric passthrough plus reference-level dummy
    coding, with optional standardization of numeric columns (training
    statistics; zero spreads become 1)."""

    def __init__(self, schema: FeatureSchema, standardize: bool = False,
                 means=None, scales=None):
        self.schema = schema
        self.standardize = standardize
        self.means = means
        self.scales = scales
        self.column_names = []
        for name, kind in schema.features:
            if kind == "numeric":
                self.column_names.append(name)
            else:
                ref = schema.reference[name]
                self.column_names.extend(
                    f"{name}={lv}" for lv in schema.levels[name] if lv != ref)

    @classmethod
    def fit(cls, data: Dataset, standardize: bool = False) -> "DummyEncoder":
        schema = FeatureSchema.fit(data)
        enc = cls(schema, standardize)
        if standardize:
            mapped = schema.map_columns(data)
            means, scales = {}, {}
            for name, kind in schema.features:
                if kind == "numeric":
                    v = mapped[name]
                    means[name] = float(v.mean())
                    sd = float(v.std())
                    scales[name] = sd if sd > 0.0 else 1.0
            enc.means, enc.scales = means, scales
        return enc

    def transform(self, data: Dataset) -> np.ndarray:
        """The design matrix, C-ordered, one column per `column_names` entry."""
        if not self.schema.features:
            raise DomainError("no feature columns to encode")
        mapped = self.schema.map_columns(data)
        out = np.empty((data.n_rows, len(self.column_names)))
        j = 0
        for name, kind in self.schema.features:
            if kind == "numeric":
                v = mapped[name]
                if self.standardize:
                    v = (v - self.means[name]) / self.scales[name]
                out[:, j] = v
                j += 1
            else:
                ref = self.schema.reference[name]
                for code, level in enumerate(self.schema.levels[name]):
                    if level != ref:
                        out[:, j] = mapped[name] == code
                        j += 1
        return out

    def to_state(self) -> dict:
        return {"schema": self.schema.to_state(), "standardize": self.standardize,
                "means": self.means, "scales": self.scales}

    @classmethod
    def from_state(cls, state: dict) -> "DummyEncoder":
        return cls(FeatureSchema.from_state(state["schema"]), state["standardize"],
                   state["means"], state["scales"])
