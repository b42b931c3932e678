"""Synthetic hospital length-of-stay workload (the paper's running example).

Mirrors the schema of Fig. 1: ``patient_info`` joined with ``blood_tests``
and ``prenatal_tests``, and a model that predicts length of stay from
age/pregnancy/gender/blood-pressure — with the ground truth designed so the
paper's optimizations have something to bite on (the ``pregnant`` branch of
a tree is prunable, ``gender`` becomes dead after pruning).
Deterministic under a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.pipeline import Pipeline
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier
from repro.relational.database import Database
from repro.relational.table import Table

FEATURE_NAMES = ["age", "pregnant", "gender", "bp", "heart_rate", "glucose"]


@dataclass
class HospitalDataset:
    """Tables plus the raw feature matrix/labels used for training."""

    patient_info: Table
    blood_tests: Table
    prenatal_tests: Table
    features: np.ndarray  # (n, len(FEATURE_NAMES))
    length_of_stay: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.length_of_stay)


def generate(num_rows: int, seed: int = 0) -> HospitalDataset:
    """Generate a seeded hospital dataset with ``num_rows`` patients."""
    rng = np.random.default_rng(seed)
    ids = np.arange(num_rows, dtype=np.int64)
    age = rng.uniform(16.0, 95.0, num_rows)
    gender = rng.integers(0, 2, num_rows).astype(np.float64)  # 0=F, 1=M
    pregnant = np.where(
        (gender == 0) & (age < 50),
        rng.random(num_rows) < 0.4,
        False,
    ).astype(np.float64)
    bp = rng.normal(125.0, 20.0, num_rows).clip(80.0, 220.0)
    heart_rate = rng.normal(75.0, 12.0, num_rows).clip(40.0, 180.0)
    glucose = rng.normal(100.0, 25.0, num_rows).clip(50.0, 400.0)

    # Length of stay: pregnant patients are driven by blood pressure and
    # age; non-pregnant patients additionally by heart rate. The structure
    # matters for the reproduction: a tree fit on this data only tests
    # heart_rate under the pregnant=0 branch, so pruning with pregnant=1
    # makes the prenatal_tests join eliminable — the Fig. 1 cascade.
    pregnant_branch = np.where(
        bp > 140.0, 9.0, np.where(age > 35.0, 8.0, 3.0)
    )
    non_pregnant_branch = np.where(heart_rate > 95.0, 6.0, 2.0)
    base = np.where(pregnant == 1.0, pregnant_branch, non_pregnant_branch)
    noise = rng.normal(0.0, 0.05, num_rows)
    length_of_stay = np.round(np.clip(base + noise, 1.0, 30.0))

    patient_info = Table.from_dict(
        {
            "id": ids,
            "age": age,
            "pregnant": pregnant.astype(np.int64),
            "gender": gender.astype(np.int64),
        }
    )
    blood_tests = Table.from_dict(
        {"id": ids, "bp": bp, "glucose": glucose}
    )
    prenatal_tests = Table.from_dict(
        {"id": ids, "heart_rate": heart_rate, "marker": rng.normal(size=num_rows)}
    )
    features = np.column_stack([age, pregnant, gender, bp, heart_rate, glucose])
    return HospitalDataset(
        patient_info, blood_tests, prenatal_tests, features, length_of_stay
    )


def train_tree_pipeline(
    dataset: HospitalDataset, max_depth: int = 8, seed: int = 0
) -> Pipeline:
    """The running example's model M: scaler + decision tree."""
    pipeline = Pipeline(
        [
            ("scaler", StandardScaler()),
            (
                "clf",
                DecisionTreeClassifier(max_depth=max_depth, random_state=seed),
            ),
        ]
    )
    pipeline.fit(dataset.features, dataset.length_of_stay)
    return pipeline


def load_into(database: Database, dataset: HospitalDataset) -> None:
    """Register the three tables under their Fig. 1 names."""
    database.register_table("patient_info", dataset.patient_info)
    database.register_table("blood_tests", dataset.blood_tests)
    database.register_table("prenatal_tests", dataset.prenatal_tests)


INFERENCE_QUERY = """
DECLARE @model varbinary(max) = (
    SELECT model FROM scoring_models WHERE model_name = 'duration_of_stay');
WITH data AS (
    SELECT pi.id AS id, pi.age AS age, pi.pregnant AS pregnant,
           pi.gender AS gender, bt.bp AS bp,
           pt.heart_rate AS heart_rate, bt.glucose AS glucose
    FROM patient_info AS pi
    JOIN blood_tests AS bt ON pi.id = bt.id
    JOIN prenatal_tests AS pt ON pi.id = pt.id
)
SELECT d.id, p.length_of_stay
FROM PREDICT(MODEL = @model, DATA = data AS d)
WITH (length_of_stay float) AS p
WHERE d.pregnant = 1 AND p.length_of_stay > 7
"""

#: The same inference as a pandas-style script (§3.2): the static analyzer
#: turns it into the plan :data:`INFERENCE_QUERY` binds to, so
#: ``RavenSession.execute_script`` cross-optimizes it the same way.
INFERENCE_SCRIPT = """
data = table('patient_info').merge(table('blood_tests'), on='id')
data = data.merge(table('prenatal_tests'), on='id')
data = data[['id', 'age', 'pregnant', 'gender', 'bp', 'heart_rate', 'glucose']]
model = load_model('duration_of_stay')
scored = model.predict(data)
scored = scored[(scored.pregnant == 1) & (scored.prediction > 7)]
scored[['id', 'prediction']]
"""

QUERY_FEATURE_NAMES = [
    "age",
    "pregnant",
    "gender",
    "bp",
    "heart_rate",
    "glucose",
]


def setup_database(num_rows: int, seed: int = 0, max_depth: int = 8):
    """One-call setup: database + stored model + the Fig. 1 query.

    Returns ``(database, dataset, pipeline)``.
    """
    dataset = generate(num_rows, seed)
    database = Database()
    load_into(database, dataset)
    pipeline = train_tree_pipeline(dataset, max_depth=max_depth, seed=seed)
    database.store_model(
        "duration_of_stay",
        pipeline,
        metadata={"feature_names": QUERY_FEATURE_NAMES},
    )
    return database, dataset, pipeline
