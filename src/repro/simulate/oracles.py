"""Simulated expensive oracles (substrate).

The paper's oracles are expensive DNNs (Mask R-CNN, BERT) or human
labelers; cost is measured in oracle *invocations* (§5.1 "Metrics").
Our surrogate datasets carry the oracle's answer as a hidden column;
this module is the only sanctioned way to read it, and it counts every
invocation so tests and experiments can assert the sampling budget is
respected — the core claim of the paper is doing fewer of these calls.

Two interfaces are provided:

* ``SimulatedOracle.call(labels_or_rows)`` — local/numpy path, counts
  on the driver.
* ``SimulatedOracle.spark_udf(spark)`` — a pandas UDF whose invocations
  are counted with a Spark accumulator, for the DataFrame query path
  where the oracle runs on executors against only the sampled rows.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.spark_worker import release_zip_importers


class BudgetExceededError(RuntimeError):
    """Raised when an oracle is invoked more times than its budget."""


class SimulatedOracle:
    """Call-counting gate in front of a hidden label column.

    Args:
        label_col: name of the hidden ground-truth column in the dataset
            (e.g. ``"label"`` for the predicate, ``"group"`` for a
            group-by key oracle).
        budget: optional hard cap on invocations; exceeding it raises
            BudgetExceededError, mirroring the ``ORACLE LIMIT`` clause.
    """

    def __init__(self, label_col: str = "label", budget: int | None = None):
        self.label_col = label_col
        self.budget = budget
        self._count = 0
        self._acc = None
        self._udf = None

    # ------------------------------------------------------------------
    # Local / numpy path
    # ------------------------------------------------------------------
    def call(self, values: np.ndarray) -> np.ndarray:
        """Invoke the oracle on ``values`` (the hidden labels of the
        sampled records). Returns them unchanged; counts the calls."""
        values = np.asarray(values)
        self.charge(values.size)
        return values

    def check_budget(self, n: int) -> None:
        """Raise BudgetExceededError, before any call is made, if ``n``
        more calls would exceed the budget (the Spark path's guard; see
        :meth:`spark_udf`)."""
        if self.budget is not None and self.calls + int(n) > self.budget:
            raise BudgetExceededError(
                f"oracle budget exceeded: {self.calls} spent + {int(n)} planned"
                f" > {self.budget}"
            )

    def charge(self, n: int) -> None:
        """Count ``n`` calls made outside :meth:`call` (e.g. a group-by
        trial's deduplicated draws); raise BudgetExceededError if the
        total now exceeds the budget."""
        self._count += int(n)
        if self.budget is not None and self.calls > self.budget:
            raise BudgetExceededError(
                f"oracle exceeded budget: {self.calls} > {self.budget}"
            )

    # ------------------------------------------------------------------
    # Spark path
    # ------------------------------------------------------------------
    def spark_udf(self, spark: SparkSession):
        """A pandas UDF ``oracle(hidden_label) -> label`` that counts
        invocations with a Spark accumulator (sums across executors).
        Built once per accumulator: :meth:`reset` drops both.

        The UDF itself cannot enforce ``budget``: executors only add to
        the accumulator, and the driver sees the sum after the job. The
        Spark queries call :meth:`check_budget` with each stage's planned
        row count first."""
        if self._udf is None:
            acc = self._acc = spark.sparkContext.accumulator(0)

            @F.pandas_udf("long")
            def _oracle(col: pd.Series) -> pd.Series:
                release_zip_importers()
                acc.add(len(col))
                return col.astype("int64")

            self._udf = _oracle
        return self._udf

    def apply(self, df):
        """Apply the oracle to a (sampled!) DataFrame, adding ``oracle_label``.

        Applying this to the full dataset defeats the paper's purpose;
        tests assert via ``calls`` that only sampled rows are labeled.
        """
        udf = self.spark_udf(df.sparkSession)
        return df.withColumn("oracle_label", udf(F.col(self.label_col)))

    @property
    def calls(self) -> int:
        """Total invocations so far (local + Spark accumulator)."""
        return self._count + (self._acc.value if self._acc is not None else 0)

    def reset(self) -> None:
        self._count = 0
        self._acc = self._udf = None
