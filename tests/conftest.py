"""Shared fixtures for the test suite.

The session-scoped ``spark`` fixture comes from the repo-root
conftest.py. Here we add session-scoped cached datasets so the many
Spark tests share one generation + one cache fill.
"""
import pytest

from repro.synth_data import ads_pandas

DAYS = 30          # test dataset: 30 days ...
SF = 0.01          # ... at 1.5k rows/day = 45k rows total
SEED = 7


@pytest.fixture(scope="session")
def ads_pdf():
    """The ads relation as pandas — ground truth for the DuckDB oracle."""
    return ads_pandas(sf=SF, days=DAYS, seed=SEED)


@pytest.fixture(scope="session")
def ads_df(spark, ads_pdf):
    """The same ads relation as a cached Spark DataFrame."""
    df = spark.createDataFrame(ads_pdf).cache()
    df.count()
    yield df
    df.unpersist()
