"""Shared fixtures for the test suite.

The session-scoped ``spark`` fixture comes from the repo-root
conftest.py. Here we add session-scoped cached datasets so the many
Spark tests share one generation + one cache fill.
"""
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.sampling.base import with_row_id
from repro.synth_data import ads_pandas

DAYS = 30          # test dataset: 30 days ...
SF = 0.01          # ... at 1.5k rows/day = 45k rows total
SEED = 7
WIDE_PARTITIONS = 48  # many more partitions than cores


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


@pytest.fixture(scope="session")
def ads_rid_df(ads_df):
    """``ads_df`` with the row ids every draw hashes."""
    return with_row_id(ads_df)


@pytest.fixture(scope="session")
def ads_wide_pdf(ads_pdf):
    """The ads relation with 30% of ``click`` null (pandas nullable ints)."""
    pdf = ads_pdf.copy()
    null = np.random.default_rng(5).random(len(pdf)) < 0.3
    pdf["click"] = pdf["click"].astype("Int64").mask(null)
    return pdf


@pytest.fixture(scope="session")
def ads_wide_df(spark, ads_wide_pdf):
    """``ads_wide_pdf`` cached in ``WIDE_PARTITIONS`` partitions, like a
    table ingested in many small Arrow batches. The local checkpoint cuts
    the repartition's shuffle out of the plan, so every job over the frame
    starts with its scan."""
    df = (spark.createDataFrame(ads_wide_pdf).repartition(WIDE_PARTITIONS)
          .localCheckpoint().cache())
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="session")
def fit_pool():
    """Spawned worker processes, like the ones ``FlashP`` fits ARIMA on."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool
