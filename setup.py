from glob import glob

from setuptools import setup

setup(
    # Ship the bundled examples (and the schedule `python -m repro run`
    # replays by default) so they also work from an installed wheel/sdist,
    # not only a source checkout (the CLI searches
    # <prefix>/share/repro/examples as a fallback).
    data_files=[
        (
            "share/repro/examples",
            sorted(glob("examples/*.py") + glob("examples/*.json")),
        )
    ],
)
