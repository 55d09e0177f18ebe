from setuptools import setup

setup(
    extras_require={
        # The vector carrier (cohorts of same-program tenants); everything else
        # runs on the standard library alone.  NumPy 2: the lane
        # carrier's generated source keeps literals as Python ints and
        # relies on weak scalar promotion (``row & 255`` stays uint64).
        "batch": ["numpy>=2"],
        # What the test suite imports (CI installs exactly these).
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
