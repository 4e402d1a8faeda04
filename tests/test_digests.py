"""The fast entries of `tools/digests.py` against its committed reference.

The full check (`PYTHONPATH=src python3 tools/digests.py --check`) trains
every recipe.  These eight entries take about 2 s.  Four pin the
augmentation pipeline's bytes, every op's gradcheck error, every recipe's
freshly built weights and the chunked encoder stage's forward and
backward.  The four `eval/*` entries pin the eval pass: a one-epoch desk
moco checkpoint's `extract_features` and `_encode_view_pairs` features
and the reports that `hcl probe` and `hcl metrics` write from them.
`gradcheck/framework_suite` (~13 s) and the pretrain runs are left to
the full check.
"""

import importlib.util
from pathlib import Path

import pytest

DIGESTS = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


@pytest.fixture(scope="module")
def digests():
    """tools/digests.py as a module.  Its import pins the BLAS thread
    variables in ``os.environ``; they are restored afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.setenv(var, "1")  # records the prior value for the restore
        spec = importlib.util.spec_from_file_location("digests", DIGESTS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("entry, build", [("augment/adversarial", "_adversarial_views"),
                                          ("gradcheck/op_suite", "_op_suite"),
                                          ("init/state", "_init_state"),
                                          ("tensor/stage_chunks", "_stage_chunks")])
def test_entry_matches_reference(digests, entry, build):
    assert digests._sha(getattr(digests, build)()) == digests.REFERENCE[entry]


def test_eval_unit_matches_reference(digests, tmp_path):
    """The `eval/*` entries, through the real `hcl probe` and `hcl metrics`."""
    got: dict[str, str] = {}
    digests._eval_unit(tmp_path, digests._data(tmp_path, "desk", digests.DESK["data"]), got)
    assert got == {k: v for k, v in digests.REFERENCE.items() if k.startswith("eval/")}
