"""The fast entries of `tools/digests.py` against its committed reference.

The full check (`PYTHONPATH=src python3 tools/digests.py --check`) trains
every recipe.  These nine entries take about 2 s.  Five pin the
augmentation pipeline's bytes, every op's gradcheck error, every recipe's
freshly built weights, the chunked encoder stage's forward and backward,
and one step of every recipe (loss, diagnostics, gradients and updated
state).  The four `eval/*` entries pin the eval pass: a one-epoch desk
moco checkpoint's `extract_features` and `_encode_view_pairs` features
and the reports that `hcl probe` and `hcl metrics` write from them.
`gradcheck/framework_suite` (~13 s) and the pretrain runs are left to
the full check.  The last test checks that the tool names the BLAS
kernel that OpenBLAS runs.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "digests.py"


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
                                          ("tensor/stage_chunks", "_stage_chunks"),
                                          ("frameworks/steps", "_framework_steps")])
def test_entry_matches_reference(digests, entry, build):
    assert digests._sha(getattr(digests, build)()) == digests.REFERENCE[entry]


def test_eval_unit_matches_reference(digests, tmp_path):
    """The `eval/*` entries, through the real `hcl probe` and `hcl metrics`."""
    got: dict[str, str] = {}
    digests._eval_unit(tmp_path, digests._data(tmp_path, "desk", digests.DESK["data"]), got)
    assert got == {k: v for k, v in digests.REFERENCE.items() if k.startswith("eval/")}


def test_blas_kernel_names_a_forced_kernel():
    """`_blas_kernel` reads the kernel OpenBLAS runs, so a forced one shows."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Sandybridge"}
    code = ("import importlib.util as u; s = u.spec_from_file_location('d', %r); "
            "m = u.module_from_spec(s); s.loader.exec_module(m); print(m._blas_kernel())"
            % str(DIGESTS))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "Sandybridge"
