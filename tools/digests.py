"""Print, or check, the sha256 digests that pin this repository's bytes.

    PYTHONPATH=src python3 tools/digests.py [--check]

It builds, in a temporary directory and at seed 1:

- the two synthetic data files, desk (10 classes x 20) and quickstart
  (4 classes x 80);
- the 12 pretrain runs, the six recipes (moco, simclr, simsiam, each
  with the hallucinator on and off) at the desk config (2 epochs) and at
  the quickstart config (2 epochs, per-epoch checkpoints), each as its
  `metrics.csv` / `checkpoint.hcl` pair;
- the `eval` unit: a desk moco checkpoint (1 epoch) encoding an 8 x 64
  synthetic eval set: the `probe_report.csv` and `metrics_report.csv`
  that `hcl probe` and `hcl metrics` write (run through `cli.main`, their
  prints kept off stdout), and the `extract_features` and
  `_encode_view_pairs` features behind them;
- `extract_features` (features then labels) and `_encode_view_pairs` on
  the quickstart moco checkpoint, whose 16 px input takes the resize path;
- `op_gradcheck_suite(seed=0)`: one digest over every entry's name and
  error as `float.hex`, so a backward rewrite that moves one bit of an
  op's gradient shows here (~0.1 s);
- `framework_gradcheck_suite()`: the same over every recipe's loss with
  the hallucinator on and off, the other half of the acceptance gate's
  gradient check (~13 s);
- `augment/adversarial`: `augment_batch` at `out_size` 32 and 16 on a
  fixed batch of color blocks that the synthetic data rarely reaches:
  exact channel-max ties, grays (span 0), black, white, the hue sector
  edges k/6, and reds whose hue a shift carries across 0 and 1.
- `init/state`: every recipe's `state_arrays()` at the desk config as
  built, before any step: one digest over each recipe's array names, in
  sorted order, and bytes, so a change to how a head or encoder is
  initialised shows here (~0.1 s).
- `tensor/stage_chunks`: `conv_relu_pool` at the desk encoder's first two
  stage shapes at batch 20, which `hcl.tensor` runs in several image
  chunks (5 of 4 images, and 6 of 3 with a last one of 2): the no-tape
  and taped outputs and the gradients of the input, weights and bias
  (~0.1 s).  The chunk size does not enter the bytes.
- `frameworks/steps`: one step of each recipe, with the hallucinator off
  and on, and of SimSiam with `hallucinate_after_predictor`, on
  `framework_gradcheck_suite`'s encoder and batch with λ from
  `draw_lambdas`: the loss, diagnostics, gradients, `loss_closure` value
  and state after `after_update` (~0.3 s).

It prints them as JSON.  With ``--check`` it compares them against the
reference below, names every entry that differs, and exits 1 if any does;
when numpy's OpenBLAS runs another kernel than ``REFERENCE_KERNEL`` it
first prints one stderr line naming both.  BLAS is pinned to one thread
before numpy loads.  The reference was taken with OpenBLAS 0.3.31 and
numpy 2.4.6 on x86-64, kernel SkylakeX; another BLAS build or kernel may
round GEMMs differently and so change every digest after the data files.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hcl import cli  # noqa: E402
from hcl.augment import AugmentConfig, augment_batch  # noqa: E402
from hcl.config import config_from_dict  # noqa: E402
from hcl.data import generate_synthetic, load_cifar_batch  # noqa: E402
from hcl.encoder import EncoderConfig  # noqa: E402
from hcl.frameworks import FRAMEWORK_NAMES, FrameworkConfig, build_framework  # noqa: E402
from hcl.gradcheck import framework_gradcheck_suite, op_gradcheck_suite  # noqa: E402
from hcl.hallucinator import ExtrapolationConfig  # noqa: E402
from hcl.rng import substream  # noqa: E402
from hcl.tensor import Tensor, conv_relu_pool, multiply, no_tape, sum_  # noqa: E402
from hcl.train import extract_features, load_pretrained, pretrain  # noqa: E402

SEED = 1
DESK = {"data": {"classes": 10, "per_class": 20},
        "train": {"preset": "desk", "epochs": 2}}
QUICKSTART = {
    "data": {"classes": 4, "per_class": 80},
    "encoder": {"channels": [8, 16], "hidden_dim": 64, "feature_dim": 32},
    "augment": {"out_size": 16},
    "contrast": {"queue_size": 64},
    "train": {"batch_size": 32, "epochs": 2, "lr": 0.03, "checkpoint_every": 1},
}
EVAL_DATA = {"classes": 8, "per_class": 64}
RECIPES = [(fw, hall) for fw in ("moco", "simclr", "simsiam") for hall in (True, False)]
# Block colors for `augment/adversarial`: black, white, grays, ties of the
# channel max, the six sector edges and reds just either side of hue 0.
ADVERSARIAL_COLORS = [
    (0, 0, 0), (255, 255, 255), (128, 128, 128), (1, 1, 1),
    (200, 200, 40), (40, 200, 200), (200, 40, 200), (90, 90, 30),
    (255, 0, 0), (255, 255, 0), (0, 255, 0), (0, 255, 255),
    (0, 0, 255), (255, 0, 255), (255, 0, 3), (255, 3, 0),
]

REFERENCE = {
    "data/desk.bin":
        "215a4a60a7807a5e4bcfd619d96fbf96db59299e3151287fa82212d9a75377e3",
    "data/quickstart.bin":
        "a238638a72d1f24801482001b2972deaaee8aa9f68e1a0ac55373ad13e8f2500",
    "desk/moco.hall-on/metrics.csv":
        "1453af282addc20cf7b511c4443f9b9cfab8b3358afe323fcadcade8e209b6cd",
    "desk/moco.hall-on/checkpoint.hcl":
        "5015e6113f2797927c8b3ffd45c24e4af0ce428ed8d917b6be50908be05b6344",
    "desk/moco.hall-off/metrics.csv":
        "171c2be59a236c9dc7d5010eb506d35a45c9884edefe794f66d0203ab4283bfb",
    "desk/moco.hall-off/checkpoint.hcl":
        "38f2014880c19a133388153d70488a75c3cd2e99ca2b20201979caf2c8dc218b",
    "desk/simclr.hall-on/metrics.csv":
        "687fb72f52e73404030c2d8c097259a1d332d59381956fe48602f94a8a4304c8",
    "desk/simclr.hall-on/checkpoint.hcl":
        "d5d7bcfaea23afa02bf667ad5b6a7d4c4e58a7a10686101506f319da4f94de20",
    "desk/simclr.hall-off/metrics.csv":
        "6c8577fed6717d5f94c9c098c869bc10bfa0e2b695ed3df0d300865fd8a29265",
    "desk/simclr.hall-off/checkpoint.hcl":
        "cec9ecbec2561eace734f9a969d718dcbb8cadbda3be52242f2a0053c25aa783",
    "desk/simsiam.hall-on/metrics.csv":
        "c885067e4616c9851bbe8f8f1d27b110745915c885974c8f74f2d5dadc3365d9",
    "desk/simsiam.hall-on/checkpoint.hcl":
        "3b2d0449e4cfabfc6e4d122299f36de727ce48bd2ae47a406051c2c129711343",
    "desk/simsiam.hall-off/metrics.csv":
        "9c5784ea06b6cca851d52cbdcc143d709e03023a4a0c629b42cc34d60b2a1180",
    "desk/simsiam.hall-off/checkpoint.hcl":
        "67ed468aec1e851513a1cd5812e14732a679fe3abd5e1e1f1d5ef8256ad964ce",
    "quickstart/moco.hall-on/metrics.csv":
        "a0527e5e87a91506ec2b27f0cede6774c2397e576c4dbb040ccb978c3e0a3fcc",
    "quickstart/moco.hall-on/checkpoint.hcl":
        "f03a809c2cea7b72e195c341f45026f2bbfb0e13da930f54f5dbd9bd0a81e1f5",
    "quickstart/moco.hall-off/metrics.csv":
        "5a4f4dd1f93aaa8880d7993f83f04da4923e1c4a5bd8c09530060e04f2593b82",
    "quickstart/moco.hall-off/checkpoint.hcl":
        "86d63083ff89f35c05e54e16ecb2a6662adc85932e29b1181c8d830dc8e15f84",
    "quickstart/simclr.hall-on/metrics.csv":
        "3e35df68e03df217e59424b94b7ced3181a495db7aecf2dc893ee680b07597b0",
    "quickstart/simclr.hall-on/checkpoint.hcl":
        "9f5b0c11ca24784c23755c5e3bd36ec5523ead4c9561d0892a48f418fc981bda",
    "quickstart/simclr.hall-off/metrics.csv":
        "578408b06807169c2b4e0b57bb23d7b79a6a2fc3256a1f8286e9f3599d3f6779",
    "quickstart/simclr.hall-off/checkpoint.hcl":
        "8d90de9778e0ccbd114b5628858b2ab20e3baa8ad59d2ef5c01ef4a0301cba04",
    "quickstart/simsiam.hall-on/metrics.csv":
        "c160238d59b7309978b94eac45b24592f1073d5d4c6e5d8a9dff0d2c18e06599",
    "quickstart/simsiam.hall-on/checkpoint.hcl":
        "2f2cde76bd5f2d52a3d3ad78dbd7076120455c524dbc47d4d560265c508a33fa",
    "quickstart/simsiam.hall-off/metrics.csv":
        "f90de80d9460e9d2d0e1ffe2f419acbcfaad17dd7760a2d5dbb8120389493d99",
    "quickstart/simsiam.hall-off/checkpoint.hcl":
        "bef00e4de8f8716c9541e99f6d0a68c19ad277a9f8fd0b3a1527badb9358ea11",
    "quickstart/moco.hall-on/extract_features":
        "eb81af67740917a907820944752330c4072e80b8c93c0c84cf483d1bc1cf342c",
    "quickstart/moco.hall-on/encode_view_pairs":
        "f8fc0f3647a3a01db24378dc2865114fc5913818c7836ae72b19da63281d871f",
    "eval/features":
        "e70b2f5a561741bf372a73f77a47a4596fc34fc95aa95ff11118bfbca152fd6e",
    "eval/probe_report.csv":
        "959074fe4561a3ba9c99436e283947c26e373cb8cd039cc5fac77605e83f7b48",
    "eval/metrics_report.csv":
        "7abb1a89edd1bd87b027e821d9f5feb94abe24353ec382196f650b809a08f9e7",
    "eval/encode_view_pairs":
        "aab9a95d2fc3368f0e3015b7648ea9b77cfc6c122ee96a0f314b3df20e60678f",
    "gradcheck/op_suite":
        "4031702abaaffd519ea7d542fbae2b64402f6562cab194e4a70c6343efdd6a15",
    "gradcheck/framework_suite":
        "d10429d142b137c12f4fac69c773cc50c69e97a8aee1bc7b8ad01eb1a7149c02",
    "augment/adversarial":
        "e1d835326750515900b6203fc8ef3baff6a631b6a6ae157fab5bc6943ebf7b65",
    "init/state":
        "ef0b1cecfff21510b8c17e982d0529392ae5d19e222c6f4f61ff4b6617953a39",
    "tensor/stage_chunks":
        "f8987b7e577a7721152e306fe262425e6de46d1e2b13b8e27b0a4495448681ab",
    "frameworks/steps":
        "7a0b8e8a23ae1dcd1280fbb47ac8c743ae662b732b3be1041a05e794bbd1e2f2",
}
# The OpenBLAS kernel that `REFERENCE` was taken on, as `_blas_kernel()` names it.
REFERENCE_KERNEL = "SkylakeX"


def _blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS chose at load (or that
    ``OPENBLAS_CORETYPE`` forced), or "unknown" for another BLAS build."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return "unknown"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(base: dict, framework: str, hallucinator: bool, **train):
    raw = json.loads(json.dumps(base))
    raw.update(seed=SEED, framework=framework, hallucinator={"enabled": hallucinator})
    raw["train"].update(train)
    return config_from_dict(raw)


def _data(work: Path, name: str, data: dict) -> Path:
    path = work / f"{name}.bin"
    generate_synthetic(path, data["classes"], data["per_class"], SEED)
    return path


def _run(cfg, records, out: Path) -> tuple[str, str]:
    pretrain(cfg, records, out)
    return (_sha((out / "metrics.csv").read_bytes()),
            _sha((out / "checkpoint.hcl").read_bytes()))


def _eval_unit(work: Path, data_path: Path, out: dict) -> None:
    """The benchmark's `eval` pass: `hcl probe` and `hcl metrics` over the
    eval set, encoded by a desk moco checkpoint, plus the features and view
    pairs behind their reports."""
    ckpt = work / "eval-ckpt" / "checkpoint.hcl"
    _run(_config(DESK, "moco", True, epochs=1), load_cifar_batch(data_path), ckpt.parent)
    raw = {"seed": SEED, "data": EVAL_DATA}
    eval_path = _data(work, "eval", EVAL_DATA)
    fw, ck_cfg = load_pretrained(ckpt)
    records = load_cifar_batch(eval_path)
    feats, _ = extract_features(fw, records, ck_cfg.augment.out_size)
    out["eval/features"] = _sha(feats.tobytes())
    config = work / "eval.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    for command, report in (("probe", "probe_report.csv"), ("metrics", "metrics_report.csv")):
        argv = [command, "--config", str(config), "--data", str(eval_path),
                "--checkpoint", str(ckpt), "--out", str(work / f"eval-{command}")]
        with contextlib.redirect_stdout(io.StringIO()):  # stdout stays one JSON object
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hcl {' '.join(argv)} exited {code}")
        out[f"eval/{report}"] = _sha((work / f"eval-{command}" / report).read_bytes())
    fa, fb = cli._encode_view_pairs(fw, records, config_from_dict(raw))
    out["eval/encode_view_pairs"] = _sha(fa.tobytes() + fb.tobytes())


def _adversarial_views() -> bytes:
    """Both views of 8 images, each a 4 x 4 grid of 8 px blocks that
    shows every `ADVERSARIAL_COLORS` entry once in its own order."""
    colors = np.array(ADVERSARIAL_COLORS, dtype=np.uint8)
    orders = [np.random.default_rng(i).permutation(len(colors)) for i in range(8)]
    images = np.stack([colors[o].reshape(4, 4, 3).repeat(8, axis=0).repeat(8, axis=1)
                       for o in orders])
    views = b""
    for size in (32, 16):
        rngs = [substream(SEED, "adversarial", size, i) for i in range(len(images))]
        v1, v2 = augment_batch(images, AugmentConfig(out_size=size), rngs)
        views += v1.tobytes() + v2.tobytes()
    return views


def _suite_lines(errors: dict[str, float]) -> bytes:
    """Each gradcheck entry's name and error as `float.hex`, one line each."""
    return "".join(f"{name} {err.hex()}\n" for name, err in errors.items()).encode()


def _op_suite() -> bytes:
    return _suite_lines(op_gradcheck_suite(seed=0))


def _init_state() -> bytes:
    """Each recipe's label and array names, sorted, and each array's bytes,
    as `build_framework` leaves them at the desk config."""
    parts = []
    for fw, hall in RECIPES:
        cfg = _config(DESK, fw, hall)
        arrays = build_framework(fw, cfg.encoder, cfg.augment.out_size,
                                 cfg.framework_config(), cfg.seed).state_arrays()
        label = f"{fw}.hall-{'on' if hall else 'off'}"
        parts += [f"{label}/{name}\n".encode() + arrays[name].tobytes() for name in sorted(arrays)]
    return b"".join(parts)


def _stage_chunks() -> bytes:
    """`conv_relu_pool` forward (without, then with a tape) and backward
    at batch 20 on the (3 -> 16, 32 px) and (16 -> 32, 16 px) stages."""
    rng = np.random.default_rng(SEED)
    parts = []
    for c, side, f in ((3, 32, 16), (16, 16, 32)):
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
                   for s in ((20, c, side, side), (f, c, 3, 3), (f,)))
        g = Tensor(rng.normal(size=(20, f, side // 2, side // 2)))
        with no_tape():
            parts.append(conv_relu_pool(x, w, b, padding=1).data.tobytes())
        out = conv_relu_pool(x, w, b, padding=1)
        parts.append(out.data.tobytes())
        sum_(multiply(out, g)).backward()
        parts += [x.grad.tobytes(), w.grad.tobytes(), b.grad.tobytes()]
    return b"".join(parts)


def _framework_steps() -> bytes:
    """One step of each recipe, hallucinator off and on, and of SimSiam
    with `hallucinate_after_predictor`, on `framework_gradcheck_suite`'s
    encoder and batch with λ from `draw_lambdas`: the `loss_closure` value,
    the loss, the diagnostics, each trainable parameter's gradient and
    the `state_arrays()` after `after_update`, names sorted."""
    enc_cfg = EncoderConfig(channels=(4,), kernel=3, hidden_dim=16, feature_dim=8)
    rng = np.random.default_rng(SEED)
    x1, x2 = rng.random((4, 3, 8, 8)), rng.random((4, 3, 8, 8))
    cases = [(name, hall, False) for name in FRAMEWORK_NAMES for hall in (False, True)]
    parts = []
    for name, hall, after in cases + [("simsiam", True, True)]:
        cfg = FrameworkConfig(hallucinator=hall, hallucinator_layers=2, queue_size=16,
                              extrapolation=ExtrapolationConfig(0.0, 1.0),
                              hallucinate_after_predictor=after)
        fw = build_framework(name, enc_cfg, 8, cfg, seed=2)
        fw.prime(x2)
        lambdas = fw.draw_lambdas(np.random.default_rng(SEED), 4)
        closure = fw.loss_closure(x1, x2, lambdas)().data
        loss, diag, aux = fw.forward_loss(x1, x2, lambdas)
        loss.backward()
        params = sorted(fw.trainable_parameters(), key=lambda p: p.name)
        fw.after_update(aux)
        state = fw.state_arrays()
        parts.append(f"{name} {hall} {after}\n".encode() + closure.tobytes() + loss.data.tobytes())
        parts += [f"{k} {float(v).hex()}\n".encode() for k, v in sorted(diag.items())]
        parts += [f"{p.name}\n".encode() + p.grad.tobytes() for p in params]
        parts += [f"{k}\n".encode() + state[k].tobytes() for k in sorted(state)]
    return b"".join(parts)


def compute(work: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    paths = {name: _data(work, name, base["data"])
             for name, base in (("desk", DESK), ("quickstart", QUICKSTART))}
    for name, path in paths.items():
        out[f"data/{name}.bin"] = _sha(path.read_bytes())
    for name, base in (("desk", DESK), ("quickstart", QUICKSTART)):
        records = load_cifar_batch(paths[name])
        for fw, hall in RECIPES:
            label = f"{name}/{fw}.hall-{'on' if hall else 'off'}"
            cfg = _config(base, fw, hall)
            out[f"{label}/metrics.csv"], out[f"{label}/checkpoint.hcl"] = _run(
                cfg, records, work / label)
    fw, ck_cfg = load_pretrained(work / "quickstart" / "moco.hall-on" / "checkpoint.hcl")
    records = load_cifar_batch(paths["quickstart"])
    feats, labels = extract_features(fw, records, ck_cfg.augment.out_size)
    out["quickstart/moco.hall-on/extract_features"] = _sha(feats.tobytes() + labels.tobytes())
    fa, fb = cli._encode_view_pairs(fw, records, ck_cfg)
    out["quickstart/moco.hall-on/encode_view_pairs"] = _sha(fa.tobytes() + fb.tobytes())
    _eval_unit(work, paths["desk"], out)
    out["gradcheck/op_suite"] = _sha(_op_suite())
    out["gradcheck/framework_suite"] = _sha(_suite_lines(framework_gradcheck_suite()))
    out["augment/adversarial"] = _sha(_adversarial_views())
    out["init/state"] = _sha(_init_state())
    out["tensor/stage_chunks"] = _sha(_stage_chunks())
    out["frameworks/steps"] = _sha(_framework_steps())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the embedded reference; exit 1 on a difference")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        got = compute(Path(tmp))
    print(json.dumps(got, indent=1))
    if not args.check:
        return 0
    kernel = _blas_kernel()
    if kernel != REFERENCE_KERNEL:
        print(f"BLAS kernel {kernel}; the reference was taken on {REFERENCE_KERNEL}",
              file=sys.stderr)
    bad = [key for key in sorted(REFERENCE.keys() | got.keys())
           if REFERENCE.get(key) != got.get(key)]
    for key in bad:
        print(f"differs: {key}: reference {REFERENCE.get(key)}, got {got.get(key)}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
