"""Command-line interface.

Subcommands: ``generate`` (synthetic corpora), ``extract`` (features),
``train`` / ``classify`` (models), ``loocv`` (evaluation), ``aid``
(positioning check).  Exit codes: 0 success, 2 validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dtw import METRICS, DtwConfig, classify_1nn
from .errors import FerasecError, NumericError, read_utf8
from .features import FerasecConfig, extract_features, load_features, store_features
from .frames import load_frameset, load_manifest, positioning_check
from .harness import METHODS, format_report, item_features, loocv, write_report
from .hmm import HmmTrainingConfig, classify as hmm_classify, load_model, store_model, train as hmm_train
from .synth import (
    DIFFICULTIES,
    generate_corpus,
    parse_scripts_text,
    vowel8_preset,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_FERASEC_DEFAULTS = FerasecConfig()
_HMM_DEFAULTS = HmmTrainingConfig()


def _add_ferasec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=_FERASEC_DEFAULTS.alpha,
                        help="clutter filter coefficient (default %(default)s)")
    parser.add_argument("--window", type=int, default=_FERASEC_DEFAULTS.window,
                        help="RMS envelope window length (default %(default)s)")
    parser.add_argument("--downsample", type=int, default=_FERASEC_DEFAULTS.downsample,
                        help="envelope downsampling factor (default %(default)s)")
    parser.add_argument("--delta-window", type=int, default=_FERASEC_DEFAULTS.delta_window,
                        help="delta feature window length (default %(default)s)")


def _ferasec_cfg(args: argparse.Namespace) -> FerasecConfig:
    return FerasecConfig(args.window, args.downsample, args.delta_window, args.alpha)


def _labeled_inputs(manifest_path: Path, method: str, cfg: FerasecConfig) -> list:
    """``(classifier input, label)`` per manifest item, built with the recipe ``cfg``."""
    manifest = load_manifest(manifest_path)
    inputs = item_features(manifest, method, cfg)
    return list(zip(inputs, (e.label for e in manifest.entries)))


def _add_hmm_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rounds", type=int, default=_HMM_DEFAULTS.realignment_rounds,
                        help="realignment rounds (default %(default)s)")
    parser.add_argument("--epochs", type=int, default=_HMM_DEFAULTS.epochs_per_round,
                        help="epochs per round (default %(default)s)")
    parser.add_argument("--batch-size", type=int, default=_HMM_DEFAULTS.batch_size,
                        help="mini-batch size (default %(default)s)")
    parser.add_argument("--learning-rate", type=float, default=_HMM_DEFAULTS.learning_rate,
                        help="SGD step size (default %(default)s)")


def _hmm_cfg(args: argparse.Namespace, seed: int) -> HmmTrainingConfig:
    return HmmTrainingConfig(
        realignment_rounds=args.rounds,
        epochs_per_round=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=seed,
    )


def _add_metric_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metric", default=DtwConfig().local_metric, choices=METRICS,
                        help="dtw local metric (default %(default)s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferasec",
        description="IR-UWB radar frame-set feature extraction and sequence classification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a labeled synthetic corpus")
    gen.add_argument("--preset", default="vowel8", choices=["vowel8"],
                     help="built-in gesture preset (default %(default)s)")
    gen.add_argument("--scripts", type=Path, default=None,
                     help="gesture script file overriding the preset")
    gen.add_argument("--reps", type=int, default=20, help="repetitions per class (default %(default)s)")
    gen.add_argument("--difficulty", default="easy", choices=list(DIFFICULTIES),
                     help="class separation / noise level (default %(default)s)")
    gen.add_argument("--noise", type=float, default=None,
                     help="override the preset noise sigma")
    gen.add_argument("--duration-jitter", type=float, default=None,
                     help="override the duration jitter fraction")
    gen.add_argument("--onset-jitter", type=float, default=None,
                     help="override the onset jitter in seconds")
    gen.add_argument("--position-jitter", type=float, default=None,
                     help="override the per-item position jitter in meters")
    gen.add_argument("--seed", type=int, default=0, help="master corpus seed (default %(default)s)")
    gen.add_argument("--out", type=Path, required=True, help="output corpus directory")

    ext = sub.add_parser("extract", help="extract the six-row feature matrix from a frame set")
    ext.add_argument("--input", type=Path, required=True, help="raw frame-set file")
    ext.add_argument("--output", type=Path, required=True, help="feature matrix output file")
    _add_ferasec_options(ext)

    tr = sub.add_parser("train", help="train the MLP-HMM classifier on a corpus")
    tr.add_argument("--method", default="hmm", choices=["hmm"], help="classifier to train")
    tr.add_argument("--corpus", type=Path, required=True, help="corpus manifest")
    tr.add_argument("--seed", type=int, default=_HMM_DEFAULTS.seed,
                    help="training seed (default %(default)s)")
    tr.add_argument("--out", type=Path, required=True, help="model output file")
    _add_ferasec_options(tr)
    _add_hmm_options(tr)

    cl = sub.add_parser("classify", help="classify one feature matrix")
    cl.add_argument("--method", required=True, choices=["dtw", "hmm"])
    cl.add_argument("--test", type=Path, required=True, help="feature matrix to classify")
    cl.add_argument("--refs", type=Path, help="reference corpus manifest (dtw)")
    cl.add_argument("--model", type=Path, help="trained model file (hmm)")
    _add_metric_option(cl)
    _add_ferasec_options(cl)

    lo = sub.add_parser("loocv", help="leave-one-out cross-validation over a corpus")
    lo.add_argument("--method", required=True, choices=METHODS)
    lo.add_argument("--corpus", type=Path, required=True, help="corpus manifest")
    lo.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    lo.add_argument("--report", type=Path, default=None, help="machine-readable report path")
    lo.add_argument("--fast-loocv", action="store_true",
                    help="train once per held-out repetition group instead of per item")
    lo.add_argument("--fast-groups", type=int, default=None,
                    help="number of repetition groups for --fast-loocv")
    _add_metric_option(lo)
    _add_ferasec_options(lo)
    _add_hmm_options(lo)

    aid = sub.add_parser("aid", help="check a live frame against the preset-position reference")
    aid.add_argument("--reference", type=Path, required=True, help="reference frame-set file")
    aid.add_argument("--live", type=Path, required=True, help="live frame-set file")
    aid.add_argument("--threshold", type=float, default=0.95,
                     help="correlation threshold in (0, 1) (default %(default)s)")
    aid.add_argument("--frame", type=int, default=1,
                     help="1-based slow-time index of the frame to compare (default %(default)s)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    scripts, cfg = vowel8_preset(args.difficulty)
    if args.scripts is not None:
        scripts = parse_scripts_text(read_utf8(args.scripts))
    overrides = {}
    if args.noise is not None:
        overrides["noise_sigma"] = args.noise
    if args.duration_jitter is not None:
        overrides["duration_jitter_fraction"] = args.duration_jitter
    if args.onset_jitter is not None:
        overrides["onset_jitter_s"] = args.onset_jitter
    if args.position_jitter is not None:
        overrides["position_jitter_m"] = args.position_jitter
    if overrides:
        cfg = replace(cfg, **overrides)
    manifest = generate_corpus(scripts, args.reps, cfg, args.seed, args.out)
    print(f"wrote {len(manifest.entries)} frame sets ({manifest.class_count} classes) to {args.out}")
    print(f"manifest: {args.out / 'manifest.tsv'}")
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    fs = load_frameset(args.input)
    matrix = extract_features(fs, _ferasec_cfg(args))
    store_features(matrix, args.output)
    print(f"wrote 6x{matrix.length} feature matrix to {args.output}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _hmm_cfg(args, args.seed)  # a bad training flag fails before any feature is built
    corpus = _labeled_inputs(args.corpus, "hmm", _ferasec_cfg(args))
    model = hmm_train(corpus, cfg)
    store_model(model, args.out)
    print(f"trained {model.class_count}-class model on {len(corpus)} items; wrote {args.out}")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _ferasec_cfg(args)  # a bad recipe flag is an error for both methods
    test = load_features(args.test)
    if args.method == "dtw":
        if args.refs is None:
            raise FerasecError("--refs is required for --method dtw")
        references = _labeled_inputs(args.refs, "dtw", cfg)
        label, distance = classify_1nn(test, references, DtwConfig(args.metric))
        print(f"{label}\t{distance:.6f}")
    else:
        if args.model is None:
            raise FerasecError("--model is required for --method hmm")
        model = load_model(args.model)
        label, scores = hmm_classify(model, test)
        print(f"{label}\t{float(np.max(scores)):.6f}")
    return EXIT_OK


def _cmd_loocv(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.corpus)
    report = loocv(
        manifest,
        args.method,
        seed=args.seed,
        ferasec_cfg=_ferasec_cfg(args),
        dtw_cfg=DtwConfig(args.metric),
        hmm_cfg=_hmm_cfg(args, args.seed),
        fast=args.fast_loocv,
        fast_groups=args.fast_groups,
    )
    print(format_report(report), end="")
    if args.report is not None:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    print(f"elapsed: {report.timing_s:.1f} s", file=sys.stderr)
    return EXIT_OK


def _cmd_aid(args: argparse.Namespace) -> int:
    reference = load_frameset(args.reference).frame(args.frame)
    live = load_frameset(args.live).frame(args.frame)
    rho, passed = positioning_check(reference, live, args.threshold)
    print(f"rho={rho:.6f}\t{'PASS' if passed else 'FAIL'}\tthreshold={args.threshold}")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "extract": _cmd_extract,
    "train": _cmd_train,
    "classify": _cmd_classify,
    "loocv": _cmd_loocv,
    "aid": _cmd_aid,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FerasecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
