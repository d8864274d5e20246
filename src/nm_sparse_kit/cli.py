"""Command-line entry point: nm-sparse-kit <mask|diversity|permute|train|ablate>.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 divergence abort.
The NM_SPARSE_KIT_SEED environment variable supplies a default seed; explicit
flags and config files take precedence.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .experiment import (
    ABLATION_LABELS,
    ExperimentConfig,
    config_from_values,
    csv_row,
    parse_config_value,
    parse_config_values,
    run_ablation,
    run_experiment,
    serialize_config,
)
from .masks import (
    SEEDED_CRITERIA,
    BinarizationCriterion,
    MaskFamily,
    TransposableMethod,
    backward_mask,
    forward_mask,
    mask_diversity,
    save_mask,
    transposable_mask,
)
from .permute import brute_force_best_permutation, search_permutation
from .tensorops import NmPattern, load_matrix
from .training import DivergenceError, Strategy

SEED_ENV_VAR = "NM_SPARSE_KIT_SEED"
DIVERSITY_TABLE_PATTERNS = ("1:4", "2:4", "1:8", "2:8", "4:8", "1:16")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # runtime errors, so route usage problems through our own exception
    def error(self, message):
        raise UsageError(message)


def _resolve_seed(flag: int | None, fallback: int | None = None) -> int:
    """The first seed given of: the flag, the fallback (a config's seed), the environment, 0."""
    if flag is not None:
        return flag
    if fallback is not None:
        return fallback
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nm-sparse-kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_mask = sub.add_parser("mask", help="generate a mask for a matrix file")
    p_mask.add_argument("--pattern", required=True, help="N:M, e.g. 2:4")
    p_mask.add_argument("--family", required=True,
                        choices=[s.value for s in Strategy if s is not Strategy.DENSE])
    p_mask.add_argument("--method", choices=[t.value for t in TransposableMethod], default="approx",
                        help="transposable tile solver: exact (min-cost flow, any M) "
                             "or approx (greedy, at least half the optimum)")
    p_mask.add_argument("--criterion", default="weight-magnitude",
                        choices=[c.value for c in BinarizationCriterion],
                        help="bimask backward selection statistic")
    p_mask.add_argument("--gradient", help="matrix file for the gradient-magnitude criterion")
    p_mask.add_argument("--seed", type=int)
    p_mask.add_argument("input", help="input matrix file")
    p_mask.add_argument("output", help="output mask file")

    p_div = sub.add_parser("diversity", help="count admissible masks for a pattern")
    p_div.add_argument("--pattern", help="N:M, e.g. 2:4")
    p_div.add_argument("--family", choices=[f.value for f in MaskFamily], default="vanilla")
    p_div.add_argument("--tile-rows", type=int, default=None)
    p_div.add_argument("--table", action="store_true",
                       help="print the vanilla/transposable comparison across standard patterns")

    p_perm = sub.add_parser("permute", help="search a row permutation for a masked matrix")
    p_perm.add_argument("--pattern", required=True)
    p_perm.add_argument("--k", type=int, default=100, help="random candidates per search")
    p_perm.add_argument("--seed", type=int)
    p_perm.add_argument("--oracle", action="store_true",
                        help="exhaustive factorial search (rows <= 8)")
    p_perm.add_argument("input", help="masked matrix file")

    for name, help_text in (("train", "train a sparse model"), ("ablate", "run the component ablation triple")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--strategy", choices=[s.value for s in Strategy])
        p.add_argument("--pattern")
        p.add_argument("--dataset", help="'synthetic' or 'idx:<dir>'")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
    return parser


def _experiment_config(args) -> ExperimentConfig:
    if not args.config and not (args.strategy and args.pattern):
        raise UsageError("without --config, both --strategy and --pattern are required")
    values = {}
    if args.config:
        with open(args.config) as fh:
            values = parse_config_values(fh.read())
    flags = {"strategy": args.strategy, "pattern": args.pattern, "dataset": args.dataset, "out_dir": args.out}
    values.update((key, parse_config_value(key, text)) for key, text in flags.items() if text)
    # the environment is read only when neither the flag nor the file gives a seed
    values["seed"] = _resolve_seed(args.seed, values.get("seed"))
    cfg = config_from_values(values)
    try:
        serialize_config(cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return cfg


def _cmd_mask(args) -> int:
    pattern = NmPattern.parse(args.pattern)
    w = load_matrix(args.input)
    family = Strategy(args.family)
    if family is Strategy.VANILLA:
        mask = forward_mask(w, pattern)
    elif family is Strategy.TRANSPOSABLE:
        mask = transposable_mask(w, pattern, TransposableMethod(args.method))
    else:
        criterion = BinarizationCriterion(args.criterion)
        gradient = load_matrix(args.gradient) if args.gradient else None
        # the seed, and so the environment, is read only by a criterion that samples
        seed = _resolve_seed(args.seed) if criterion in SEEDED_CRITERIA else None
        fwd = forward_mask(w, pattern)
        mask = backward_mask(w, fwd, None, pattern, criterion, gradient=gradient, seed=seed)
    save_mask(args.output, mask)
    print(f"wrote {mask.direction.value} {pattern} mask to {args.output}")
    return 0


def _cmd_diversity(args) -> int:
    if args.table:
        family_rows = []
        for text in DIVERSITY_TABLE_PATTERNS:
            pattern = NmPattern.parse(text)
            vanilla = mask_diversity(pattern, MaskFamily.VANILLA, tile_rows=pattern.m)
            transposable = mask_diversity(pattern, MaskFamily.TRANSPOSABLE)
            family_rows.append((text, vanilla, transposable))
        width = max(len(str(v)) for _, v, _ in family_rows)
        print(f"{'pattern':>8}  {'vanilla':>{width}}  {'transposable':>{width}}  ratio")
        for text, vanilla, transposable in family_rows:
            print(f"{text:>8}  {vanilla:>{width}}  {transposable:>{width}}  {vanilla / transposable:.3g}")
        return 0
    if not args.pattern:
        raise UsageError("diversity needs --pattern (or --table)")
    pattern = NmPattern.parse(args.pattern)
    family = MaskFamily(args.family)
    tile_rows = args.tile_rows
    if family is MaskFamily.VANILLA and tile_rows is None:
        tile_rows = 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if family is MaskFamily.VANILLA and limit:
        # the decimal length of C(M, N) ** tile_rows, known before computing it
        digits = math.floor(tile_rows * math.log10(math.comb(pattern.m, pattern.n))) + 1
        if digits > limit:
            raise ValueError(
                f"the vanilla count over {tile_rows} tile rows has {digits} digits, "
                f"above Python's integer string limit of {limit} digits"
            )
    print(mask_diversity(pattern, family, tile_rows=tile_rows))
    return 0


def _cmd_permute(args) -> int:
    pattern = NmPattern.parse(args.pattern)
    w = load_matrix(args.input)
    if args.oracle:
        report = brute_force_best_permutation(w, pattern)
    else:
        report = search_permutation(w, pattern, args.k, seed=_resolve_seed(args.seed))
    # columns: eligible,total,candidates,elapsed_seconds,permutation
    print(csv_row(report))
    return 0


def _cmd_train(args) -> int:
    summary = run_experiment(_experiment_config(args))
    print(summary.pretty())
    return 0


def _cmd_ablate(args) -> int:
    results = run_ablation(_experiment_config(args))
    width = max(len(label) for label in ABLATION_LABELS)
    for label, summary in results:
        print(summary.pretty(label=f"{label:<{width}}"))
    return 0


_COMMANDS = {
    "mask": _cmd_mask,
    "diversity": _cmd_diversity,
    "permute": _cmd_permute,
    "train": _cmd_train,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
