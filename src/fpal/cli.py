"""Command-line interface.

Subcommands::

    fpal monoid FILE            transition monoid of an automaton
    fpal divisors FILE          simple-group divisors with witnesses
    fpal gamma FILE             the automaton's identity and its system view
    fpal entails ...            decide consequence between identities
    fpal check ...              model-check equations over a finite poset
    fpal family KIND [FILES]    completeness of a family of automata

Exit status: 0 when the requested property holds (or the command is purely
informational), 1 when it fails, 2 on any error.  Errors print a single
``error[<code>]: message`` line on stderr.

The environment variable ``FPAL_CONFIG`` may point at a JSON file with any
of the keys ``monoid_cap``, ``subgroup_cap``, ``exhaustive_threshold``,
``sample_count``, ``seed`` and ``format`` ("json" or "text").
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

from . import algebra, automaton, cpo_model, entailment, identities
from .errors import (
    CapExceededError,
    NotInitiallyConnectedError,
    ThresholdExceededError,
)
from .term import ParseError, TermError, parse_equation, render


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    monoid_cap: int = automaton.DEFAULT_MONOID_CAP
    subgroup_cap: int = algebra.DEFAULT_SUBGROUP_CAP
    exhaustive_threshold: int = cpo_model.DEFAULT_EXHAUSTIVE_THRESHOLD
    sample_count: int = cpo_model.DEFAULT_SAMPLES
    seed: int = cpo_model.DEFAULT_SEED
    format: str = "json"


def load_config(path: str | None) -> Config:
    if not path:
        return Config()
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ConfigError("configuration file must hold a JSON object")
    known = {f.name: f.type for f in fields(Config)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    cfg = Config(**data)
    for f in fields(Config):
        value = getattr(cfg, f.name)
        if f.name == "format":
            if value not in ("json", "text"):
                raise ConfigError(f"format must be 'json' or 'text', not {value!r}")
        elif not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"{f.name} must be a nonnegative integer")
    if cfg.sample_count < 1:
        raise ConfigError("sample_count must be at least 1")
    return cfg


def _load_automaton(path: str):
    with open(path, encoding="utf-8") as f:
        return automaton.from_dict(json.load(f))


def _plain(aut):
    if isinstance(aut, automaton.InitializedAutomaton):
        return aut.automaton
    return aut


def _render_text(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.extend(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(obj)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


def emit(obj, config: Config) -> None:
    if config.format == "text":
        sys.stdout.write("\n".join(_render_text(obj)) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_monoid(args, config: Config) -> int:
    q = _plain(_load_automaton(args.automaton))
    m = algebra.transition_monoid(q, cap=config.monoid_cap)
    emit(
        {
            "states": m.n_states,
            "letters": list(m.letters),
            "order": m.order,
            "identity": m.identity_index,
            "elements": [
                {"map": list(t.map), "witness": list(w)}
                for t, w in zip(m.elements, m.witnesses)
            ],
        },
        config,
    )
    return 0


def cmd_divisors(args, config: Config) -> int:
    q = _plain(_load_automaton(args.automaton))
    m = algebra.transition_monoid(q, cap=config.monoid_cap)
    emit(algebra.algebra_report(m, cap=config.subgroup_cap), config)
    return 0


def cmd_gamma(args, config: Config) -> int:
    loaded = _load_automaton(args.automaton)
    q = _plain(loaded)
    out = {}
    initial = args.initial
    if initial is None and isinstance(loaded, automaton.InitializedAutomaton):
        initial = loaded.initial
    if initial is not None:
        eq = identities.gamma_init(q, initial, p=args.params)
        out["initial"] = initial
    else:
        eq = identities.gamma(q, p=args.params)
    view = identities.system_view(q, p=args.params)
    out = {
        "name": eq.name,
        **out,
        "symbols": [{"name": s.name, "arity": s.in_arity} for s in eq.symbols],
        "lhs": render(eq.lhs),
        "rhs": render(eq.rhs),
        "system": view["system"],
        "diagonal": view["diagonal"],
    }
    emit(out, config)
    return 0


def cmd_entails(args, config: Config) -> int:
    hyps = [_load_automaton(p) for p in args.hyp]
    concl = _load_automaton(args.concl)
    report = entailment.entails(
        hyps,
        concl,
        reduce_reachable=args.reduce_reachable,
        monoid_cap=config.monoid_cap,
        subgroup_cap=config.subgroup_cap,
    )
    emit(report.to_json(), config)
    return 0 if report.holds else 1


def _parse_poset(text: str) -> cpo_model.PosetModel:
    kind, sep, arg = text.partition(":")
    if kind == "chain" and sep:
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"bad chain size {arg!r}") from None
        return cpo_model.chain(k)
    raise ValueError(f"unknown poset {text!r}: expected chain:<k>")


def cmd_check(args, config: Config) -> int:
    sources = [
        bool(args.equations),
        args.builtin is not None,
        args.gamma is not None,
    ]
    if sum(sources) != 1:
        raise ValueError(
            "pass exactly one of: an equation file, --builtin, or --gamma"
        )
    if args.equations:
        with open(args.equations, encoding="utf-8") as f:
            eqs = [parse_equation(f.read())]
    elif args.builtin is not None:
        eqs = identities.conway_library()
    else:
        q = _plain(_load_automaton(args.gamma))
        eqs = [identities.gamma(q, p=args.params)]
    poset = _parse_poset(args.poset)
    if args.exhaustive:
        mode = "exhaustive"
    elif args.samples is not None:
        mode = "sampled"
    else:
        mode = "auto"
    samples = args.samples if args.samples is not None else config.sample_count
    seed = args.seed if args.seed is not None else config.seed
    results = [
        cpo_model.check_equation(
            eq,
            poset,
            mode=mode,
            seed=seed,
            samples=samples,
            threshold=config.exhaustive_threshold,
        )
        for eq in eqs
    ]
    all_hold = all(r.holds for r in results)
    emit(
        {
            "poset": poset.name,
            "all_hold": all_hold,
            "results": [r.to_json() for r in results],
        },
        config,
    )
    return 0 if all_hold else 1


def cmd_family(args, config: Config) -> int:
    if args.kind == "list":
        if not args.files:
            raise ValueError("family list needs at least one automaton file")
        family = [_load_automaton(p) for p in args.files]
    else:
        if args.files:
            raise ValueError(f"family {args.kind} takes no automaton files")
        family = args.kind
    report = entailment.family_completeness(
        family,
        reduce_reachable=args.reduce_reachable,
        monoid_cap=config.monoid_cap,
        subgroup_cap=config.subgroup_cap,
    )
    emit(report.to_json(), config)
    return 0 if report.complete else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fpal`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fpal",
        description="Fixed-point identities of finite automata: monoids, "
        "divisors, entailment and model checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monoid", help="transition monoid of an automaton")
    p.add_argument("automaton", help="automaton JSON file")
    p.set_defaults(run=cmd_monoid)

    p = sub.add_parser("divisors", help="simple-group divisors of an automaton")
    p.add_argument("automaton", help="automaton JSON file")
    p.set_defaults(run=cmd_divisors)

    p = sub.add_parser("gamma", help="the identity attached to an automaton")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("-p", "--params", type=int, default=1,
                   help="parameter arity (default 1)")
    p.add_argument("--initial", type=int, metavar="STATE",
                   help="emit the single-component identity at this state "
                   "(defaults to the file's marked initial state, if any)")
    p.set_defaults(run=cmd_gamma)

    p = sub.add_parser("entails", help="decide consequence between identities")
    p.add_argument("--hyp", action="append", required=True, metavar="FILE",
                   help="hypothesis automaton (repeatable)")
    p.add_argument("--concl", required=True, metavar="FILE",
                   help="conclusion automaton")
    p.add_argument("--reduce-reachable", action="store_true",
                   help="restrict initialized hypotheses to reachable states")
    p.set_defaults(run=cmd_entails)

    p = sub.add_parser("check", help="model-check equations over a poset")
    p.add_argument("equations", nargs="?", help="equation file")
    p.add_argument("--builtin", choices=["conway"],
                   help="check the built-in identity library")
    p.add_argument("--gamma", metavar="FILE",
                   help="check the identity of this automaton")
    p.add_argument("-p", "--params", type=int, default=1,
                   help="parameter arity for --gamma (default 1)")
    p.add_argument("--poset", default="chain:2",
                   help="model to check over (default chain:2)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="enumerate every interpretation")
    group.add_argument("--samples", type=int,
                       help="number of random interpretations")
    p.add_argument("--seed", type=int, help="seed for sampling")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("family", help="completeness of a family of automata")
    p.add_argument("kind", choices=["cyclic", "symmetric", "alternating", "list"])
    p.add_argument("files", nargs="*", help="automaton files (kind 'list' only)")
    p.add_argument("--reduce-reachable", action="store_true",
                   help="restrict initialized members to reachable states")
    p.set_defaults(run=cmd_family)

    return parser


_ERROR_CODES = (
    (ParseError, "parse"),
    (TermError, "term"),
    (ConfigError, "config"),
    (json.JSONDecodeError, "json"),
    (NotInitiallyConnectedError, "not-initially-connected"),
    (CapExceededError, "cap-exceeded"),
    (ThresholdExceededError, "threshold-exceeded"),
    (FileNotFoundError, "io"),
    (ValueError, "bad-input"),
    (OSError, "io"),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(os.environ.get("FPAL_CONFIG"))
        return args.run(args, config)
    except tuple(exc for exc, _ in _ERROR_CODES) as err:
        for exc_type, code in _ERROR_CODES:
            if isinstance(err, exc_type):
                print(f"error[{code}]: {err}", file=sys.stderr)
                return 2
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
