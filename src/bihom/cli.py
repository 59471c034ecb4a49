"""Command surface: verify any structure, run every construction, search.

Exit codes: 0 pass/success, 1 violations found (a Report is printed),
2 malformed input or failed precondition. Every verb accepts --json for
machine-readable output; scalar values always travel as exact strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import axioms, models
from .errors import BihomError
from .exactcore import Endo, Q, scalar_parse
from .models import ModelFile
from .structures import (
    LeftComodule, LeftModule, regular_left_comodule, regular_left_module,
)

CHECKERS = {kind: spec.check for kind, spec in models.KINDS.items()}


def _print_report(report: axioms.Report, as_json: bool, label: str = ""):
    if as_json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif report.passed:
        print(f"PASS{': ' + label if label else ''}")
    else:
        print(f"FAIL{': ' + label if label else ''} "
              f"({len(report.violations)} violation(s))")
        for v in report.violations:
            print(f"  {v.equation_id} at {list(v.indices)}: {v.lhs}  !=  {v.rhs}")


def _emit(obj, out_path: str | None, name: str):
    if out_path:
        models.save(obj, out_path, name=name)
    else:
        sys.stdout.write(models.dumps(obj, name=name))


def _weight_of(model: ModelFile, override: str | None, fallback: ModelFile | None = None) -> Q:
    if override is not None:
        return scalar_parse(override)
    if model.weight is not None:
        return model.weight
    if fallback is not None and fallback.weight is not None:
        return fallback.weight
    return Q(0)


# ---------------------------------------------------------------------------
# verbs


def _cmd_verify(args) -> int:
    model = models.load(args.file)
    kind = args.kind if args.kind != "auto" else model.kind_auto()
    if args.full_axioms and kind != "dendriform":
        raise BihomError(f"--full-axioms applies to dendriform models only, not {kind}")
    options = {"full_axioms": args.full_axioms} if kind == "dendriform" else {}
    report = CHECKERS[kind](model.to_structure(kind), **options)
    _print_report(report, args.json, f"{model.name} as {kind}")
    return 0 if report.passed else 1


def _cmd_twist(args) -> int:
    from . import constructions
    model = models.load(args.file)
    b = model.to_structure("bialgebra")
    maps = models.load(args.maps)
    twisted = constructions.yau_twist(b, maps.map("alpha"), maps.map("beta"),
                                      maps.map("psi"), maps.map("omega"))
    _emit(twisted, args.output, f"{model.name}-twisted")
    return 0


def _cmd_delta_r(args) -> int:
    from . import constructions
    model = models.load(args.file)
    a = model.to_structure("algebra")
    rfile = models.load(args.r, "r")
    weight = _weight_of(rfile, args.weight, model)
    b = constructions.delta_r(a, model.map("psi"), model.map("omega"),
                              rfile.r, weight, anti=args.anti)
    _emit(b, args.output, f"{model.name}-delta-r")
    return 0


def _cmd_mu_sigma(args) -> int:
    from . import constructions
    model = models.load(args.file)
    c = model.to_structure("coalgebra")
    sfile = models.load(args.sigma, "sigma")
    weight = _weight_of(sfile, args.weight, model)
    b = constructions.mu_sigma(c, model.map("alpha"), model.map("beta"),
                               sfile.sigma, weight, anti=args.anti)
    _emit(b, args.output, f"{model.name}-mu-sigma")
    return 0


def _cmd_ybe(args) -> int:
    from . import ybe
    model = models.load(args.file)
    a = model.to_structure("algebra")
    rfile = models.load(args.r, "r")
    weight = _weight_of(rfile, args.weight, model)
    report = ybe.abhybe_residual(a, model.map("psi"), model.map("omega"),
                                 rfile.r, weight, anti=args.anti)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        status = "solution" if report.is_solution else "NOT a solution"
        print(f"{rfile.name} over {model.name}: {status}; residual = "
              f"{report.as_dict()['residual']}")
        for key, val in sorted(report.characterization.items()):
            print(f"  {key}: {val}")
    return 0 if report.is_solution else 1


def _cmd_co_ybe(args) -> int:
    from . import ybe
    model = models.load(args.file)
    c = model.to_structure("coalgebra")
    sfile = models.load(args.sigma, "sigma")
    weight = _weight_of(sfile, args.weight, model)
    report = ybe.coabhybe_residual(c, model.map("alpha"), model.map("beta"),
                                   sfile.sigma, weight, anti=args.anti)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        status = "solution" if report.is_solution else "NOT a solution"
        print(f"{sfile.name} over {model.name}: {status}")
        for key, val in sorted(report.characterization.items()):
            print(f"  {key}: {val}")
    return 0 if report.is_solution else 1


def _cmd_dualize(args) -> int:
    from . import constructions
    model = models.load(args.file)
    dual = constructions.dualize(model.to_structure("bialgebra"))
    _emit(dual, args.output, f"{model.name}-dual")
    return 0


def _cmd_tensor(args) -> int:
    from . import constructions
    x = models.load(args.a)
    y = models.load(args.b)
    kind, build = (("coaugmented", constructions.coaug_tensor_product) if args.co
                   else ("augmented", constructions.aug_tensor_product))
    _, product = build(x.to_structure(kind), y.to_structure(kind))
    _emit(product, args.output, f"{x.name}-tensor-{y.name}")
    return 0


def _cmd_prelie(args) -> int:
    from . import constructions
    model = models.load(args.file)
    b = model.to_structure("bialgebra")
    p = constructions.prelie_noninv(b) if args.noninv else constructions.prelie_from_bialgebra(b)
    _emit(p, args.output, f"{model.name}-prelie")
    return 0


def _cmd_prelie_coalgebra(args) -> int:
    from . import constructions
    model = models.load(args.file)
    p = constructions.prelie_coalgebra(model.to_structure("bialgebra"), noninv=args.noninv)
    _emit(p, args.output, f"{model.name}-prelie-coalgebra")
    return 0


def _cmd_rota_baxter(args) -> int:
    from . import constructions
    model = models.load(args.file)
    a = model.to_structure("algebra")
    rfile = models.load(args.r, "r")
    weight = _weight_of(rfile, args.weight, model)
    rb = constructions.rota_baxter_from_r(a, model.map("psi"), model.map("omega"),
                                          rfile.r, weight, sign=args.sign)
    _emit(rb, args.output, f"{model.name}-rota-baxter")
    return 0


def _cmd_dendriform(args) -> int:
    from . import constructions
    model = models.load(args.file)
    rb = model.to_structure("rota-baxter")
    d = constructions.dendriform_from_rb(rb, variant=args.variant)
    _emit(d, args.output, f"{model.name}-dendriform")
    return 0


def _pick_map(block: dict | None, key: str, default: Endo) -> Endo:
    if block is not None and block.get(key) is not None:
        return block[key]
    return default


def _cmd_hopf_module(args) -> int:
    from . import constructions
    if args.vdim < 0:
        raise BihomError(f"--vdim must be a non-negative integer, got {args.vdim}")
    model = models.load(args.file)
    b = model.to_structure("bialgebra")
    variant = args.source.replace("-", "_")
    if variant in ("plain", "unital", "counital"):
        vdim = args.vdim
        ident = Endo.identity(vdim)
        h = constructions.hopf_module_free(b, vdim, ident, ident, ident, ident,
                                           variant=variant)
    elif variant == "comodule_w0":
        extra = (model.record(LeftComodule) if model.comodule is not None
                 else regular_left_comodule(b.coalgebra))
        vdim = extra.dim
        alpha_v = _pick_map(model.module, "alpha", Endo.identity(vdim))
        beta_v = _pick_map(model.module, "beta", Endo.identity(vdim))
        h = constructions.hopf_module_free(b, vdim, alpha_v, beta_v,
                                           extra.psi_m, extra.omega_m,
                                           variant=variant, extra=extra)
    elif variant == "module_w0":
        extra = (model.record(LeftModule) if model.module is not None
                 else regular_left_module(b.algebra))
        vdim = extra.dim
        psi_v = _pick_map(model.comodule, "psi", Endo.identity(vdim))
        omega_v = _pick_map(model.comodule, "omega", Endo.identity(vdim))
        h = constructions.hopf_module_free(b, vdim, extra.alpha_m, extra.beta_m,
                                           psi_v, omega_v, variant=variant, extra=extra)
    elif variant in ("qt", "anti_qt"):
        if not args.r:
            raise BihomError("--r is required for the quasitriangular variants")
        rfile = models.load(args.r, "r")
        module = (model.record(LeftModule) if model.module is not None
                  else regular_left_module(b.algebra))
        regular = module.dim == b.dim
        psi_m = _pick_map(model.comodule, "psi",
                          b.coalgebra.psi if regular else Endo.identity(module.dim))
        omega_m = _pick_map(model.comodule, "omega",
                            b.coalgebra.omega if regular else Endo.identity(module.dim))
        h = constructions.hopf_module_from_qt(b, rfile.r, module, psi_m, omega_m,
                                              anti=(variant == "anti_qt"))
    elif variant == "coqt":
        if not args.sigma:
            raise BihomError("--sigma is required for the coquasitriangular variant")
        sfile = models.load(args.sigma, "sigma")
        comodule = (model.record(LeftComodule) if model.comodule is not None
                    else regular_left_comodule(b.coalgebra))
        regular = comodule.dim == b.dim
        alpha_m = _pick_map(model.module, "alpha",
                            b.algebra.alpha if regular else Endo.identity(comodule.dim))
        beta_m = _pick_map(model.module, "beta",
                           b.algebra.beta if regular else Endo.identity(comodule.dim))
        h = constructions.hopf_module_from_coqt(b, sfile.sigma, comodule, alpha_m, beta_m,
                                                anti=args.anti)
    else:
        raise BihomError(f"unknown hopf-module source {args.source!r}")
    report = axioms.check_hopf_module(h)
    if args.output:
        models.save(h, args.output, name=f"{model.name}-hopf-module")
    _print_report(report, args.json, f"hopf module over {model.name}")
    return 0 if report.passed else 1


def _cmd_search_r(args) -> int:
    from . import ybe
    model = models.load(args.file)
    a = model.to_structure("algebra")
    weight = _weight_of(model, args.weight)
    coeffs = [scalar_parse(tok) for tok in args.coeffs.split(",") if tok.strip()]
    solutions = ybe.grid_search_r(a, model.map("psi"), model.map("omega"),
                                  weight, coeffs,
                                  require_invariant=not args.any_r)
    if args.json:
        doc = {"count": len(solutions),
               "solutions": [models.entries_out(r) for r in solutions]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{len(solutions)} solution(s) over {model.name} at weight {weight}")
        for r in solutions:
            print(f"  {models.entries_out(r)}")
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog
    if args.selftest:
        failures = catalog.selftest()
        if args.json:
            print(json.dumps({"passed": not failures, "failures": failures},
                             indent=2, sort_keys=True))
        else:
            for line in failures:
                print(f"FAIL {line}")
            print("catalog selftest:", "PASS" if not failures else "FAIL")
        return 0 if not failures else 1
    if args.name:
        model = catalog.entry(args.name)
        sys.stdout.write(models.dumps(model, name=model.name))
        return 0
    if args.json:
        print(json.dumps({"entries": catalog.names()}, indent=2, sort_keys=True))
    else:
        for name in catalog.names():
            kind, expect = catalog.EXPECTATIONS[name]
            tag = "passes" if expect in ("pass", "ybe-solution") else \
                f"fails the compatibility law at {sorted(expect)}"
            print(f"{name:14s} {kind:11s} {tag}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihom",
        description="exact verifier and construction kit for twisted "
                    "infinitesimal bialgebras")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("verify", _cmd_verify, help="check every axiom of a structure")
    p.add_argument("file")
    p.add_argument("--kind", default="auto", choices=("auto", *models.KINDS))
    p.add_argument("--full-axioms", action="store_true",
                   help="also check the three split dendriform relations")

    p = add("twist", _cmd_twist, help="deform by four commuting morphisms")
    p.add_argument("file")
    p.add_argument("--maps", required=True)
    p.add_argument("-o", "--output")

    p = add("delta-r", _cmd_delta_r, help="coproduct induced by an element r")
    p.add_argument("file")
    p.add_argument("--r", required=True)
    p.add_argument("--anti", action="store_true")
    p.add_argument("--weight")
    p.add_argument("-o", "--output")

    p = add("mu-sigma", _cmd_mu_sigma, help="product induced by a bilinear form")
    p.add_argument("file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--anti", action="store_true")
    p.add_argument("--weight")
    p.add_argument("-o", "--output")

    p = add("ybe", _cmd_ybe, help="Yang-Baxter residual and characterizations")
    p.add_argument("file")
    p.add_argument("--r", required=True)
    p.add_argument("--anti", action="store_true")
    p.add_argument("--weight")

    p = add("co-ybe", _cmd_co_ybe, help="co-residual of a bilinear form")
    p.add_argument("file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--anti", action="store_true")
    p.add_argument("--weight")

    p = add("dualize", _cmd_dualize, help="the dual bialgebra")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = add("tensor", _cmd_tensor, help="weighted tensor product of augmented pieces")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--co", action="store_true", help="coaugmented variant")
    p.add_argument("-o", "--output")

    p = add("prelie", _cmd_prelie, help="pre-Lie product from a bialgebra")
    p.add_argument("file")
    p.add_argument("--noninv", action="store_true")
    p.add_argument("-o", "--output")

    p = add("prelie-coalgebra", _cmd_prelie_coalgebra, help="pre-Lie coproduct")
    p.add_argument("file")
    p.add_argument("--noninv", action="store_true")
    p.add_argument("-o", "--output")

    p = add("rota-baxter", _cmd_rota_baxter, help="operator induced by a solution r")
    p.add_argument("file")
    p.add_argument("--r", required=True)
    p.add_argument("--sign", default="+", choices=("+", "-"))
    p.add_argument("--weight")
    p.add_argument("-o", "--output")

    p = add("dendriform", _cmd_dendriform, help="split a Rota-Baxter product")
    p.add_argument("file")
    p.add_argument("--variant", default="prec", choices=("prec", "succ"))
    p.add_argument("-o", "--output")

    p = add("hopf-module", _cmd_hopf_module, help="build and check a Hopf module")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True,
                   choices=("plain", "unital", "counital", "comodule-w0",
                            "module-w0", "qt", "anti-qt", "coqt"))
    p.add_argument("--r")
    p.add_argument("--sigma")
    p.add_argument("--anti", action="store_true")
    p.add_argument("--vdim", type=int, default=1)
    p.add_argument("-o", "--output")

    p = add("search-r", _cmd_search_r, help="exhaustive grid search for solutions")
    p.add_argument("file")
    p.add_argument("--coeffs", required=True, help="comma-separated scalars")
    p.add_argument("--weight")
    p.add_argument("--any-r", action="store_true",
                   help="drop the invariance requirement")

    p = add("catalog", _cmd_catalog, help="list, print, or self-test built-ins")
    p.add_argument("name", nargs="?")
    p.add_argument("--selftest", action="store_true")

    return parser


_DASH_VALUE_OPTS = ("--coeffs", "--weight", "--sign")


def _glue_dash_values(argv):
    """Join option values that begin with '-' (negative scalars, the minus
    sign) onto their flag so argparse does not mistake them for options."""
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _DASH_VALUE_OPTS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_dash_values(list(argv)))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except BihomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    try:
        rc = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): exit 2, as 1 means violations,
        # and point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 2
    sys.exit(rc)


if __name__ == "__main__":
    main()
