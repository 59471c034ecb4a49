"""The bihom workloads: inputs made from a seed, the operations that run
on them, and the checks that every output is correct.

Each workload makes one *cycle*: a fixed list of operations. The run loop
replays whole cycles, so every run and every seed measures the same mix of
operation sizes, while the seed draws the values inside that mix (twist
scalars, grid entries, weights, hosts, order). The program sees only the
files written here.

Run as a script (`workloads.py --setup NAME SEED DIR`) it is the set-up
probe: it imports bihom, writes the inputs of one workload into DIR and
prints how long both took.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

NAMES = ("verify-twisted", "search-grid", "search-pool", "cli-chain")

SEARCH_HOSTS = ("dual-numbers", "kz2", "kz2-yau")
# (host, grid size) of one search cycle. Every dual-numbers and kz2 search
# evaluates its whole 4-value grid (256 candidates), so the median and the
# tail both fall inside that one class of operation; kz2-yau carries the
# larger grids, where the invariance filter prunes all but |grid|^2.
SEARCH_CYCLE = ([("dual-numbers", 4)] * 3 + [("kz2", 4)] * 3
                + [("kz2-yau", 4), ("kz2-yau", 5), ("kz2-yau", 6)])
WEIGHTS = ("1", "-1", "2", "-2", "1/2", "-1/2", "3/2")
GRID_VALUES = ("1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "-1/3",
               "3/2", "-3/2", "2/3", "-2/3")

VERIFY_ORDERS = range(6, 11)      # K[x]/(x^(N+1)), dim N+1 = 7..11

CHAIN_DIM2_HOSTS = ("dual-numbers", "kz2", "kz2-yau", "trivial-left")
CHAIN_DIMS = {"dual-numbers": 2, "kz2": 2, "kz2-yau": 2, "trivial-left": 2,
              "trunc-poly-2": 3, "trunc-poly-3": 4}
CHAIN_COLD_EVERY = 4              # a `catalog --json` probe before every 4th call


class CheckFailed(Exception):
    """An operation gave a wrong exit code or a wrong output."""


@dataclass
class Op:
    label: str                    # the class of the operation, for reports
    argv: list[str]
    expect_rc: int
    check: object = None          # callable(stdout) raising CheckFailed
    stdout_to: str | None = None  # the caller's `> file`
    produces: str | None = None   # model file written by the call
    candidates: int = 0           # grid points, search operations only
    cold: bool = False            # a `catalog --json` cold-start probe
    failing: bool = False         # expected to report violations


@dataclass
class Workload:
    name: str
    ops: list[Op]
    in_process: bool
    threads: str = "1"
    # Stop only at the end of a cycle. cli-chain calls all cost about one
    # interpreter start, so its runs may stop between any two calls.
    whole_cycles: bool = True


def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _s(x: Fraction) -> str:
    return str(x)


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# verify-twisted


def twisted_trunc_doc(order: int, lam: Fraction, passing: bool) -> dict:
    """K[x]/(x^(order+1)) Yau-twisted by diag(lam^i) in all four map slots.

    The failing variant carries the divided coproduct at weight -1, which
    breaks (12.4) exactly at the pairs (i, j) with i + j > order; the
    passing variant carries the left-trivial coproduct at weight 1.
    """
    n = order + 1
    pw = [lam ** i for i in range(2 * order + 1)]
    diag = [[_s(pw[i]) if i == j else "0" for j in range(n)] for i in range(n)]
    doc = {"name": f"tp{order}-{'pass' if passing else 'fail'}", "dim": n,
           "lambda": "1" if passing else "-1",
           "mul": [[i, j, i + j, _s(pw[i + j])]
                   for i in range(n) for j in range(n) if i + j <= order],
           "unit": ["1"] + ["0"] * order}
    if passing:
        doc["comul"] = [[i, i, 0, _s(-pw[i])] for i in range(n)]
    else:
        doc["comul"] = [[k, p, k - p, _s(pw[k])] for k in range(n) for p in range(k + 1)]
        doc["counit"] = ["1"] + ["0"] * order
    for key in ("alpha", "beta", "psi", "omega"):
        doc[key] = diag
    return doc


def _twist_scalar(rng: random.Random) -> Fraction:
    # +-3/2 or +-2/3: the powers up to lam^20 then have the same bit sizes
    # for every seed, so the seed does not change the cost of a file
    lam = rng.choice((Fraction(3, 2), Fraction(2, 3)))
    return lam if rng.random() < 0.5 else -lam


def _check_verify(order: int, passing: bool):
    expected = {(i, j) for i in range(order + 1) for j in range(order + 1) if i + j > order}

    def check(stdout: str):
        doc = json.loads(stdout)
        if passing:
            _require(doc["passed"] is True and doc["violations"] == [],
                     f"tp{order}-pass reported violations")
            return
        viol = doc["violations"]
        _require(doc["passed"] is False, f"tp{order}-fail reported a pass")
        _require({v["equation_id"] for v in viol} == {"(12.4)"},
                 f"tp{order}-fail: labels other than (12.4)")
        got = [tuple(v["indices"]) for v in viol]
        _require(len(got) == len(set(got)) and set(got) == expected,
                 f"tp{order}-fail: violation pairs differ from i+j>{order}")
    return check


def make_verify(seed: int, d: str) -> Workload:
    rng = rng_for("verify-twisted", seed)
    ops = []
    # every order passing and failing, the two largest orders twice: the
    # median then falls among the N = 9 files and the tail among the N = 10
    # files, for any number of cycles from 3 up
    files = [(order, passing) for passing in (False, True) for order in VERIFY_ORDERS
             for _ in range(2 if order >= VERIFY_ORDERS[-2] else 1)]
    for k, (order, passing) in enumerate(files):
        lam = _twist_scalar(rng)
        path = os.path.join(d, f"f{k}-tp{order}-{'pass' if passing else 'fail'}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(twisted_trunc_doc(order, lam, passing), fh)
        ops.append(Op(f"verify-dim{order + 1}", ["verify", path, "--json"],
                      expect_rc=0 if passing else 1,
                      check=_check_verify(order, passing), failing=not passing))
    rng.shuffle(ops)
    return Workload("verify-twisted", ops, in_process=True)


# ---------------------------------------------------------------------------
# search-grid / search-pool


def _cli_to_file(cli, argv: list[str], path: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    if rc != 0:
        raise CheckFailed(f"{' '.join(argv)} exited {rc}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def make_search(name: str, seed: int, d: str, cli) -> Workload:
    # both search workloads draw from the same stream, so search-pool
    # replays exactly the operations of search-grid for a seed
    rng = rng_for("search", seed)
    hosts = {}
    for host in SEARCH_HOSTS:
        hosts[host] = os.path.join(d, f"{host}.json")
        _cli_to_file(cli, ["catalog", host], hosts[host])
    ops = []
    for host, size in SEARCH_CYCLE:
        weight = rng.choice(WEIGHTS)
        grid = {Fraction(0), Fraction(weight)}
        while len(grid) < size:
            grid.add(Fraction(rng.choice(GRID_VALUES)))
        tokens = [_s(x) for x in grid]
        rng.shuffle(tokens)
        ops.append(Op(f"search-{host}-g{size}",
                      ["search-r", hosts[host], "--coeffs", ",".join(tokens),
                       "--weight", weight, "--json"],
                      expect_rc=0, candidates=size ** 4))
    rng.shuffle(ops)
    return Workload(name, ops, in_process=True,
                    threads="2" if name == "search-pool" else "1")


class SearchChecker:
    """Checks a search-r result with `ybe.abhybe_residual`. Its residual is
    the one the search evaluates; its (14.8)/(14.9) characterizations go
    through the r-induced coproduct and `LinMap`, a path the search does not
    take."""

    def __init__(self, bihom, seed: int):
        self.bihom = bihom
        self.rng = rng_for("search-check", seed)
        self.hosts: dict[str, tuple] = {}

    def _host(self, path: str):
        if path not in self.hosts:
            model = self.bihom.models.load(path)
            self.hosts[path] = (model.as_algebra(), model.map("psi"), model.map("omega"))
        return self.hosts[path]

    def __call__(self, op: Op, stdout: str, samples: int = 2):
        Elem2 = self.bihom.exactcore.Elem2
        ybe = self.bihom.ybe
        path = op.argv[1]
        grid = sorted(Fraction(t) for t in op.argv[op.argv.index("--coeffs") + 1].split(","))
        weight = Fraction(op.argv[op.argv.index("--weight") + 1])
        a, psi, omega = self._host(path)
        n = a.dim
        doc = json.loads(stdout)
        _require(doc["count"] == len(doc["solutions"]), "count differs from the list")
        found = []
        for pairs in doc["solutions"]:
            m = [[Fraction(0)] * n for _ in range(n)]
            for i, j, c in pairs:
                m[i][j] = Fraction(c)
            flat = tuple(x for row in m for x in row)
            _require(all(x in grid for x in flat), "a solution leaves the grid")
            found.append(flat)
            report = ybe.abhybe_residual(a, psi, omega, Elem2(n, tuple(map(tuple, m))), weight)
            _require(report.is_solution, f"returned r is not a solution: {pairs}")
            _require(report.characterization.get("(14.8)") is True
                     and report.characterization.get("(14.9)") is True,
                     f"(14.8)/(14.9) fail for a returned r: {pairs}")
        rank = {x: k for k, x in enumerate(grid)}
        keys = [tuple(rank[x] for x in flat) for flat in found]
        _require(keys == sorted(set(keys)), "solutions are not in grid order")
        maps = [f.entries for f in (a.alpha, a.beta, psi, omega)]
        seen = set(found)
        for _ in range(samples):
            for _ in range(400):
                flat = tuple(self.rng.choice(grid) for _ in range(n * n))
                if flat not in seen and _invariant(maps, flat, n):
                    break
            else:
                continue
            seen.add(flat)
            r = Elem2(n, tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n)))
            _require(not ybe.abhybe_residual(a, psi, omega, r, weight).is_solution,
                     f"an invariant grid point outside the result solves: {flat}")


def _invariant(maps, flat, n) -> bool:
    """(f (x) f)(r) == r for every f, evaluated independently of bihom."""
    for f in maps:
        for i in range(n):
            for j in range(n):
                v = sum(f[i][u] * f[j][w] * flat[u * n + w]
                        for u in range(n) for w in range(n))
                if v != flat[i * n + j]:
                    return False
    return True


# ---------------------------------------------------------------------------
# cli-chain


def _expect_prefix(prefix: str):
    def check(stdout: str):
        _require(stdout.startswith(prefix), f"output does not start with {prefix!r}")
    return check


def _expect_catalog(names):
    def check(stdout: str):
        _require(set(names) <= set(json.loads(stdout)["entries"]), "catalog lacks a host")
    return check


def _expect_model(name: str):
    def check(stdout: str):
        _require(json.loads(stdout)["name"] == name, f"catalog {name} printed another model")
    return check


def make_chain(seed: int, d: str) -> Workload:
    rng = rng_for("cli-chain", seed)
    hosts = [rng.choice(CHAIN_DIM2_HOSTS), "trunc-poly-2", "trunc-poly-3"]
    rng.shuffle(hosts)
    calls: list[Op] = []
    for k, host in enumerate(hosts):
        weight = rng.choice(WEIGHTS)
        f = lambda tag: os.path.join(d, f"b{k}-{tag}.json")
        with open(f("r"), "w", encoding="utf-8") as fh:
            json.dump({"name": f"r{k}", "dim": CHAIN_DIMS[host], "lambda": weight,
                       "r": [[0, 0, weight]]}, fh)
        calls.append(Op("catalog-entry", ["catalog", host], 0,
                        check=_expect_model(host), stdout_to=f("host")))
        steps = [
            ("delta-r", [f("host"), "--r", f("r")], "b"),
            ("dualize", [f("b")], "dual"),
            ("ybe", [f("host"), "--r", f("r")], None),
            ("rota-baxter", [f("host"), "--r", f("r")], "rb"),
            ("dendriform", [f("rb")], "den"),
            ("prelie", [f("b")], "prelie"),
            ("prelie-coalgebra", [f("b")], "prelie-co"),
            ("hopf-module", [f("b"), "--from", "plain"], "hopf"),
        ]
        for verb, rest, out in steps:
            if out is None:
                calls.append(Op(verb, [verb, *rest], 0, check=_expect_prefix(f"r{k} over ")))
                continue
            check = _expect_prefix("PASS") if verb == "hopf-module" else None
            calls.append(Op(verb, [verb, *rest, "-o", f(out)], 0, check=check,
                            produces=f(out)))
            calls.append(Op("verify", ["verify", f(out)], 0, check=_expect_prefix("PASS")))
    ops = []
    for i, op in enumerate(calls):
        if i % CHAIN_COLD_EVERY == 0:
            ops.append(Op("catalog-json", ["catalog", "--json"], 0,
                          check=_expect_catalog(hosts), cold=True))
        ops.append(op)
    return Workload("cli-chain", ops, in_process=False, whole_cycles=False)


def make(name: str, seed: int, d: str, bihom) -> Workload:
    if name == "verify-twisted":
        return make_verify(seed, d)
    if name in ("search-grid", "search-pool"):
        return make_search(name, seed, d, bihom.cli)
    if name == "cli-chain":
        return make_chain(seed, d)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running one operation


def run_in_process(cli, op: Op) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(op.argv)
    return rc, out.getvalue(), perf_counter() - t0


def run_process(op: Op, env: dict, cwd: str) -> tuple[int, str, float]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bihom.cli", *op.argv], env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, perf_counter() - t0


def _setup_probe(name: str, seed: int, d: str):
    t0 = perf_counter()
    import bihom
    import bihom.cli
    t1 = perf_counter()
    make(name, seed, d, bihom)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "generate_s": t2 - t1}))


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "--setup":
        sys.exit("usage: workloads.py --setup WORKLOAD SEED DIR")
    _setup_probe(sys.argv[2], int(sys.argv[3]), sys.argv[4])
