"""Exact-arithmetic certificates for partition runs.

Every inequality the bounding argument asserts is evaluated on the measured
instance quantities with Fraction arithmetic; no floats enter any verdict.
Each check record is self-verifying: holds == (lhs <comparison> rhs), with
lhs/rhs stored as exact rational strings, so a consumer can re-derive the
verdict from the record alone.

Each arithmetic check is one row of _STATEMENTS, and its lhs and rhs are
computed from the statement the record prints, compiled once per statement.
The notation is the printed one: a decimal is exact (the d=4 chain's 2.31 is
231/100), factors side by side multiply (7n, 2(2d-1)(k+1)), ^ is a power,
every / divides exactly, and |huge|, |Y|, sum_{j<=k} delta_j and
sum_{j>k} delta_j name quantities of the bundle. A statement is evaluated
over integers with no builtins in scope, so a fractional coefficient (79/8,
9/88, ...) is the exact ratio it prints. Inequalities that carry an o(n)
allowance in their asymptotic form are evaluated with the allowance dropped
and flagged in metadata; the one bound that leans on o(n) in an essential way
also ships a slack variant that allows a fixed additive n/1000.

The min-gap bounds, the candidate forms and the d = 4 chain each hold in one
regime; certificate_checks states each regime once, as the condition that
guards its rows, and emits only the rows whose regime holds. The checks are
diagnostic, not a proof: on instances that do admit a good partition, the
contradiction chain must break somewhere, and the certificate shows where.
"""
from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from .digraph import Digraph, split_masks
from .errors import IdentityViolationError, PartitionError
from .mingap import GapResult, MfMb, mf_mb
from .tight import TightReport

_CHAIN_SLACK = Fraction(1, 1000)  # the n fraction chain-05-slack allows

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}

# Every arithmetic check as check_id: (statement, meta); the chain's
# t = 2*delta_1 - delta_2 - delta_3 and slack are named in certificate_checks
_STATEMENTS = {
    "gap-le-ysize": ("theta <= |Y|", {}),
    "residual-le-slack": ("g <= |Y| - theta", {}),
    "gap-above-ratio": ("theta > m/(2d-1)", {}),
    "tail-dominance": ("sum_{j>k} delta_j - sum_{j<=k} delta_j >= g + theta", {}),
    "form1-neg": (
        "d*(sum_{j<=k} delta_j + g) - (d-1)*sum_{j>k} delta_j + b + m2/2 < 0", {}),
    "form2-lower": (
        "b > ((d^2+2d-1)/(d-1))*S_mid - d*S_out + (d-1)*g + ((d-1)/(2d))*m2", {}),
    "form3-upper": (
        "b < (2(2d-1)(k+1)/(3d-1))*n + ((d^2-5d+2)/(3d-1))*S_out"
        " - ((d^2+2d-1)/(3d-1))*S_mid + (d(d-1)/(3d-1))*g"
        " - ((d-1)^2/(2d(3d-1)))*m2", {}),
    "d4k1-alt-a": ("2*delta_2 + 2*delta_3 - 3*delta_1 - 3g - b + 3*m2/14 < 0", {}),
    "d4k1-alt-b1": ("6*delta_1 - 3*delta_2 - 3*delta_3 + 2g - b + 3*m2/14 < 0", {}),
    "d4k1-alt-b2": ("6*delta_3 - 3*delta_1 - 3*delta_2 - 3g + b/3 + 3*m2/14 < 0", {}),
    "d4k1-tau-bound": (
        "b < 3*delta_2 + 3*delta_3 - 4*delta_1 - 4g - m2/2 - 7(n-tau)/4", {}),
    "huge-ge-d": ("|huge| >= d", {}),
    "huge-single": ("|huge| == 1", {}),
    "tau-bound": ("tau <= (n + 2g + 2b) / (2d - 2|huge| + 1)", {}),
    "chain-01": ("b >= 4n - 3*delta_1 - g - m2 + t", {"o_n": "dropped"}),
    "chain-02": ("b > 7n + 3*m2 + 17g - 12*delta_1 + 18t", {}),
    "chain-03": ("b > 3g + 3*m2/8 - delta_1/3 + 4t", {}),
    "chain-04": ("b < 28n/11 - 27*delta_1/11 + 12g/11 - 9*m2/88 + 2t/11", {}),
    "chain-05": ("79*m2/8 + 23g > 16n - 6*delta_1 + 9t", {"o_n": "dropped"}),
    "chain-05-slack": ("79*m2/8 + 23g > 16n - 6*delta_1 + 9t - slack*n",
                       {"o_n": "slack-variant", "slack": _CHAIN_SLACK}),
    "chain-06": ("273*m2/8 + 175g < 105*delta_1 - 49n - 196t", {}),
    "chain-07": ("63*m2/4 + 63g < 84n - 70*delta_1 - 126t", {}),
    "chain-08": ("m2 + 2.31g > n", {}),
    "chain-09": ("1.806t + 0.759g < delta_1 - 0.829n", {}),
    "chain-10": ("2.322t + 0.435g < 0.968n - delta_1", {}),
    "chain-11": ("delta_1 > 0.829n", {}),
    "chain-12": ("3t + g < 0.117n", {}),
    "chain-13": ("b < 0.564n", {}),
    "chain-14": ("b > 3*m2/14 + 2g + 3t", {}),
    "chain-15": ("1.373t + 0.075g < 0.899n - delta_1", {}),
    "chain-16": ("g + b + m2 > 1.3n", {"o_n": "dropped"}),
    "chain-17": ("3t + g < 0.084n", {}),
}
_CHAIN = tuple(c for c in _STATEMENTS if c.startswith("chain-"))

# the names the statements print for quantities certificate_checks names
_ALIASES = {
    "sum_{j<=k} delta_j": "lead",
    "sum_{j>k} delta_j": "tail",
    "|huge|": "huge",
    "|Y|": "Y",
}
_TOKEN = re.compile(r"\d+\.\d+|\d+|\w+|\S")
_SCOPE = {"__builtins__": {}, "Fraction": Fraction}


@dataclass(frozen=True)
class QuantityBundle:
    n: int
    m: int
    m1: int
    m2: int
    e_x: int
    theta: int
    deltas: tuple[int, ...]
    k: int | None
    g: int
    b: int
    tau: int
    d: int
    eps: float

    def to_jsonable(self) -> dict:
        return {
            "n": self.n, "m": self.m, "m1": self.m1, "m2": self.m2,
            "e_x": self.e_x, "theta": self.theta, "deltas": list(self.deltas),
            "k": self.k, "g": self.g, "b": self.b, "tau": self.tau,
            "d": self.d, "eps": self.eps,
        }


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    statement: str
    lhs: str
    rhs: str
    comparison: str
    holds: bool
    meta: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "id": self.check_id, "statement": self.statement,
            "lhs": self.lhs, "rhs": self.rhs, "comparison": self.comparison,
            "holds": self.holds, "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class CandidateScore:
    label: str
    p: Fraction
    f: Fraction
    h: Fraction
    f_margin: Fraction  # f / (2(2d-1)): expected e12 headroom over target*m
    h_margin: Fraction

    def to_jsonable(self) -> dict:
        return {
            "label": self.label, "p": str(self.p),
            "f": str(self.f), "h": str(self.h),
            "f_margin": str(self.f_margin), "h_margin": str(self.h_margin),
        }


@dataclass(frozen=True)
class Certificate:
    bundle: QuantityBundle
    checks: tuple[CheckRecord, ...]
    fh_values: tuple[CandidateScore, ...]
    meta: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "bundle": self.bundle.to_jsonable(),
            "checks": [c.to_jsonable() for c in self.checks],
            "fh": [s.to_jsonable() for s in self.fh_values],
            "meta": dict(self.meta),
        }


def _rec(check_id: str, statement: str, lhs, comparison: str, rhs, **meta) -> CheckRecord:
    lf, rf = Fraction(lhs), Fraction(rhs)
    return CheckRecord(
        check_id=check_id,
        statement=statement,
        lhs=str(lf),
        rhs=str(rf),
        comparison=comparison,
        holds=bool(_OPS[comparison](lf, rf)),
        meta={k: str(v) for k, v in meta.items()},
    )


@cache
def _compile(statement: str):
    """The (lhs code, comparison, rhs code) of a printed statement."""
    for alias, name in _ALIASES.items():
        statement = statement.replace(alias, name)
    lhs, comparison, rhs = re.split(r"\s*([<>=]=|[<>])\s*", statement)
    return _compile_side(lhs), comparison, _compile_side(rhs)


def _compile_side(text: str):
    """One side in Python syntax: a decimal becomes its exact ratio, `^`
    becomes `**`, factors side by side get a `*`, and every `/` divides a
    Fraction."""
    tokens = []
    for tok in _TOKEN.findall(text):
        if tokens and re.fullmatch(r"[\w)][\w(]", tokens[-1][-1] + tok[0]):
            tokens.append("*")
        if "." in tok:
            whole, frac = tok.split(".")
            tok = f"({int(whole + frac)}/{10 ** len(frac)})"
        tokens.append("**" if tok == "^" else tok)
    tree = ast.parse(" ".join(tokens), mode="eval")
    # walk queues a node's children before yielding it, so a division
    # inside the wrapped left side is still reached
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            node.left = ast.Call(ast.Name("Fraction", ast.Load()), [node.left], [])
    return compile(ast.fix_missing_locations(tree), "<statement>", "eval")


def _evaluate(statement: str, q: dict) -> tuple:
    """(lhs, comparison, rhs) of a statement over the named quantities q."""
    lhs, comparison, rhs = _compile(statement)
    return eval(lhs, _SCOPE, q), comparison, eval(rhs, _SCOPE, q)


def _records(q: dict, *check_ids: str, **meta) -> list[CheckRecord]:
    """The records of the named rows over q; meta comes before each row's
    own."""
    out = []
    for check_id in check_ids:
        statement, row_meta = _STATEMENTS[check_id]
        out.append(_rec(check_id, statement, *_evaluate(statement, q), **meta, **row_meta))
    return out


def verify_record(rec: CheckRecord) -> bool:
    """Recompute holds from the stored strings; True when consistent."""
    return _OPS[rec.comparison](Fraction(rec.lhs), Fraction(rec.rhs)) == rec.holds


def compute_bundle(D: Digraph, gr: GapResult, tr: TightReport, cfg) -> QuantityBundle:
    """The measured quantities for X = gr.x and Y = V - X."""
    (in_x,) = split_masks(D.n, [gr.x], "X")
    in_y = ~in_x
    to_y, from_y = gr.y_census
    m1 = int(to_y[in_x].sum() + from_y[in_x].sum())
    m2 = int(np.count_nonzero(in_y[D.tails] & in_y[D.heads]))
    e_x = int(np.count_nonzero(in_x[D.tails] & in_x[D.heads]))
    if m1 + m2 + e_x != D.m:
        raise IdentityViolationError(
            f"m1 + m2 + e(X) = {m1 + m2 + e_x} != m = {D.m}"
        )
    deltas = tuple(
        abs(int(D.out_degrees[v] - D.in_degrees[v])) for v in gr.huge
    )
    if e_x == 0 and sum(deltas) + gr.g + 2 * gr.b + m2 != D.m:
        raise IdentityViolationError(
            "arc-mass identity m = sum(deltas) + g + 2b + m2 failed with e(X) = 0"
        )
    return QuantityBundle(
        n=D.n, m=D.m, m1=m1, m2=m2, e_x=e_x,
        theta=gr.theta_abs_min, deltas=deltas, k=gr.k,
        g=gr.g, b=gr.b, tau=tr.tau, d=cfg.d, eps=cfg.epsilon,
    )


def eval_f_h(bundle: QuantityBundle, cand, mfmb: MfMb) -> tuple[Fraction, Fraction]:
    """f and h for one candidate at its p, exactly.

    ell(p) = (d-1)*sum(deltas) + (d-1)g + (2d-2)b - (2(2d-1)p(1-p) - (d-1))m2;
    f = 2(1-p)(2d-1)z + 2p(2d-1)z' - ell;
    h = 2p(2d-1)(m1 - z - z') - ell,
    with z = e(x1, Y) and z' = e(Y, x2). Positive f certifies expected e12
    above the target ratio by f/(2(2d-1)) arcs; likewise h for e21.
    """
    p = Fraction(cand.p)
    d = bundle.d
    two = 2 * (2 * d - 1)
    ell = (
        (d - 1) * sum(bundle.deltas)
        + (d - 1) * bundle.g
        + (2 * d - 2) * bundle.b
        - (two * p * (1 - p) - (d - 1)) * bundle.m2
    )
    f = 2 * (1 - p) * (2 * d - 1) * mfmb.z + 2 * p * (2 * d - 1) * mfmb.zprime - ell
    h = 2 * p * (2 * d - 1) * (bundle.m1 - mfmb.z - mfmb.zprime) - ell
    return f, h


def certificate_checks(bundle: QuantityBundle, ysize: int) -> list[CheckRecord]:
    """Every check whose regime holds, in record order, for |Y| = ysize.
    Each regime is stated once, as the `if` that guards its rows. The
    candidate forms need |huge| = 2k + 1, so delta_0, at k = 0, is the one
    term that can be missing."""
    deltas, d, k = bundle.deltas, bundle.d, bundle.k
    huge = len(deltas)
    q = dict(vars(bundle), huge=huge, Y=ysize, slack=_CHAIN_SLACK)
    q.update((f"delta_{j}", x) for j, x in enumerate(deltas, 1))
    out = []
    if bundle.e_x == 0:
        out += _records(q, "gap-le-ysize", "residual-le-slack")
    # either the gap is small (the p = 1/2 route succeeds) or the huge set is
    # odd (k set) with a dominated head
    out += _records(q, "gap-above-ratio")
    out.append(_rec("huge-odd", "|huge| is odd", int(k is not None), "==", 1))
    if k is not None:
        q.update(lead=sum(deltas[:k]), tail=sum(deltas[k:]))
        out += _records(q, "tail-dominance")
    if k is not None and huge == 2 * k + 1:
        # mid window j = k..2k-1 (1-based); the outer terms j < k and j = 2k,
        # 2k+1 are all the others
        q["S_mid"] = sum(deltas[k - 1: 2 * k - 1])
        q["S_out"] = sum(deltas) - q["S_mid"]
        out += _records(q, "form1-neg", k=k)
        meta = {"k": k}
        if k == 0:
            meta["dropped_terms"] = "delta_0"
        # the S_mid coefficient of form2 divides by d - 1
        ids = ("form2-lower", "form3-upper") if d >= 2 else ("form3-upper",)
        out += _records(q, *ids, **meta)
        if d == 4 and k == 1:
            ra, rb1, rb2, tau_bound = _records(
                q, "d4k1-alt-a", "d4k1-alt-b1", "d4k1-alt-b2", "d4k1-tau-bound")
            out += [
                ra, rb1, rb2,
                _rec("d4k1-disjunction",
                     "d4k1-alt-a holds, or both d4k1-alt-b1 and d4k1-alt-b2 hold",
                     int(ra.holds or (rb1.holds and rb2.holds)), "==", 1,
                     a=ra.holds, b1=rb1.holds, b2=rb2.holds),
                tau_bound,
            ]
    out += _records(q, "huge-ge-d", "huge-single")
    denom = 2 * d - 2 * huge + 1
    if denom > 0:
        out += _records(q, "tau-bound", denominator=denom)
    if d == 4 and huge == 3:
        q["t"] = 2 * deltas[0] - deltas[1] - deltas[2]
        out += _records(q, *_CHAIN, t=q["t"])
    return out


def build_certificate(
    D: Digraph, gr: GapResult, tr: TightReport, cfg,
    candidates=(), flags=None,
) -> Certificate:
    """Bundle plus every in-regime check plus per-candidate f/h scores, for
    X = gr.x and Y = V - X; every candidate must split gr.x."""
    bundle = compute_bundle(D, gr, tr, cfg)
    checks = certificate_checks(bundle, D.n - len(gr.x))
    scores = []
    two = 2 * (2 * bundle.d - 1)
    x = set(gr.x)
    for cand in candidates:
        if set(cand.x1) | set(cand.x2) != x:
            raise PartitionError(f"candidate {cand.label} does not split X")
        mm = mf_mb(D, cand.x1, cand.x2, gr.y_census)
        f, h = eval_f_h(bundle, cand, mm)
        scores.append(CandidateScore(
            label=cand.label, p=Fraction(cand.p), f=f, h=h,
            f_margin=f / two, h_margin=h / two,
        ))
    return Certificate(
        bundle=bundle,
        checks=tuple(checks),
        fh_values=tuple(scores),
        meta={k: v for k, v in (flags or {}).items()},
    )


def render_text(cert: Certificate) -> str:
    """One line per check, then the f/h table."""
    lines = []
    bd = cert.bundle
    lines.append(
        f"bundle: n={bd.n} m={bd.m} m1={bd.m1} m2={bd.m2} e(X)={bd.e_x} "
        f"theta={bd.theta} |huge|={len(bd.deltas)} k={bd.k} g={bd.g} "
        f"b={bd.b} tau={bd.tau} d={bd.d}"
    )
    for c in cert.checks:
        mark = "PASS" if c.holds else "FAIL"
        lines.append(
            f"[{mark}] {c.check_id}: {c.statement}  "
            f"[{c.lhs} {c.comparison} {c.rhs}]"
        )
    for s in cert.fh_values:
        lines.append(
            f"f/h {s.label} (p={s.p}): f={s.f} h={s.h} "
            f"f_margin={s.f_margin} h_margin={s.h_margin}"
        )
    if cert.meta:
        lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(cert.meta.items())))
    return "\n".join(lines)
