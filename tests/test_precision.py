"""float64 error budget of normalizers and worst-case regrets against mpmath.

Each quantity is compared with a 50-digit value computed by mpmath over the
same type classes, and the relative error must stay inside a fixed budget:
2e-13 for log normalizers and log Shtarkov sums, 4e-13 for worst-case
regrets. The references are pinned as literals because computing them takes
about 18 s. They were generated with mpmath 1.3.0 by this snippet (float
inputs such as 0.7 enter mpmath as their exact binary values)::

    import itertools
    import mpmath as mp

    mp.mp.dps = 50

    def classes(n, m):
        for bars in itertools.combinations(range(n + m - 1), m - 1):
            edges = (-1,) + bars + (n + m - 1,)
            yield tuple(edges[i + 1] - edges[i] - 1 for i in range(m))

    def lmult(c):
        return mp.loggamma(sum(c) + 1) - mp.fsum(mp.loggamma(x + 1) for x in c)

    def lml(c):
        n = sum(c)
        return mp.fsum(x * mp.log(mp.mpf(x) / n) for x in c if x)

    def lbeta(p):
        return mp.fsum(mp.loggamma(x) for x in p) - mp.loggamma(mp.fsum(p))

    def lnum_alpha(c, alpha, a):
        alpha = mp.mpf(alpha); a = [mp.mpf(x) for x in a]
        return (lbeta([alpha * x + y for x, y in zip(c, a)]) - lbeta(a)) / alpha

    def lse(vals):
        hi = max(vals)
        return hi + mp.log(mp.fsum(mp.exp(v - hi) for v in vals))

    def refs(n, m):
        cs = list(classes(n, m))
        lm = [lmult(c) for c in cs]
        ml = [lml(c) for c in cs]
        num25 = [lnum_alpha(c, 2.5, (0.7, 1.3, 2.1)[:m]) for c in cs]
        num37 = [lnum_alpha(c, 3.7, (0.5,) * m) for c in cs]
        norm37 = lse([x + y for x, y in zip(lm, num37)])
        return {
            "shtarkov": lse([x + y for x, y in zip(lm, ml)]),
            "normalizer": lse([x + y for x, y in zip(lm, num25)]),
            "worst_alpha": max(x - (y - norm37) for x, y in zip(ml, num37)),
            "worst_kt": max(x - lnum_alpha(c, 1, (0.5,) * m) for x, c in zip(ml, cs)),
        }

    for n, m in [(200, 2), (1000, 2), (2000, 2), (50, 3), (100, 3), (150, 3)]:
        print((n, m), {k: mp.nstr(v, 50) for k, v in refs(n, m).items()})
"""

from __future__ import annotations

import pytest

from alphanml import AlphaNML, DirichletParams, kt, log_normalizer, sibson_mi_infinity, worst_case_regret

NORMALIZER_BUDGET = 2e-13
WORST_CASE_BUDGET = 4e-13

REFERENCES = {
    (200, 2): {
        "shtarkov": "2.9122660879612155069427308204854900568515264347335",
        "normalizer": "1.486824810524097113721151446512793645064148671763",
        "worst_alpha": "2.9958492390283163628981623368478790213658270272166",
        "worst_kt": "3.2221486255476816418515151612348547265887605144416",
    },
    (1000, 2): {
        "shtarkov": "3.6964311909900900437121221177580597314051574495161",
        "normalizer": "1.9630336684796195952826302452471221090047444115881",
        "worst_alpha": "3.7855044349018283275366863677381022134960138912053",
        "worst_kt": "4.0263675824105602813278663385455313305538933291555",
    },
    (2000, 2): {
        "shtarkov": "4.0381074793237069074964038361927043124654115777501",
        "normalizer": "2.1696582231196573694584393781999137998635872120427",
        "worst_alpha": "4.1285122312360326833334432732084174343187587676081",
        "worst_kt": "4.3728786726950902261894783675012357815262832971946",
    },
    (50, 3): {
        "shtarkov": "4.0867008741840496990569732035513582501486641493217",
        "normalizer": "1.8123066291102471099174536027994545750847683611416",
        "worst_alpha": "4.2292391796838435331285121740919082852506342852582",
        "worst_kt": "4.615120516841259450884198266912989156890882587198",
    },
    (100, 3): {
        "shtarkov": "4.7292441533310668540244545934265942739630071170899",
        "normalizer": "2.2041664521599315948174353581300295605157990007386",
        "worst_alpha": "4.8840305281394193700935978239067788286646579208473",
        "worst_kt": "5.3033049080590757510653172332862484552144234610447",
    },
    (150, 3): {
        "shtarkov": "5.1121377768676345965422533060919388639671548625244",
        "normalizer": "2.4380747003440566182769242810227556622350135037695",
        "worst_alpha": "5.272574923996978591145881141358034163511361789181",
        "worst_kt": "5.707110264748875728578195256789026765196220914463",
    },
}


def _value(quantity: str, n: int, m: int) -> float:
    jeffreys = DirichletParams.jeffreys(m)
    if quantity == "shtarkov":
        return sibson_mi_infinity(n, m)
    if quantity == "normalizer":
        return log_normalizer(AlphaNML(2.5, DirichletParams((0.7, 1.3, 2.1)[:m])), n, m, cache=None)
    if quantity == "worst_alpha":
        return worst_case_regret(AlphaNML(3.7, jeffreys), n, m).value_nats
    return worst_case_regret(kt(m), n, m).value_nats


@pytest.mark.parametrize("quantity", ["shtarkov", "normalizer", "worst_alpha", "worst_kt"])
@pytest.mark.parametrize("nm", sorted(REFERENCES))
def test_relative_error_within_budget(nm, quantity):
    n, m = nm
    ref = float(REFERENCES[nm][quantity])
    budget = NORMALIZER_BUDGET if quantity in ("shtarkov", "normalizer") else WORST_CASE_BUDGET
    assert abs(_value(quantity, n, m) - ref) <= budget * abs(ref)
