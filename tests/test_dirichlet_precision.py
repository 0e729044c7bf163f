"""float64 error of the three Dirichlet averages against mpmath: the precision ledger's slice for their class sums.

``sibson_mi_alpha(alpha=1)`` (the order-one radius I_1), ``average_luckiness_regret`` and the
tilted ``luckiness_alpha_regret`` are exact sums over the type classes. Each is compared with a
40-digit mpmath value of the same sum, built here from ``mpmath.loggamma`` and ``mpmath.digamma``
alone, the predictor's joints included, and its relative error must stay within ``BUDGET``. The
cases are m = 2 at n = 10, 100 and 1,000 and m = 3 at n = 1, 4 and 12, over Dirichlet parameters
below and above 1, five predictors and orders up to 1,000.

``BUDGET`` is 2e-12, over the worst case measured when it was set: 1.4e-12, the tilted
alpha-regret at n = 1,000, b = (0.8, 0.9), alpha = 1.5. The errors grow with n: at most 1.2e-14
at n <= 12, 9.4e-14 at n = 100 and 1.4e-12 at n = 1,000, where the per-class terms (ln Gamma near
10^4, log joints near -700) are large against the result.

The references are pinned as literals, because the n = 1,000 sums take a few seconds in mpmath;
``python tests/test_dirichlet_precision.py`` prints them again, and
``test_literals_are_these_references`` recomputes those of n <= 12.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import pytest

from alphanml import (
    AlphaNML,
    DirichletParams,
    LuckinessAlphaNML,
    Mixture,
    NML,
    average_luckiness_regret,
    luckiness_alpha_regret,
    sibson_mi_alpha,
)

BUDGET = 2e-12
DIGITS = 40

# (average, n, m, predictor, Dirichlet parameters, order, reference); the parameters are the prior
# of I_1, the luckiness b of the other two. A predictor is ("mixture", a), ("nml",),
# ("anml", alpha, a) or ("lanml", alpha, b)
CASES = [
    ("radius", 10, 2, ("mixture", (0.5, 0.5)), (0.5, 0.5), 1.0, "1.053575634419457754051633"),
    ("radius", 10, 2, ("mixture", (0.4, 0.7)), (0.4, 0.7), 1.0, "0.9989637116534823109896576"),
    ("radius", 10, 2, ("mixture", (2.09, 0.23)), (2.09, 0.23), 1.0, "0.5691732580611892086574541"),
    ("radius", 10, 2, ("mixture", (1.0, 1.0)), (1.0, 1.0), 1.0, "0.8539973455292054112511591"),
    ("average", 10, 2, ("anml", 2.5, (0.7, 1.3)), (0.6, 0.9), 1.0, "0.9366911251219624778088177"),
    ("average", 10, 2, ("nml",), (2.09, 0.23), 1.0, "1.227480862512609368258728"),
    ("average", 10, 2, ("mixture", (0.5, 0.5)), (2.0, 2.0), 1.0, "0.8870459461587543793315593"),
    ("average", 10, 2, ("lanml", 1.5, (1.3, 1.6)), (1.0, 1.0), 1.0, "0.8830961704309055939054011"),
    ("tilted", 10, 2, ("lanml", 2.0, (2.0, 2.0)), (2.0, 2.0), 2.0, "0.6958215698394641661169129"),
    ("tilted", 10, 2, ("lanml", 1.5, (0.8, 0.9)), (0.8, 0.9), 1.5, "1.040517624288100532002753"),
    ("tilted", 10, 2, ("mixture", (0.5, 0.5)), (1.3, 2.6), 3.7, "1.170158176282790131856858"),
    ("tilted", 10, 2, ("anml", 2.0, (0.5, 0.5)), (1.5, 1.5), 1000.0, "1.465212727160501920590341"),
    ("radius", 100, 2, ("mixture", (0.5, 0.5)), (0.5, 0.5), 1.0, "2.081600475394821370547296"),
    ("radius", 100, 2, ("mixture", (0.4, 0.7)), (0.4, 0.7), 1.0, "2.010613140356036777239851"),
    ("radius", 100, 2, ("mixture", (2.09, 0.23)), (2.09, 0.23), 1.0, "1.374566072106157228941211"),
    ("radius", 100, 2, ("mixture", (1.0, 1.0)), (1.0, 1.0), 1.0, "1.900338189751982613458288"),
    ("average", 100, 2, ("anml", 2.5, (0.7, 1.3)), (0.6, 0.9), 1.0, "1.976389614375352387663816"),
    ("average", 100, 2, ("nml",), (2.09, 0.23), 1.0, "2.190429372352491635099221"),
    ("average", 100, 2, ("mixture", (0.5, 0.5)), (2.0, 2.0), 1.0, "2.027685533141153906238364"),
    ("average", 100, 2, ("lanml", 1.5, (1.3, 1.6)), (1.0, 1.0), 1.0, "1.945273890872158779662854"),
    ("tilted", 100, 2, ("lanml", 2.0, (2.0, 2.0)), (2.0, 2.0), 2.0, "1.716121656016152113612035"),
    ("tilted", 100, 2, ("lanml", 1.5, (0.8, 0.9)), (0.8, 0.9), 1.5, "2.095412685103710734308651"),
    ("tilted", 100, 2, ("mixture", (0.5, 0.5)), (1.3, 2.6), 3.7, "2.288924969468915002076387"),
    ("tilted", 100, 2, ("anml", 2.0, (0.5, 0.5)), (1.5, 1.5), 1000.0, "2.551943945323189766202188"),
    ("radius", 1000, 2, ("mixture", (0.5, 0.5)), (0.5, 0.5), 1.0, "3.196172080840935602098287"),
    ("radius", 1000, 2, ("mixture", (0.4, 0.7)), (0.4, 0.7), 1.0, "3.115376980758490243536511"),
    ("radius", 1000, 2, ("mixture", (2.09, 0.23)), (2.09, 0.23), 1.0, "2.342704207337870570530052"),
    ("radius", 1000, 2, ("mixture", (1.0, 1.0)), (1.0, 1.0), 1.0, "3.037002927138416636936445"),
    ("average", 1000, 2, ("anml", 2.5, (0.7, 1.3)), (0.6, 0.9), 1.0, "3.103932345126378290941068"),
    ("average", 1000, 2, ("nml",), (2.09, 0.23), 1.0, "3.260513913339318305496673"),
    ("average", 1000, 2, ("mixture", (0.5, 0.5)), (2.0, 2.0), 1.0, "3.179585981988020386998899"),
    ("average", 1000, 2, ("lanml", 1.5, (1.3, 1.6)), (1.0, 1.0), 1.0, "3.08594226384093883493954"),
    ("tilted", 1000, 2, ("lanml", 2.0, (2.0, 2.0)), (2.0, 2.0), 2.0, "2.851794895794683470859458"),
    ("tilted", 1000, 2, ("lanml", 1.5, (0.8, 0.9)), (0.8, 0.9), 1.5, "3.226879756153598316948563"),
    ("tilted", 1000, 2, ("mixture", (0.5, 0.5)), (1.3, 2.6), 3.7, "3.437657045987818563474177"),
    ("tilted", 1000, 2, ("anml", 2.0, (0.5, 0.5)), (1.5, 1.5), 1000.0, "3.684571876260550475759931"),
    ("radius", 1, 3, ("mixture", (0.5, 0.5, 0.5)), (0.5, 0.5, 0.5), 1.0, "0.4319456220014430247285786"),
    ("radius", 1, 3, ("mixture", (0.7, 1.2, 2.1)), (0.7, 1.2, 2.1), 1.0, "0.2029665275383757430271474"),
    ("average", 1, 3, ("anml", 2.5, (0.7, 1.3, 2.1)), (1.5, 2.0, 1.2), 1.0, "0.2749323277463410792580555"),
    ("average", 1, 3, ("nml",), (0.6, 0.9, 1.1), 1.0, "0.3206662906098469117733267"),
    ("tilted", 1, 3, ("lanml", 2.0, (1.5, 2.0, 1.2)), (1.5, 2.0, 1.2), 2.0, "0.2367356701791315525976704"),
    ("tilted", 1, 3, ("mixture", (0.5, 0.5, 0.5)), (1.3, 2.6, 1.1), 3.7, "0.6287990650285023277509563"),
    ("radius", 4, 3, ("mixture", (0.5, 0.5, 0.5)), (0.5, 0.5, 0.5), 1.0, "1.099337211725447650888424"),
    ("radius", 4, 3, ("mixture", (0.7, 1.2, 2.1)), (0.7, 1.2, 2.1), 1.0, "0.6338314205401320182928502"),
    ("average", 4, 3, ("anml", 2.5, (0.7, 1.3, 2.1)), (1.5, 2.0, 1.2), 1.0, "0.8391686643883394580136184"),
    ("average", 4, 3, ("nml",), (0.6, 0.9, 1.1), 1.0, "0.9939010338641447353369932"),
    ("tilted", 4, 3, ("lanml", 2.0, (1.5, 2.0, 1.2)), (1.5, 2.0, 1.2), 2.0, "0.7195325784478535824031249"),
    ("tilted", 4, 3, ("mixture", (0.5, 0.5, 0.5)), (1.3, 2.6, 1.1), 3.7, "1.303339530410746841309217"),
    ("radius", 12, 3, ("mixture", (0.5, 0.5, 0.5)), (0.5, 0.5, 0.5), 1.0, "1.879993214033121626086701"),
    ("radius", 12, 3, ("mixture", (0.7, 1.2, 2.1)), (0.7, 1.2, 2.1), 1.0, "1.279590254062225703596417"),
    ("average", 12, 3, ("anml", 2.5, (0.7, 1.3, 2.1)), (1.5, 2.0, 1.2), 1.0, "1.613893173372666070464984"),
    ("average", 12, 3, ("nml",), (0.6, 0.9, 1.1), 1.0, "1.815301678442851692616452"),
    ("tilted", 12, 3, ("lanml", 2.0, (1.5, 2.0, 1.2)), (1.5, 2.0, 1.2), 2.0, "1.413490205823097657322825"),
    ("tilted", 12, 3, ("mixture", (0.5, 0.5, 0.5)), (1.3, 2.6, 1.1), 3.7, "2.140398623893595685782528"),
]


def _spec(predictor):
    kind, params = predictor[0], predictor[1:]
    if kind == "mixture":
        return Mixture(DirichletParams(params[0]))
    if kind == "nml":
        return NML()
    if kind == "anml":
        return AlphaNML(params[0], DirichletParams(params[1]))
    return LuckinessAlphaNML(params[0], DirichletParams(params[1]))


def _library(average, n, m, predictor, params, alpha):
    b = DirichletParams(params)
    if average == "radius":
        return sibson_mi_alpha(n, m, 1.0, b)
    if average == "average":
        return average_luckiness_regret(_spec(predictor), b, n, m)
    return luckiness_alpha_regret(_spec(predictor), b, n, alpha, m)


# -- the mpmath references --------------------------------------------------------


def _classes(n, m):
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1,) + bars + (n + m - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(m))


def _log_mult(c):
    return mp.loggamma(sum(c) + 1) - mp.fsum(mp.loggamma(x + 1) for x in c)


def _log_beta(p):
    return mp.fsum(mp.loggamma(x) for x in p) - mp.loggamma(mp.fsum(p))


def _log_sum_exp(values):
    hi = max(values)
    return hi + mp.log(mp.fsum(mp.exp(v - hi) for v in values))


def _log_joints(predictor, classes):
    """ln q of one sequence of each class: a mixture's Beta ratio, else numerator minus log normalizer."""
    kind, params = predictor[0], predictor[1:]
    if kind == "mixture":
        a = [mp.mpf(x) for x in params[0]]
        return [_log_beta([x + y for x, y in zip(c, a)]) - _log_beta(a) for c in classes]
    if kind == "nml":
        numerators = [mp.fsum(x * mp.log(mp.mpf(x) / sum(c)) for x in c if x) for c in classes]
    else:
        alpha, a = mp.mpf(params[0]), [mp.mpf(x) for x in params[1]]
        if kind == "lanml":
            a = [alpha * (x - 1) + 1 for x in a]  # the tilted prior
        numerators = [_log_beta([alpha * x + y for x, y in zip(c, a)]) / alpha for c in classes]
    log_z = _log_sum_exp([_log_mult(c) + v for c, v in zip(classes, numerators)])
    return [v - log_z for v in numerators]


def reference(average, n, m, predictor, params, alpha):
    """The average's class sum in mpmath at ``DIGITS`` digits (float inputs enter as their exact binary values)."""
    with mp.workdps(DIGITS):
        classes = list(_classes(n, m))
        if average == "radius":
            predictor = ("mixture", params)
        log_q = _log_joints(predictor, classes)
        if average == "tilted":
            alpha = mp.mpf(alpha)
            t = [alpha * (mp.mpf(x) - 1) + 1 for x in params]
            terms = [_log_mult(c) + _log_beta([alpha * x + y for x, y in zip(c, t)]) - _log_beta(t) + (1 - alpha) * lq
                     for c, lq in zip(classes, log_q)]
            return _log_sum_exp(terms) / (alpha - 1)
        b = [mp.mpf(x) for x in params]
        top = mp.digamma(mp.fsum(b) + n)
        terms = []
        for c, lq in zip(classes, log_q):
            weight = mp.exp(_log_mult(c) + _log_beta([x + y for x, y in zip(c, b)]) - _log_beta(b))
            mean_log_p = mp.fsum(x * (mp.digamma(x + y) - top) for x, y in zip(c, b) if x)
            terms.append(weight * (mean_log_p - lq))
        return mp.fsum(terms)


def _id(case):
    average, n, m, predictor, params, alpha = case[:6]
    return f"{average}-n{n}-m{m}-{predictor[0]}-{params}-{alpha!r}"


@pytest.mark.parametrize("case", CASES, ids=[_id(case) for case in CASES])
def test_relative_error_within_budget(case):
    *call, expected = case
    with mp.workdps(DIGITS):
        expected = mp.mpf(expected)
        error = abs((mp.mpf(_library(*call)) - expected) / expected)
    assert error <= BUDGET, float(error)


def test_literals_are_these_references():
    with mp.workdps(DIGITS):
        for *call, expected in CASES:
            if call[1] <= 12:
                assert abs(reference(*call) / mp.mpf(expected) - 1) < mp.mpf(10) ** -24, call


if __name__ == "__main__":
    for *call, _ in CASES:
        with mp.workdps(DIGITS):
            print(tuple(call), mp.nstr(reference(*call), 25))
