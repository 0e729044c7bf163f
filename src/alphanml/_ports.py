"""Plain-Python ports of the two scipy routines the theta layer runs, with scipy 1.17's bits.

``qagse`` is QUADPACK's ``dqagse`` (Piessens, de Doncker-Kapenga, Ueberhuber
& Kahaner, 1983), the routine behind ``scipy.integrate.quad`` on a finite
interval: 21-point Gauss-Kronrod panels (``dqk21``), bisection of the panel
with the largest error estimate (``dqpsrt`` keeps them ordered) and Wynn's
epsilon extrapolation (``dqelg``). Its integrand takes a panel's 21 nodes
at once, so a vectorized integrand pays its overhead once per panel, not
once per node. ``nelder_mead`` is scipy's ``_minimize_neldermead`` for two
variables with the default, non-adaptive coefficients and no bounds.

Both do the same floating-point operations in the same order as scipy, and
order ties as scipy does (``np.argsort`` for the simplex; C's ``fmax`` and
``fmin``, which skip a nan, for QUADPACK), so they return scipy's values,
error estimates and counts bit for bit; ``tests/test_ports.py`` compares
them by ``float.hex``. A build that fuses QUADPACK's C into fma
instructions, as aarch64 compilers may, can differ from them in the last
bits.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)
_LIMEXP = 50  # the epsilon table's length before it is shifted

# The 21-point Kronrod abscissae, descending; xgk[1], xgk[3], ..., xgk[9] are the 10-point Gauss abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
# Kronrod weights of xgk[0..9] and, last, of the centre.
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745491400, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# Gauss weights of xgk[1], xgk[3], ..., xgk[9].
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# dqk21 evaluates the centre, then the pairs centre -+ h xgk[j] at the Gauss abscissae, then at the Kronrod ones.
_PAIRS = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_SIGNED_XGK = np.array([sign * _XGK[j] for j in _PAIRS for sign in (-1.0, 1.0)])
_LEFT = tuple(2 * _PAIRS.index(j) + 1 for j in range(10))  # where the node centre - h xgk[j] sits

Integrand = Callable[[np.ndarray], Sequence[float]]


def _fmax(x: float, y: float) -> float:
    """C's fmax: the larger, and the other argument when one is nan."""
    return y if x < y or x != x else x


def _fmin(x: float, y: float) -> float:
    """C's fmin: the smaller, and the other argument when one is nan."""
    return y if y < x or x != x else x


def _qk21(f: Integrand, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21 on [a, b]: (integral, error estimate, integral of |f|, integral of |f - mean|).

    f gets the 21 nodes as one array in the order dqk21 evaluates them (``_PAIRS``) and returns
    their values in that order; the sums run in QUADPACK's order too.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv = [float(v) for v in f(np.concatenate(((centr,), centr + hlgth * _SIGNED_XGK)))]
    fc = fv[0]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for k, j in enumerate(_PAIRS):
        fval1, fval2 = fv[2 * k + 1], fv[2 * k + 2]
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j, left in enumerate(_LEFT):
        resasc = resasc + _WGK[j] * (abs(fv[left] - reskh) + abs(fv[left + 1] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        try:
            scale = (200.0 * abserr / resasc) ** 1.5  # the C library's pow
        except OverflowError:  # where C's pow returns inf
            scale = math.inf
        abserr = resasc * _fmin(1.0, scale)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = _fmax((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: keep ``iord`` (1-based) ordered by descending error; returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr  # insert errmin by traversing the list bottom-up
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg, Wynn's epsilon algorithm on the 1-based table: returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            res = epstab[k1 + 2]
            e0 = epstab[k1 - 2]
            e1 = epstab[k1 - 1]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = _fmax(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                result = res  # e0, e1 and e2 agree to machine accuracy
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr = error
                result = res
        if not converged:
            if n == _LIMEXP:
                n = 2 * (_LIMEXP // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
                res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, _fmax(abserr, 5.0 * _EPMACH * abs(result)), nres


def _c_div(x: float, y: float) -> float:
    """x / y with C's result where y is zero."""
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def qagse(f: Integrand, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, int]:
    """QUADPACK dqagse: (integral, error estimate, evaluations, ier) of f over [a, b], a < b.

    f takes one panel's 21 nodes as an array and returns their values (see ``_qk21``). ier is
    QUADPACK's code: 0 success, 1 ``limit`` subintervals used, 2 roundoff, 3 bad integrand
    behaviour, 4 no convergence of the extrapolation, 5 probably divergent. The tolerances must be
    valid (epsabs > 0, or epsrel at least 50 machine epsilons), where dqagse would return ier = 6.
    """
    alist = [0.0] * (limit + 1)  # 1-based, as in QUADPACK; entry 0 is unused
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = _fmax(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    sum_up = False  # leave the loop to the plain sum of the subintervals (QUADPACK's label 115)
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _fmax(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if _fmax(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_up = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and not erlarg <= ertest:
            # the smallest interval has the largest error: before bisecting, decrease the sum of the errors
            # over the larger intervals (erlarg) and extrapolate
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _fmax(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not sum_up:  # set the final result and error estimate (label 100)
        if abserr == _OFLOW:
            sum_up = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_up = True
            elif area == 0.0:
                return _finish(result, abserr, last, ier)
        if not sum_up:  # test on divergence (label 110)
            if not (ksgn == -1 and _fmax(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _c_div(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
            return _finish(result, abserr, last, ier)
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return _finish(result, errsum, last, ier)


def _finish(result: float, abserr: float, last: int, ier: int) -> tuple[float, float, int, int]:
    """dqagse's exit (labels 130 and 140): ier 3..6 shift down by one, and 42 last - 21 evaluations."""
    return result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier


def nelder_mead(
    func: Callable[[float, float], float], x0: Sequence[float], maxiter: int, xatol: float, fatol: float
) -> tuple[tuple[float, float], float, int, int]:
    """scipy's Nelder-Mead from x0 in two variables: (x, fun, nit, nfev) of ``minimize(method="Nelder-Mead")``.

    The non-adaptive coefficients, no bounds, at most ``maxiter`` iterations and no cap on
    evaluations. The first simplex scales each nonzero coordinate of x0 by 1 + 0.05 and puts
    0.00025 at a zero one. Vertices are ordered by ``np.argsort``, as scipy orders them: it is not
    stable, and ties (infeasible probes at +inf, say) land where scipy's land.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x1, x2 = float(x0[0]), float(x0[1])
    sim = [
        (x1, x2),
        ((1 + 0.05) * x1 if x1 != 0 else 0.00025, x2),
        (x1, (1 + 0.05) * x2 if x2 != 0 else 0.00025),
    ]
    fsim = [func(*vertex) for vertex in sim]
    nfev = 3

    def order():
        idx = np.argsort(fsim).tolist()
        return [sim[i] for i in idx], [fsim[i] for i in idx]

    sim, fsim = order()
    sim, fsim = order()  # scipy sorts the first simplex twice, and an unstable sort may swap ties again
    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        if all(abs(v[i] - best[i]) <= xatol for v in sim[1:] for i in (0, 1)) and all(
            abs(fsim[0] - fv) <= fatol for fv in fsim[1:]
        ):
            break
        worst = sim[-1]
        xbar = tuple((sim[0][i] + sim[1][i]) / 2 for i in (0, 1))
        xr = tuple((1 + rho) * xbar[i] - rho * worst[i] for i in (0, 1))
        fxr = func(*xr)
        nfev += 1
        doshrink = False
        if fxr < fsim[0]:
            xe = tuple((1 + rho * chi) * xbar[i] - rho * chi * worst[i] for i in (0, 1))
            fxe = func(*xe)
            nfev += 1
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # contraction
            xc = tuple((1 + psi * rho) * xbar[i] - psi * rho * worst[i] for i in (0, 1))
            fxc = func(*xc)
            nfev += 1
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                doshrink = True
        else:  # inside contraction
            xcc = tuple((1 - psi) * xbar[i] + psi * worst[i] for i in (0, 1))
            fxcc = func(*xcc)
            nfev += 1
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                doshrink = True
        if doshrink:
            for j in (1, 2):
                sim[j] = tuple(sim[0][i] + sigma * (sim[j][i] - sim[0][i]) for i in (0, 1))
                fsim[j] = func(*sim[j])
                nfev += 1
        iterations += 1
        sim, fsim = order()
    return sim[0], float(np.min(fsim)), iterations, nfev
