"""otoclab's C kernel: the scalar loops of the classical runs and of the
``%.17g`` writer, each doing the floating-point operations of its Python
twin in the same order, so that both give the same results, bit for bit.

- ``otoclab_benettin_run`` is the whole Benettin run of
  ``classical.lyapunov_tangent``: the RK4 steps of each block, then the
  renormalisation by CPython's ``math.hypot`` (``otoclab_hypot``), libm's
  ``log`` (the function ``math.log`` calls) and two divisions;
- ``otoclab_integrate`` is the RK4 loop of ``classical.integrate`` with its
  energy-drift guard;
- ``otoclab_g17`` is ``_g17.write_rows``' decimal conversion, on the same
  table of powers of ten.

How each is kept bit-identical:

- the library is compiled with ``-O2 -ffp-contract=off``: no fused
  multiply-add, no ``-ffast-math`` and no ``-march``; it refuses to compile
  where C evaluates doubles in a wider format (``FLT_EVAL_METHOD != 0``, as
  on x87);
- ``x**3.0`` and ``x**4.0`` are ``otoclab_pow``, which mirrors CPython's
  ``float_pow``: nan, inf, +-0 and +-1 are settled as Python settles them,
  anything else is ``pow(|x|, w)`` from the C library (the one Python calls)
  with the sign put back, and a result past the float range returns a
  nonzero status where Python raises OverflowError. A result that
  underflows passes, as in Python. Products and sums that overflow give inf
  silently, as in Python;
- ``otoclab_hypot`` is CPython's ``vector_norm`` (Modules/mathmodule.c, as
  in 3.10 and 3.11) for two arguments: Veltkamp's split, the compensated
  sums ``csum``, ``frac1``, ``frac2`` and ``frac3``, and the differential
  correction. It refuses (status 2) a pair whose larger magnitude is not a
  finite number >= DBL_MIN: nan, inf, zero and subnormal pairs, where
  ``math.log`` raises or CPython versions take other routes (3.12 changed
  the subnormal one). A Benettin block that
  ends there stops the run, and Python renormalises that one block with
  ``math.hypot`` and ``math.log`` before it resumes the run.

Values the loops cannot settle go back to Python with a status: an
overflowing power, a failed drift guard, or a number ``otoclab_g17`` cannot
prove, which Python formats with ``'%.17g'`` itself.

Nothing happens at import: ``load`` builds the library with ``cc`` on its
first call, into this package's ``__pycache__`` under a name carrying a hash
of the source and flags, and keeps the result in ``_lib``. Later processes
load the cached file. Where the build or the load fails (no compiler, a
directory that cannot be written, a timeout), ``load`` returns None and the
callers run their Python loops, which give the same results.
"""
from __future__ import annotations

import os

CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 60
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")

SOURCE = r"""
#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "each double operation must round to double, as in Python"
#endif

/* x**w for w = 3.0 or 4.0 as CPython's float_pow computes it: nonzero
   where Python raises */
int otoclab_pow(double x, double w, double *out)
{
    int odd = w == 3.0;
    double r;
    if (isnan(x)) {
        *out = x;
        return 0;
    }
    if (isinf(x) || x == 0.0) {
        *out = odd ? x : fabs(x);
        return 0;
    }
    if (fabs(x) == 1.0) {
        *out = odd ? x : 1.0;
        return 0;
    }
    errno = 0;
    r = pow(fabs(x), w);
    /* _Py_ADJUST_ERANGE1 */
    if (errno == 0) {
        if (r == HUGE_VAL || r == -HUGE_VAL)
            errno = ERANGE;
    } else if (errno == ERANGE && r == 0.0) {
        errno = 0;
    }
    *out = odd && x < 0.0 ? -r : r;
    return errno != 0;
}

/* math.hypot(x, y) as CPython 3.10 and 3.11 compute it (vector_norm):
   0 and the norm in *out where max(|x|, |y|) is a finite number >= DBL_MIN,
   and 2 elsewhere, where Python's own math.hypot must be asked */
int otoclab_hypot(double x, double y, double *out)
{
    const double T27 = 134217729.0; /* Veltkamp's 2^27 + 1 */
    double vec[2], max, scale, csum = 1.0, frac1 = 0.0, frac2 = 0.0, frac3 = 0.0;
    double oldcsum, t, hi, lo, h;
    int max_e, i;
    vec[0] = fabs(x);
    vec[1] = fabs(y);
    max = vec[0] > vec[1] ? vec[0] : vec[1];
    if (!(max >= DBL_MIN && max <= DBL_MAX) || isnan(vec[0]) || isnan(vec[1]))
        return 2;
    frexp(max, &max_e);
    scale = ldexp(1.0, -max_e);
    for (i = 0; i < 2; i++) {
        x = vec[i] * scale;
        t = x * T27;
        hi = t - (t - x);
        lo = x - hi;
        x = hi * hi;
        oldcsum = csum;
        csum += x;
        frac1 += (oldcsum - csum) + x;
        x = 2.0 * hi * lo;
        oldcsum = csum;
        csum += x;
        frac2 += (oldcsum - csum) + x;
        frac3 += lo * lo;
    }
    h = sqrt(csum - 1.0 + (frac1 + frac2 + frac3));
    t = h * T27;
    hi = t - (t - h);
    lo = h - hi;
    x = -hi * hi;
    oldcsum = csum;
    csum += x;
    frac1 += (oldcsum - csum) + x;
    x = -2.0 * hi * lo;
    oldcsum = csum;
    csum += x;
    frac2 += (oldcsum - csum) + x;
    x = -lo * lo;
    oldcsum = csum;
    csum += x;
    frac3 += (oldcsum - csum) + x;
    x = csum - 1.0 + (frac1 + frac2 + frac3);
    *out = (h + x / (2.0 * h)) / scale;
    return 0;
}

/* s = {q, p, u, v, ...}; k = {b, c1, c2, c3, hdt, dt, sdt} */
static int quartic_block(double *s, const double *k, int64_t steps)
{
    const double b = k[0], c1 = k[1], c2 = k[2], c3 = k[3];
    const double hdt = k[4], dt = k[5], sdt = k[6];
    double q = s[0], p = s[1], u = s[2], v = s[3];
    double k1q, k1p, k1u, k1v, k2q, k2p, k2u, k2v;
    double k3q, k3p, k3u, k3v, k4q, k4p, k4u, k4v, x, x3;
    int64_t i;
    for (i = 0; i < steps; i++) {
        k1q = b * p;
        if (otoclab_pow(q, 3.0, &x3))
            return 1;
        k1p = c1 * q - c3 * x3;
        k1u = b * v;
        k1v = (c1 - c2 * q * q) * u;
        x = q + hdt * k1q;
        k2q = b * (p + hdt * k1p);
        if (otoclab_pow(x, 3.0, &x3))
            return 1;
        k2p = c1 * x - c3 * x3;
        k2u = b * (v + hdt * k1v);
        k2v = (c1 - c2 * x * x) * (u + hdt * k1u);
        x = q + hdt * k2q;
        k3q = b * (p + hdt * k2p);
        if (otoclab_pow(x, 3.0, &x3))
            return 1;
        k3p = c1 * x - c3 * x3;
        k3u = b * (v + hdt * k2v);
        k3v = (c1 - c2 * x * x) * (u + hdt * k2u);
        x = q + dt * k3q;
        k4q = b * (p + dt * k3p);
        if (otoclab_pow(x, 3.0, &x3))
            return 1;
        k4p = c1 * x - c3 * x3;
        k4u = b * (v + dt * k3v);
        k4v = (c1 - c2 * x * x) * (u + dt * k3u);
        q += sdt * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
        p += sdt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
        u += sdt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u);
        v += sdt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
    }
    s[0] = q;
    s[1] = p;
    s[2] = u;
    s[3] = v;
    return 0;
}

/* v4 == 0: the tangent {s[2], s[3]} alone, with constant coefficients */
static int linear_block(double *s, const double *k, int64_t steps)
{
    const double b = k[0], c1 = k[1], hdt = k[4], dt = k[5], sdt = k[6];
    double u = s[2], v = s[3];
    double k1u, k1v, k2u, k2v, k3u, k3v, k4u, k4v;
    int64_t i;
    for (i = 0; i < steps; i++) {
        k1u = b * v;
        k1v = c1 * u;
        k2u = b * (v + hdt * k1v);
        k2v = c1 * (u + hdt * k1u);
        k3u = b * (v + hdt * k2v);
        k3v = c1 * (u + hdt * k2u);
        k4u = b * (v + dt * k3v);
        k4v = c1 * (u + dt * k3u);
        u += sdt * (k1u + 2.0 * k2u + 2.0 * k3u + k4u);
        v += sdt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
    }
    s[2] = u;
    s[3] = v;
    return 0;
}

/* The Benettin blocks of `every` steps from step *start to step n, each
   followed by the renormalisation: s = {q, p, u, v, log_sum}. Returns 0 at
   the end of the run; otherwise *start is the block at fault and the
   status is 1 where x**3.0 overflowed, or 2 where the block's steps are
   done and its renormalisation is left to Python */
int otoclab_benettin_run(double *s, const double *k, int64_t n, int64_t every,
                         int quartic, int64_t *start)
{
    int64_t i;
    double nrm;
    for (i = *start; i < n; i += every) {
        if ((quartic ? quartic_block : linear_block)(s, k, n - i < every ? n - i : every)) {
            *start = i;
            return 1;
        }
        if (otoclab_hypot(s[2], s[3], &nrm)) {
            *start = i;
            return 2;
        }
        s[4] += log(nrm);
        s[2] = s[2] / nrm;
        s[3] = s[3] / nrm;
    }
    return 0;
}

/* The n RK4 steps of classical.integrate from (q[0], p[0]), into q[1..n]
   and p[1..n]; k = {b, c1, c3, h, hh, h6, kappa, v2, v4, e0, bound}.
   Returns 0, or the step at fault: *kind is 1 where a float power
   overflowed, and 2 where the energy, put in *e, failed the drift guard */
int64_t otoclab_integrate(double *qs, double *ps, int64_t n, const double *k,
                          int quartic, int *kind, double *e)
{
    const double b = k[0], c1 = k[1], c3 = k[2], h = k[3], hh = k[4], h6 = k[5];
    const double kappa = k[6], v2 = k[7], v4 = k[8], e0 = k[9], bound = k[10];
    double q = qs[0], p = ps[0], x, x3, q4, en;
    double k1q, k1p, k2q, k2p, k3q, k3p, k4q, k4p;
    int64_t i;
    for (i = 1; i <= n; i++) {
        /* a zero quartic term is left out, as in Python */
        k1q = b * p;
        if (quartic) {
            if (otoclab_pow(q, 3.0, &x3))
                goto overflow;
            k1p = c1 * q - c3 * x3;
        } else {
            k1p = c1 * q;
        }
        x = q + hh * k1q;
        k2q = b * (p + hh * k1p);
        if (quartic) {
            if (otoclab_pow(x, 3.0, &x3))
                goto overflow;
            k2p = c1 * x - c3 * x3;
        } else {
            k2p = c1 * x;
        }
        x = q + hh * k2q;
        k3q = b * (p + hh * k2p);
        if (quartic) {
            if (otoclab_pow(x, 3.0, &x3))
                goto overflow;
            k3p = c1 * x - c3 * x3;
        } else {
            k3p = c1 * x;
        }
        x = q + h * k3q;
        k4q = b * (p + h * k3p);
        if (quartic) {
            if (otoclab_pow(x, 3.0, &x3))
                goto overflow;
            k4p = c1 * x - c3 * x3;
        } else {
            k4p = c1 * x;
        }
        q += h6 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
        p += h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
        qs[i] = q;
        ps[i] = p;
        if (quartic) {
            if (otoclab_pow(q, 4.0, &q4))
                goto overflow;
            en = kappa * p * p + v2 * q * q + v4 * q4;
        } else {
            en = kappa * p * p + v2 * q * q + 0.0;
        }
        if (!(fabs(en - e0) <= bound)) {
            *kind = 2;
            *e = en;
            return i;
        }
    }
    return 0;
overflow:
    *kind = 1;
    return i;
}

/* floor(x) for |x| < 2^62, by truncation */
static double floor_small(double x)
{
    double t = (double)(int64_t)x;
    return t > x ? t - 1.0 : t;
}

/* a 10^(16 - E) as an integer part, returned, and a fraction in [0, 1) at
   *frac, as _g17._scaled computes them. tab is _g17's (4, width) table of
   10^k from k = kmin: hi, lo, and hi's Veltkamp halves */
static int64_t scaled(double a, int64_t E, const double *tab, int64_t width, int64_t kmin,
                      double *frac)
{
    int64_t k = 16 - E - kmin;
    double hi = tab[k], lo = tab[width + k], hh = tab[2 * width + k], hl = tab[3 * width + k];
    double p = a * hi, t = 134217729.0 * a, ah = t - (t - a), al = a - ah, err, whole, carry;
    err = ah * hh; /* the rounding error of p, exactly (Dekker), then a lo */
    err -= p;
    err += ah * hl;
    err += al * hh;
    err += al * hl;
    err += a * lo;
    whole = floor_small(p);
    err += p - whole;
    carry = floor_small(err);
    err -= carry;
    *frac = err;
    return (int64_t)whole + (int64_t)carry;
}

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* '%.17g' of one double at out: its length, or -1 where the fast path of
   _g17 cannot prove it; lim = {smallest, largest, tie} */
static int g17_one(double x, const double *lim, const double *tab, int64_t width, int64_t kmin,
                   char *out)
{
    const int64_t P16 = 10000000000000000LL, P17 = 100000000000000000LL;
    double a = fabs(x), frac;
    int64_t R, E;
    uint64_t bits;
    uint32_t top, rest;
    char d[18], *o = out;
    int nd, i;
    if (signbit(x))
        *o++ = '-';
    if (a == 0.0) {
        *o++ = '0';
        return (int)(o - out);
    }
    if (!(a >= lim[0] && a <= lim[1]))
        return -1;
    /* floor((e - 1) log10 2) for a = m 2^e, m in [0.5, 1): a's decade or
       the one below it, which one correction settles */
    memcpy(&bits, &a, sizeof bits);
    E = ((int64_t)(bits >> 52) - 1023) * 78913 >> 18;
    R = scaled(a, E, tab, width, kmin, &frac);
    if (R < P16 || R >= P17) {
        E += R >= P17 ? 1 : -1;
        R = scaled(a, E, tab, width, kmin, &frac);
        if (R < P16 || R >= P17)
            return -1;
    }
    frac -= 0.5;
    if (!(fabs(frac) >= lim[2]))
        return -1;
    if (frac > 0)
        R += 1;
    if (R == P17) {
        R = P16;
        E += 1;
    }
    /* the 17 digits, two at a time */
    top = (uint32_t)(R / 100000000);
    rest = (uint32_t)(R - (int64_t)top * 100000000);
    for (i = 15; i > 7; i -= 2) {
        memcpy(d + i, PAIRS + 2 * (rest % 100), 2);
        rest /= 100;
    }
    for (; i > 0; i -= 2) {
        memcpy(d + i, PAIRS + 2 * (top % 100), 2);
        top /= 100;
    }
    d[0] = (char)('0' + top);
    for (nd = 17; d[nd - 1] == '0'; nd--)
        ;
    if (E < -4 || E >= 17) {
        *o++ = d[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, d + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = E < 0 ? '-' : '+';
        if (E < 0)
            E = -E;
        if (E >= 100)
            *o++ = (char)('0' + E / 100);
        memcpy(o, PAIRS + 2 * (E % 100), 2);
        o += 2;
    } else if (E >= 0) {
        memcpy(o, d, E + 1);
        o += E + 1;
        if (nd > E + 1) {
            *o++ = '.';
            memcpy(o, d + E + 1, nd - E - 1);
            o += nd - E - 1;
        }
    } else {
        memcpy(o, "0.0000", 1 - E);
        o += 1 - E;
        memcpy(o, d, nd);
        o += nd;
    }
    return (int)(o - out);
}

/* The rows x cols doubles at v as '%.17g' fields joined by sep, a newline
   ending each row, written compactly at out (25 bytes a value suffice).
   A value left unproven is left out: slow[0] counts them, and slow[1 + 2j]
   and slow[2 + 2j] hold the j-th one's index and the offset where its text
   belongs. Returns the length written. lim = {smallest, largest, tie} */
int64_t otoclab_g17(const double *v, int64_t rows, int64_t cols, int sep, const double *lim,
                    const double *tab, int64_t width, int64_t kmin, char *out, int64_t *slow)
{
    char *o = out;
    int64_t i, j, ns = 0;
    int len;
    for (i = 0; i < rows * cols; i += cols) {
        for (j = i; j < i + cols; j++) {
            len = g17_one(v[j], lim, tab, width, kmin, o);
            if (len < 0) {
                slow[1 + 2 * ns] = j;
                slow[2 + 2 * ns] = o - out;
                ns++;
            } else {
                o += len;
            }
            *o++ = (char)sep;
        }
        o[-1] = '\n';
    }
    slow[0] = ns;
    return o - out;
}
"""

# unset (None) until the first load(); then the loaded library, or False
_lib = None


def load():
    """The kernel library, built or loaded on the first call; None where it
    cannot be, so that the caller runs its Python loop."""
    global _lib
    if _lib is None:
        _lib = build(CACHE_DIR) or False
    return _lib or None


def build(cache_dir: str):
    """Load ``_ckernel-<hash>.so`` from cache_dir, compiling it there first
    if it is missing; None on any failure.

    The compiler writes to a temporary file that is renamed into place, so
    processes building at the same time each leave a whole library."""
    import hashlib
    import subprocess
    import tempfile

    try:
        import ctypes
    except ImportError:  # a Python built without libffi
        return None
    tag = hashlib.sha256("\0".join((SOURCE, *CFLAGS)).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"_ckernel-{tag}.so")
    if not os.path.exists(path):
        tmp = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_ckernel-", suffix=".tmp", dir=cache_dir)
            os.close(fd)
            done = subprocess.run(
                ["cc", *CFLAGS, "-x", "c", "-", "-x", "none", "-o", tmp, "-lm"],
                input=SOURCE, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
            )
            if done.returncode != 0:
                return None
            os.chmod(tmp, 0o755)  # mkstemp made it private
            os.replace(tmp, path)
            tmp = None
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            if tmp is not None:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
    try:
        lib = ctypes.CDLL(path)
        fns = (lib.otoclab_pow, lib.otoclab_hypot, lib.otoclab_benettin_run,
               lib.otoclab_integrate, lib.otoclab_g17)
    except (OSError, AttributeError):  # not a library for this platform, or not ours
        return None
    # pointers as addresses, ints: a c_void_p converts faster than a typed pointer
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    signatures = (
        ((f64, f64, ptr), ctypes.c_int),
        ((f64, f64, ptr), ctypes.c_int),
        ((ptr, ptr, i64, i64, ctypes.c_int, ptr), ctypes.c_int),
        ((ptr, ptr, i64, ptr, ctypes.c_int, ptr, ptr), i64),
        ((ptr, i64, i64, ctypes.c_int, ptr, ptr, i64, i64, ptr, ptr), i64),
    )
    for fn, (args, res) in zip(fns, signatures):
        fn.argtypes, fn.restype = args, res
    return lib
