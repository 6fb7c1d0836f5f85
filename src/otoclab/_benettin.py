"""The C kernel behind ``classical.lyapunov_tangent``: the RENORM_EVERY RK4
steps of one Benettin block, on the orbit and its tangent vector.

The kernel does the floating-point operations of the Python loop in
``lyapunov_tangent`` in the same order, one IEEE double operation at a time,
so its results are bit-identical to it:

- it is compiled with ``-O2 -ffp-contract=off``: no fused multiply-add, no
  ``-ffast-math`` and no ``-march``; it refuses to compile where C evaluates
  doubles in a wider format (``FLT_EVAL_METHOD != 0``, as on x87);
- ``x**3.0`` is ``otoclab_cube``, which mirrors CPython's ``float_pow``: nan,
  inf, +-0 and +-1 are returned as they are, anything else is
  ``pow(|x|, 3.0)`` from the C library (the one Python calls) with the sign
  put back, and a result past the float range returns a nonzero status where
  Python raises OverflowError. A result that underflows passes, as in
  Python. Products and sums that overflow give inf silently, as in Python;
- the renormalisation stays in Python, since the C library's ``hypot``
  differs from CPython's ``math.hypot`` in the last bit for some arguments.

Nothing happens at import: ``load`` builds the library with ``cc`` on its
first call, into this package's ``__pycache__`` under a name carrying a hash
of the source and flags, and keeps the result in ``_lib``. Later processes
load the cached file. Where the build or the load fails (no compiler, a
directory that cannot be written, a timeout), ``load`` returns None and
``lyapunov_tangent`` runs its Python loop, which gives the same numbers.
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

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "each double operation must round to double, as in Python"
#endif

/* x**3.0 as CPython's float_pow computes it: nonzero where Python raises */
int otoclab_cube(double x, double *out)
{
    double r;
    if (isnan(x) || isinf(x) || x == 0.0 || fabs(x) == 1.0) {
        *out = x;
        return 0;
    }
    errno = 0;
    r = pow(fabs(x), 3.0);
    /* _Py_ADJUST_ERANGE1 */
    if (errno == 0) {
        if (r == HUGE_VAL || r == -HUGE_VAL)
            errno = ERANGE;
    } else if (errno == ERANGE && r == 0.0) {
        errno = 0;
    }
    *out = x < 0.0 ? -r : r;
    return errno != 0;
}

/* s = {q, p, u, v}; k = {b, c1, c2, c3, hdt, dt, sdt} */
int otoclab_benettin(double *s, const double *k, int steps)
{
    const double b = k[0], c1 = k[1], c2 = k[2], c3 = k[3];
    const double hdt = k[4], dt = k[5], sdt = k[6];
    double q = s[0], p = s[1], u = s[2], v = s[3];
    double k1q, k1p, k1u, k1v, k2q, k2p, k2u, k2v;
    double k3q, k3p, k3u, k3v, k4q, k4p, k4u, k4v, x, x3;
    int i;
    for (i = 0; i < steps; i++) {
        k1q = b * p;
        if (otoclab_cube(q, &x3))
            return 1;
        k1p = c1 * q - c3 * x3;
        k1u = b * v;
        k1v = (c1 - c2 * q * q) * u;
        x = q + hdt * k1q;
        k2q = b * (p + hdt * k1p);
        if (otoclab_cube(x, &x3))
            return 1;
        k2p = c1 * x - c3 * x3;
        k2u = b * (v + hdt * k1v);
        k2v = (c1 - c2 * x * x) * (u + hdt * k1u);
        x = q + hdt * k2q;
        k3q = b * (p + hdt * k2p);
        if (otoclab_cube(x, &x3))
            return 1;
        k3p = c1 * x - c3 * x3;
        k3u = b * (v + hdt * k2v);
        k3v = (c1 - c2 * x * x) * (u + hdt * k2u);
        x = q + dt * k3q;
        k4q = b * (p + dt * k3p);
        if (otoclab_cube(x, &x3))
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
int otoclab_benettin_linear(double *s, const double *k, int steps)
{
    const double b = k[0], c1 = k[1], hdt = k[4], dt = k[5], sdt = k[6];
    double u = s[2], v = s[3];
    double k1u, k1v, k2u, k2v, k3u, k3v, k4u, k4v;
    int i;
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
    """Load ``_benettin-<hash>.so`` from cache_dir, compiling it there first
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
    path = os.path.join(cache_dir, f"_benettin-{tag}.so")
    if not os.path.exists(path):
        tmp = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix="_benettin-", suffix=".tmp", dir=cache_dir)
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
        cube = lib.otoclab_cube
        kernels = (lib.otoclab_benettin, lib.otoclab_benettin_linear)
    except (OSError, AttributeError):  # not a library for this platform, or not ours
        return None
    cube.argtypes = (ctypes.c_double, ctypes.POINTER(ctypes.c_double))
    cube.restype = ctypes.c_int
    for fn in kernels:
        # addresses, as ints: a c_void_p converts faster than a typed pointer
        fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int)
        fn.restype = ctypes.c_int
    return lib
