"""2D lattice discrete-velocity Boltzmann collision operator.

Modules:

* ``numtheory`` -- exact 64-bit factorization as (p, alpha) pairs, two-square
  legs (x, y) and Gaussian prime splitting
* ``circles``   -- lattice points on circles, circle tables of points, r2(n),
  exponential sums S(n,k) as complex numbers
* ``collision`` -- continuous reference operator and lattice operator Q^h
* ``harness``   -- convergence studies, error budgets, figure data, relaxation
* ``cli``       -- the ``dvm2d`` command
"""

__version__ = "0.1.0"
