# roer pins BLAS to one thread when it is imported before numpy; importing
# it here, before any test module loads numpy, runs the suite pinned too
import roer  # noqa: F401
